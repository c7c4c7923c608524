package adaptivemm

import (
	"math"
	"math/rand"
	"testing"
)

func TestDesignMarginalsExactMeetsBound(t *testing.T) {
	w := Marginals(2, 4, 4, 2)
	s, err := DesignMarginalsExact([][]int{{0, 1}, {0, 2}, {1, 2}}, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Error(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e/lb-1) > 1e-6 {
		t.Fatalf("exact marginal design %g vs bound %g", e, lb)
	}
}

func TestRefineImprovesOrMatches(t *testing.T) {
	w := Prefix(12)
	s, err := Design(w)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Error(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Refine(w, s, 300)
	if err != nil {
		t.Fatal(err)
	}
	after, err := refined.Error(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if after > before*(1+1e-9) {
		t.Fatalf("refine worsened: %g -> %g", before, after)
	}
}

func TestDesignL1AndAnswerLaplace(t *testing.T) {
	w := AllRange(16)
	wav := make([][]float64, 0)
	// Use the designed-strategy path with nil basis (eigen-queries).
	_ = wav
	s, err := DesignL1(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.ErrorL1(w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 || math.IsNaN(e) {
		t.Fatalf("L1 error = %g", e)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = 5
	}
	r := rand.New(rand.NewSource(1))
	ans, err := s.AnswerLaplace(w, x, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != w.NumQueries() {
		t.Fatalf("answers = %d", len(ans))
	}
	// The scratch release path answers the same seeded stream bit for bit.
	xhat, err := s.mech.EstimateLaplaceInto(s.mech.GetScratch(), x, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range w.MulQueriesInto(make([]float64, w.NumQueries()), xhat) {
		if math.Float64bits(ans[i]) != math.Float64bits(v) {
			t.Fatalf("AnswerLaplace[%d] = %v, scratch path %v (bit mismatch)", i, ans[i], v)
		}
	}
}

func TestEstimateNonNegativePublic(t *testing.T) {
	w := Prefix(8)
	s, err := Design(w)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	x[2] = 30
	r := rand.New(rand.NewSource(2))
	xhat, err := s.EstimateNonNegative(x, testPrivacy, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range xhat {
		if v < 0 {
			t.Fatalf("negative cell %d = %g", i, v)
		}
	}
}

func TestQueryVariancesAndCI(t *testing.T) {
	w := Marginals(1, 4, 4)
	s, err := Design(w)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := s.QueryVariances(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != w.NumQueries() {
		t.Fatalf("variances = %d", len(vars))
	}
	hw, err := ConfidenceInterval(vars[0], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if hw <= 0 {
		t.Fatalf("CI half-width = %g", hw)
	}
}

func TestAllPredicateAndAllMarginalsBuilders(t *testing.T) {
	p := AllPredicate(5)
	if p.NumQueries() != 31 {
		t.Fatalf("all-predicate m = %d", p.NumQueries())
	}
	m := AllMarginals(2, 3)
	// k=0:1, k=1: 2+3, k=2: 6 → 12.
	if m.NumQueries() != 12 {
		t.Fatalf("all-marginals m = %d", m.NumQueries())
	}
	// Designing for the implicit all-predicate workload must work.
	s, err := Design(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Error(p, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(p, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if e < lb || e > 1.3*lb {
		t.Fatalf("all-predicate design %g vs bound %g", e, lb)
	}
}

// Sharded plans refuse the joint-histogram entry points with actionable
// errors, answer only the workload they were planned for, and report
// their shards through PlanInfo.
func TestShardedStrategyGuards(t *testing.T) {
	w := Marginals(1, 16, 16)
	s, err := DesignAuto(w, PlanHints{})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s.PlanInfo()
	if !ok || info.Generator != "sharded" || len(info.Shards) != 2 {
		t.Fatalf("plan info = %+v ok=%v, want sharded with 2 shards", info, ok)
	}
	x := make([]float64, w.Cells())
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	r := rand.New(rand.NewSource(4))
	if _, err := s.Estimate(x, p, r); err == nil {
		t.Fatal("Estimate must refuse sharded strategies (no joint histogram)")
	}
	if _, err := s.EstimateNonNegative(x, p, r); err == nil {
		t.Fatal("EstimateNonNegative must refuse sharded strategies")
	}
	if _, err := s.Answer(w, x, p, r); err != nil {
		t.Fatalf("Answer on the planned workload: %v", err)
	}
	// Same query count, different workload: the shard row segments do not
	// apply, so the release must be refused rather than mislabeled.
	other := Marginals(1, 16, 16)
	if _, err := s.Answer(other, x, p, r); err == nil {
		t.Fatal("Answer must refuse a workload the plan was not made for")
	}
	// A monolithic plan of the same workload still estimates.
	mono, err := DesignAuto(w, PlanHints{MaxShards: -1})
	if err != nil {
		t.Fatal(err)
	}
	if mi, _ := mono.PlanInfo(); mi.Generator == "sharded" {
		t.Fatalf("MaxShards -1 planned %q", mi.Generator)
	}
	if _, err := mono.Estimate(x, p, r); err != nil {
		t.Fatalf("monolithic Estimate: %v", err)
	}
}
