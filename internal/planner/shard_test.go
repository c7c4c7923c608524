package planner

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

// A marginal workload over ≥2 disjoint attribute groups must be planned
// sharded by default, with every shard winning the closed-form marginal
// designer and the plan reporting the per-shard details.
func TestShardedWinsOnDisjointMarginals(t *testing.T) {
	w := workload.Marginals(domain.MustShape(16, 16), 1) // subsets {0},{1}: 2 blocks
	p := New(Config{})
	if got := winner(t, p, w, Hints{}); got != "sharded" {
		t.Fatalf("winner = %q, want sharded", got)
	}
	plan, err := p.Plan(w, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generator != "sharded" || plan.Inference != mm.InferSharded {
		t.Fatalf("plan = %s/%s, want sharded/sharded", plan.Generator, plan.Inference)
	}
	if len(plan.Shards) != 2 {
		t.Fatalf("plan reports %d shards, want 2", len(plan.Shards))
	}
	for i, s := range plan.Shards {
		if s.Generator != "marginals" {
			t.Fatalf("shard %d generator = %q, want marginals (closed-form optimal per block)", i, s.Generator)
		}
		if s.Kind != "marginal-block" || s.Cells != 16 || s.Queries != 16 {
			t.Fatalf("shard %d = %+v", i, s)
		}
	}
	// The composite must release end to end.
	x := make([]float64, w.Cells())
	for i := range x {
		x[i] = float64(i % 5)
	}
	pr := mm.Privacy{Epsilon: 0.5, Delta: 1e-4}
	ans, err := plan.Mechanism.AnswerGaussian(w, x, pr, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != w.NumQueries() {
		t.Fatalf("got %d answers, want %d", len(ans), w.NumQueries())
	}
	// The per-shard analyses combine into a real composite error report.
	e, err := plan.ExpectedError(pr)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatalf("expected error = %g, want > 0 (shards are small enough to analyze)", e)
	}
	// Sanity: the composite cannot beat the provably optimal monolithic
	// closed form, and per-shard designs should stay in its ballpark.
	mono, err := p.Plan(w, Hints{MaxShards: -1})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Generator != "marginals" {
		t.Fatalf("monolithic winner = %q, want marginals", mono.Generator)
	}
	me, err := mono.ExpectedError(pr)
	if err != nil {
		t.Fatal(err)
	}
	if e < me*(1-1e-9) {
		t.Fatalf("sharded error %g beats the optimal monolithic %g", e, me)
	}
	if e > 3*me {
		t.Fatalf("sharded error %g more than 3x the monolithic optimum %g", e, me)
	}
}

// blockDiagWorkload builds an explicit workload whose query matrix is
// block-diagonal: `blocks` dense blocks of the given size, each a small
// random 0/1 design, shifted onto disjoint cell ranges.
func blockDiagWorkload(t *testing.T, blocks, rowsPer, cellsPer int, seed int64) *workload.Workload {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := blocks * cellsPer
	mat := linalg.New(blocks*rowsPer, n)
	for b := 0; b < blocks; b++ {
		for i := 0; i < rowsPer; i++ {
			row := mat.Row(b*rowsPer + i)
			nonzero := false
			for j := 0; j < cellsPer; j++ {
				if r.Intn(2) == 1 {
					row[b*cellsPer+j] = 1
					nonzero = true
				}
			}
			if !nonzero {
				row[b*cellsPer+r.Intn(cellsPer)] = 1
			}
		}
	}
	return workload.FromMatrix("blockdiag", domain.MustShape(n), mat)
}

// The two sharded-plan properties of the issue, on a cell-partition
// workload where they hold exactly:
//
//  1. the sharded plan's answers equal the monolithic plan's answers (the
//     same composite strategy solved by one joint least squares) on the
//     same seeded noise stream, to ≤1e-8;
//  2. the combined shard error equals mm.Error of the composite operator.
func TestShardedMatchesMonolithicProperty(t *testing.T) {
	w := blockDiagWorkload(t, 2, 24, 40, 11) // 80 cells ≥ ShardMinCells
	p := New(Config{})
	plan, err := p.Plan(w, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generator != "sharded" {
		t.Fatalf("winner = %q, want sharded", plan.Generator)
	}
	pr := mm.Privacy{Epsilon: 0.8, Delta: 1e-5}

	// Property 2: shard error sum == mm.Error of the composite. On a cell
	// partition the joint least squares decomposes exactly, so the
	// combination formula must reproduce the composite analysis.
	got, err := plan.ExpectedError(pr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mm.Error(w, plan.Op, pr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("combined shard error %g != composite mm.Error %g", got, want)
	}

	// Property 1: same seeded noise stream, sharded inference vs one
	// monolithic joint least-squares solve of the same composite strategy.
	mono, err := mm.NewMechanismInference(linalg.ToDense(plan.Op), mm.InferDensePinv)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, w.Cells())
	for i := range x {
		x[i] = float64((i * 3) % 17)
	}
	const seed = 123
	shardedAns, err := plan.Mechanism.AnswerGaussian(w, x, pr, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	monoAns, err := mono.AnswerGaussian(w, x, pr, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range shardedAns {
		if math.Abs(shardedAns[i]-monoAns[i]) > 1e-8 {
			t.Fatalf("answer %d: sharded %g, monolithic %g", i, shardedAns[i], monoAns[i])
		}
	}
}

// MaxShards caps the split (excess blocks merge) and negative values
// disable sharding entirely.
func TestShardedMaxShardsHint(t *testing.T) {
	w := workload.Marginals(domain.MustShape(4, 4, 4, 4), 1) // 4 blocks, 256 cells
	p := New(Config{})
	plan, err := p.Plan(w, Hints{MaxShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generator != "sharded" || len(plan.Shards) != 2 {
		t.Fatalf("plan = %s with %d shards, want sharded with 2", plan.Generator, len(plan.Shards))
	}
	if got := winner(t, p, w, Hints{MaxShards: -1}); got == "sharded" {
		t.Fatal("MaxShards < 0 must disable sharding")
	}
}

// Refusal reasons are rule-tagged and name what failed.
func TestShardedAdmissionReasons(t *testing.T) {
	p := New(Config{})
	cases := []struct {
		name string
		w    *workload.Workload
		want string
	}{
		{"connected", workload.Marginals(domain.MustShape(8, 8, 8), 2), "rule block-count"},
		{"tiny", workload.Marginals(domain.MustShape(4, 4), 1), "rule min-cells"},
		{"unsplittable", workload.Prefix(256), "rule shape"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			decisions, err := p.Explain(c.w, Hints{})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decisions {
				if d.Generator != "sharded" {
					continue
				}
				if d.Admitted {
					t.Fatalf("sharded admitted for %s: %+v", c.name, d)
				}
				if !strings.Contains(d.Reason, c.want) {
					t.Fatalf("reason %q does not carry %q", d.Reason, c.want)
				}
				return
			}
			t.Fatal("no sharded decision in the explain output")
		})
	}
}

// Every refused candidate's reason is rule-tagged so explain output pairs
// the public generator name with the specific failed rule.
func TestRefusalReasonsAreRuleTagged(t *testing.T) {
	p := New(Config{})
	decisions, err := p.Explain(workload.Prefix(2048), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if d.Admitted || d.Reason == "" {
			continue
		}
		if !strings.HasPrefix(d.Reason, "rule ") {
			t.Fatalf("generator %s refusal %q is not rule-tagged", d.Generator, d.Reason)
		}
	}
}

// Forcing the sharded generator bypasses the dominance rule but not the
// hard shape rules.
func TestShardedForced(t *testing.T) {
	p := New(Config{})
	w := workload.Marginals(domain.MustShape(16, 16), 1)
	plan, err := p.Plan(w, Hints{Generator: "sharded"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generator != "sharded" {
		t.Fatalf("generator = %q", plan.Generator)
	}
	if _, err := p.Plan(workload.Prefix(256), Hints{Generator: "sharded"}); err == nil {
		t.Fatal("forcing sharded on an unsplittable workload must fail")
	}
}

// The hint fingerprint includes MaxShards: the same workload planned with
// sharding disabled is a different plan, and never a sharded one.
func TestShardedFingerprint(t *testing.T) {
	if (Hints{}).Fingerprint() == (Hints{MaxShards: -1}).Fingerprint() {
		t.Fatal("MaxShards -1 and 0 share a fingerprint")
	}
	w := workload.Marginals(domain.MustShape(16, 16), 1)
	c, err := New(Config{}).Plan(w, Hints{MaxShards: -1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Generator == "sharded" {
		t.Fatalf("MaxShards -1 planned %q", c.Generator)
	}
}
