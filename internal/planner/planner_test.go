package planner

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

var testPrivacy = mm.Privacy{Epsilon: 0.5, Delta: 1e-4}

func winner(t *testing.T, p *Planner, w *workload.Workload, h Hints) string {
	t.Helper()
	decisions, err := p.Explain(w, h)
	if err != nil {
		t.Fatalf("Explain(%s): %v", w.Name(), err)
	}
	for _, d := range decisions {
		if d.Selected {
			return d.Generator
		}
	}
	t.Fatalf("Explain(%s): no generator selected in %+v", w.Name(), decisions)
	return ""
}

// The admission table: which generator wins for the canonical workload
// shapes under tight, default and loose design budgets. This pins the
// escalation ladder that used to be hard-coded in the server.
func TestAdmissionTable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prefix1024 := workload.Prefix(1024)
	allrange2D := workload.AllRange(domain.MustShape(64, 64))
	marginals := workload.Marginals(domain.MustShape(8, 8, 4), 2)
	randomDense := workload.Predicate(domain.MustShape(64), 12, r)

	const (
		tight = 1e6
		loose = 1e12
		huge  = 1e13
	)
	cases := []struct {
		name string
		w    *workload.Workload
		h    Hints
		want string
	}{
		// Prefix(1024): dense algebra is over the default budget, loose
		// hints buy the exact design back.
		{"prefix1024/tight", prefix1024, Hints{MaxDesignCost: tight}, "hierarchical"},
		{"prefix1024/default", prefix1024, Hints{}, "hierarchical"},
		{"prefix1024/loose", prefix1024, Hints{MaxDesignCost: loose}, "eigen"},

		// AllRange(64,64): product form past the structured threshold —
		// the factored principal-vector design is the scalable choice;
		// only an extreme budget admits the exact factored design, and a
		// tight one falls to the tree.
		{"allrange64x64/tight", allrange2D, Hints{MaxDesignCost: tight}, "hierarchical"},
		{"allrange64x64/default", allrange2D, Hints{}, "principal-vectors"},
		{"allrange64x64/loose", allrange2D, Hints{MaxDesignCost: loose}, "principal-vectors"},
		{"allrange64x64/huge", allrange2D, Hints{MaxDesignCost: huge}, "eigen"},

		// Marginal sets: the closed-form optimal designer is nearly free,
		// so it wins even under a tight budget.
		{"marginals/tight", marginals, Hints{MaxDesignCost: tight}, "marginals"},
		{"marginals/default", marginals, Hints{}, "marginals"},
		{"marginals/loose", marginals, Hints{MaxDesignCost: loose}, "marginals"},

		// Random dense rows on a small domain: exact eigen under default
		// and loose budgets, tree under tight.
		{"randomdense/tight", randomDense, Hints{MaxDesignCost: tight}, "hierarchical"},
		{"randomdense/default", randomDense, Hints{}, "eigen"},
		{"randomdense/loose", randomDense, Hints{MaxDesignCost: loose}, "eigen"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := New(Config{})
			if got := winner(t, p, c.w, c.h); got != c.want {
				t.Fatalf("winner = %q, want %q", got, c.want)
			}
		})
	}
}

// MaxDesignTime hints convert to cost budgets through the calibrated
// throughput: an hour admits the exact design on 1024 cells, a
// millisecond does not.
func TestDesignTimeHintConversion(t *testing.T) {
	w := workload.Prefix(1024)
	if got := winner(t, New(Config{}), w, Hints{MaxDesignTime: time.Hour}); got != "eigen" {
		t.Fatalf("loose time hint: winner = %q, want eigen", got)
	}
	if got := winner(t, New(Config{}), w, Hints{MaxDesignTime: time.Millisecond}); got != "hierarchical" {
		t.Fatalf("tight time hint: winner = %q, want hierarchical", got)
	}
}

// A tighter Size hint forbids dense algebra even when the budget allows.
func TestSizeClassHintRestricts(t *testing.T) {
	w := workload.Prefix(256)
	if got := winner(t, New(Config{}), w, Hints{}); got != "eigen" {
		t.Fatalf("default: winner = %q, want eigen", got)
	}
	if got := winner(t, New(Config{}), w, Hints{Size: SizeLarge}); got != "hierarchical" {
		t.Fatalf("SizeLarge hint: winner = %q, want hierarchical", got)
	}
}

// Forcing a generator bypasses the budget but not hard admission rules.
func TestForcedGenerator(t *testing.T) {
	p := New(Config{})
	w := workload.AllRange(domain.MustShape(48, 48))
	decisions, err := p.Explain(w, Hints{Generator: "eigen-separation"})
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || !decisions[0].Selected || decisions[0].Generator != "eigen-separation" {
		t.Fatalf("forced separation decisions = %+v", decisions)
	}
	if _, err := p.Explain(w, Hints{Generator: "marginals"}); err == nil {
		t.Fatal("forcing marginals on a range workload did not error")
	}
	if _, err := p.Explain(w, Hints{Generator: "no-such-generator"}); err == nil {
		t.Fatal("unknown generator did not error")
	}
}

// failingGen admits with the best score and then fails its build: the
// planner must fall through the admission order to the next candidate and
// record the failure.
type failingGen struct{}

func (failingGen) Name() string { return "always-fails" }
func (failingGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	return &Proposal{Cost: 1, Score: -1, Note: "admits everything, builds nothing",
		Build: func() (Built, error) { return Built{}, errors.New("synthetic build failure") },
	}, ""
}

func TestBuildFallbackOrder(t *testing.T) {
	p := New(Config{})
	p.Register(failingGen{})
	w := workload.Prefix(64)
	plan, err := p.Plan(w, Hints{Privacy: testPrivacy})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generator != "eigen" {
		t.Fatalf("fallback winner = %q, want eigen", plan.Generator)
	}
	var sawFailure bool
	for _, d := range plan.Decisions {
		if d.Generator == "always-fails" {
			sawFailure = true
			if d.Admitted || d.Selected {
				t.Fatalf("failed generator still marked admitted/selected: %+v", d)
			}
		}
	}
	if !sawFailure {
		t.Fatal("failed generator missing from decisions")
	}
}

// Property: whatever the planner picks, the error it reports must match
// the core error analysis of the chosen strategy to 1e-8 (relative).
func TestPlanErrorMatchesCoreAnalysis(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	workloads := []*workload.Workload{
		workload.Prefix(64),
		workload.AllRange(domain.MustShape(8, 16)),
		workload.Marginals(domain.MustShape(4, 4, 2), 2),
		workload.Predicate(domain.MustShape(32), 20, r),
	}
	p := New(Config{})
	for _, w := range workloads {
		plan, err := p.Plan(w, Hints{Privacy: testPrivacy})
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		reported, err := plan.ExpectedError(testPrivacy)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		independent, err := mm.Error(w, plan.Op, testPrivacy)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if reported <= 0 {
			t.Fatalf("%s: reported error %g not positive", w.Name(), reported)
		}
		if math.Abs(reported-independent) > 1e-8*independent {
			t.Fatalf("%s (%s): reported %g vs core analysis %g", w.Name(), plan.Generator, reported, independent)
		}
		// The marginal generator must also meet its optimality claim.
		if plan.Generator == "marginals" {
			lb := plan.LowerBound(testPrivacy)
			if lb <= 0 || reported > lb*(1+1e-6) {
				t.Fatalf("%s: closed-form error %g above lower bound %g", w.Name(), reported, lb)
			}
		}
	}
}

// The hint fingerprint is the suffix of every design key plans are reused
// under: hints that change the generator choice must change it.
func TestHintsFingerprint(t *testing.T) {
	h := Hints{Privacy: testPrivacy}
	h2 := h
	h2.Generator = "hierarchical"
	if h.Fingerprint() == h2.Fingerprint() {
		t.Fatal("forcing a generator did not change the fingerprint")
	}
	h3 := h
	h3.Privacy = mm.Privacy{Epsilon: 2, Delta: 1e-3}
	if h.Fingerprint() != h3.Fingerprint() {
		t.Fatal("the privacy pair changed the fingerprint; it never changes the winner")
	}
}

// Inference selection: small dense strategies get the pseudo-inverse,
// structured strategies CGLS, and a tight latency target buys the
// pseudo-inverse for a densifiable structured strategy.
func TestInferenceSelection(t *testing.T) {
	p := New(Config{})
	dense, err := p.Plan(workload.Prefix(64), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Inference != mm.InferDensePinv {
		t.Fatalf("small dense plan inference = %s, want dense-pinv", dense.Inference)
	}
	structured, err := p.Plan(workload.AllRange(domain.MustShape(64, 64)), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if structured.Generator != "principal-vectors" || structured.Inference != mm.InferCGLS {
		t.Fatalf("structured plan = %s/%s, want principal-vectors/cgls", structured.Generator, structured.Inference)
	}
	lowLat, err := p.Plan(workload.Prefix(256), Hints{Generator: "hierarchical", LatencyTarget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if lowLat.Inference != mm.InferDensePinv {
		t.Fatalf("tight-latency hierarchical plan inference = %s, want dense-pinv", lowLat.Inference)
	}
	relaxed, err := p.Plan(workload.Prefix(256), Hints{Generator: "hierarchical"})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Inference != mm.InferCGLS {
		t.Fatalf("relaxed hierarchical plan inference = %s, want cgls", relaxed.Inference)
	}
}

// Every candidate over a microscopic budget still yields a plan: the
// cheapest generator is escalated to rather than failing the request.
func TestOverBudgetEscapesToCheapest(t *testing.T) {
	p := New(Config{})
	if got := winner(t, p, workload.Prefix(64), Hints{MaxDesignCost: 0.5}); got != "identity" {
		t.Fatalf("winner under impossible budget = %q, want identity", got)
	}
}

// The throughput calibration is per generator: a build calibrates the
// winner's own rate (alongside the global fallback), a restored snapshot
// round-trips, and each candidate's MaxDesignTime budget converts at its
// own generator's measured rate.
func TestPerGeneratorRateCalibration(t *testing.T) {
	p := New(Config{})
	w := workload.Prefix(256)
	if _, err := p.Plan(w, Hints{}); err != nil {
		t.Fatal(err)
	}
	snap := p.RateSnapshot()
	eigenRate, ok := snap["eigen"]
	if !ok {
		t.Fatalf("eigen build calibrated no per-generator rate: %v", snap)
	}
	if snap[""] == 0 {
		t.Fatalf("global fallback rate missing from snapshot: %v", snap)
	}
	if _, ok := snap["hierarchical"]; ok {
		t.Fatalf("hierarchical never built but has a rate: %v", snap)
	}

	// A fresh planner restored from the snapshot budgets eigen at the
	// measured rate, and a generator with no history at the global rate.
	q := New(Config{})
	q.RestoreRates(snap)
	h := Hints{MaxDesignTime: time.Second}
	if got, want := q.budgetFor(h, "eigen"), clampRate(eigenRate); got != want {
		t.Fatalf("eigen budget for 1s = %g, want measured rate %g", got, want)
	}
	if got, want := q.budgetFor(h, "hierarchical"), clampRate(snap[""]); got != want {
		t.Fatalf("no-history budget for 1s = %g, want global rate %g", got, want)
	}
}

// Trivial builds (identity, hierarchical) measure timer noise, not
// throughput: they must not drag the calibrated rate — and with it every
// MaxDesignTime conversion — orders of magnitude down.
func TestCheapBuildsDoNotCorruptRateCalibration(t *testing.T) {
	p := New(Config{})
	w := workload.Prefix(1024)
	for i := 0; i < 12; i++ {
		if _, err := p.Plan(w, Hints{Generator: "identity"}); err != nil {
			t.Fatal(err)
		}
	}
	if r := p.currentRate(); r != DefaultUnitsPerSecond {
		t.Fatalf("rate drifted to %g after trivial builds, want %g untouched", r, DefaultUnitsPerSecond)
	}
}
