package mm

import (
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

func TestNonNegativeEstimateIsNonNegative(t *testing.T) {
	shape := domain.MustShape(16)
	mech, err := NewMechanism(strategy.Hierarchical(shape, 2).A)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse data: most cells zero, so the unconstrained estimate goes
	// negative often.
	x := make([]float64, 16)
	x[3] = 50
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		xhat, err := mech.EstimateGaussianNonNegative(x, testPrivacy, r)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range xhat {
			if v < 0 {
				t.Fatalf("negative cell %d = %g", i, v)
			}
		}
	}
}

func TestNonNegativeEstimateHelpsOnSparseData(t *testing.T) {
	// On sparse data the projected estimate should have lower L2 error
	// than the raw least-squares estimate, on average.
	shape := domain.MustShape(32)
	a := strategy.Hierarchical(shape, 2).A
	mech, err := NewMechanism(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 32)
	x[5], x[20] = 40, 25

	var rawErr, nnErr float64
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		// Use paired noise for a fair comparison.
		r1 := rand.New(rand.NewSource(int64(trial)))
		raw, err := mech.EstimateGaussian(x, testPrivacy, r1)
		if err != nil {
			t.Fatal(err)
		}
		r2 := rand.New(rand.NewSource(int64(trial)))
		nn, err := mech.EstimateGaussianNonNegative(x, testPrivacy, r2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			rawErr += (raw[i] - x[i]) * (raw[i] - x[i])
			nnErr += (nn[i] - x[i]) * (nn[i] - x[i])
		}
	}
	if nnErr >= rawErr {
		t.Fatalf("non-negativity did not help: %g vs %g", nnErr, rawErr)
	}
}

func TestNonNegativeValidation(t *testing.T) {
	mech, err := NewMechanism(linalg.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	if _, err := mech.EstimateGaussianNonNegative([]float64{1}, testPrivacy, r); err == nil {
		t.Fatal("accepted wrong-length data")
	}
	if _, err := mech.EstimateGaussianNonNegative(make([]float64, 4), Privacy{}, r); err == nil {
		t.Fatal("accepted empty privacy")
	}
}

func TestQueryVariancesMatchMonteCarlo(t *testing.T) {
	w := workload.Fig1()
	mech, err := NewMechanism(strategy.Wavelet(domain.MustShape(8)).A)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := mech.QueryVariances(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	truth := linalg.MulVec(w.Matrix(), x)
	r := rand.New(rand.NewSource(3))
	const trials = 3000
	sq := make([]float64, len(truth))
	for trial := 0; trial < trials; trial++ {
		ans, err := mech.AnswerGaussian(w, x, testPrivacy, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ans {
			d := ans[i] - truth[i]
			sq[i] += d * d
		}
	}
	for i := range vars {
		measured := sq[i] / trials
		if math.Abs(measured-vars[i]) > 0.12*vars[i] {
			t.Fatalf("query %d: measured var %g vs analytic %g", i, measured, vars[i])
		}
	}
}

func TestConfidenceInterval(t *testing.T) {
	// 95% CI half-width for unit variance is ≈ 1.96.
	hw, err := ConfidenceInterval(1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hw-1.959964) > 1e-3 {
		t.Fatalf("95%% half-width = %g", hw)
	}
	// Scales with the standard deviation.
	hw4, err := ConfidenceInterval(4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hw4-2*hw) > 1e-9 {
		t.Fatal("CI does not scale with sqrt variance")
	}
	for _, bad := range []struct{ v, l float64 }{{-1, 0.9}, {1, 0}, {1, 1}} {
		if _, err := ConfidenceInterval(bad.v, bad.l); err == nil {
			t.Fatalf("accepted variance %g level %g", bad.v, bad.l)
		}
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	// Empirical coverage of the 90% interval on a released query.
	w := workload.Total(domain.MustShape(8))
	mech, err := NewMechanism(linalg.Identity(8))
	if err != nil {
		t.Fatal(err)
	}
	vars, err := mech.QueryVariances(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := ConfidenceInterval(vars[0], 0.90)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	truth := 40.0
	r := rand.New(rand.NewSource(4))
	const trials = 5000
	inside := 0
	for trial := 0; trial < trials; trial++ {
		ans, err := mech.AnswerGaussian(w, x, testPrivacy, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ans[0]-truth) <= hw {
			inside++
		}
	}
	cov := float64(inside) / trials
	if cov < 0.88 || cov > 0.92 {
		t.Fatalf("90%% CI coverage = %g", cov)
	}
}

func TestSplitBudget(t *testing.T) {
	p := Privacy{Epsilon: 1.0, Delta: 1e-4}
	half, err := p.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	if half.Epsilon != 0.5 || half.Delta != 5e-5 {
		t.Fatalf("Split = %+v", half)
	}
	if _, err := p.Split(0); err == nil {
		t.Fatal("accepted k = 0")
	}
}

func TestBatchBeatsSplitBudget(t *testing.T) {
	// The paper's motivation for batch answering: answering two workload
	// halves with split budgets costs strictly more error than answering
	// the union once with the full budget.
	shape := domain.MustShape(16)
	w1 := workload.Prefix(16)
	w2 := workload.Identity(shape)
	union := workload.Union("both", w1, w2)
	p := Privacy{Epsilon: 1.0, Delta: 1e-4}
	half, err := p.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Error(union, strategy.Hierarchical(shape, 2).A, p)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Error(w1, strategy.Hierarchical(shape, 2).A, half)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Error(w2, linalg.Identity(16), half)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := float64(w1.NumQueries()), float64(w2.NumQueries())
	splitRMSE := math.Sqrt((m1*e1*e1 + m2*e2*e2) / (m1 + m2))
	if batch >= splitRMSE {
		t.Fatalf("batch %g not better than split %g", batch, splitRMSE)
	}
}

// Every explicit inference method must produce the same least-squares
// estimate from the same noisy answers: the method is a performance
// choice, never a semantic one.
func TestInferenceMethodsAgree(t *testing.T) {
	shape := domain.MustShape(24)
	a := strategy.Hierarchical(shape, 2).A // tall: ~2n rows
	x := make([]float64, 24)
	for i := range x {
		x[i] = float64((i*7 + 2) % 11)
	}
	methods := []Inference{InferDensePinv, InferCGLS, InferNormalCG}
	var baseline []float64
	for _, inf := range methods {
		mech, err := NewMechanismInference(a, inf)
		if err != nil {
			t.Fatalf("%s: %v", inf, err)
		}
		if mech.Inference() != inf {
			t.Fatalf("inference = %s, want %s", mech.Inference(), inf)
		}
		// Identical seed → identical noisy answers → the estimates must
		// agree to solver tolerance.
		xhat, err := mech.EstimateGaussian(x, testPrivacy, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatalf("%s: %v", inf, err)
		}
		if baseline == nil {
			baseline = xhat
			continue
		}
		for i := range xhat {
			if math.Abs(xhat[i]-baseline[i]) > 1e-6*(1+math.Abs(baseline[i])) {
				t.Fatalf("%s cell %d: %g vs dense-pinv %g", inf, i, xhat[i], baseline[i])
			}
		}
	}
}

// InferAuto resolves by representation and size, and dense-pinv refuses
// operators past the materialization cap instead of exhausting memory.
func TestInferenceResolution(t *testing.T) {
	small, err := NewMechanismOp(strategy.Hierarchical(domain.MustShape(8), 2).A)
	if err != nil {
		t.Fatal(err)
	}
	if small.Inference() != InferDensePinv {
		t.Fatalf("small dense resolved to %s", small.Inference())
	}
	structured, err := NewMechanismOp(strategy.HierarchicalOperator(domain.MustShape(64, 64), 2))
	if err != nil {
		t.Fatal(err)
	}
	if structured.Inference() != InferCGLS {
		t.Fatalf("structured resolved to %s", structured.Inference())
	}
	huge := strategy.HierarchicalOperator(domain.MustShape(2048, 2048), 2)
	if _, err := NewMechanismInference(huge, InferDensePinv); err == nil {
		t.Fatal("dense-pinv on a ~4M-cell operator did not error")
	}
	if _, err := NewMechanismInference(huge, InferNormalCG); err == nil {
		t.Fatal("normal-CG on a ~4M-cell operator did not error (n×n Gram)")
	}
}
