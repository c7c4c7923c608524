package mm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

var testPrivacy = Privacy{Epsilon: 0.5, Delta: 1e-4}

func TestPrivacyValidate(t *testing.T) {
	bad := []Privacy{
		{Epsilon: 0, Delta: 1e-4},
		{Epsilon: -1, Delta: 1e-4},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("accepted %+v", p)
		}
	}
	if err := testPrivacy.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPConstant(t *testing.T) {
	// P = 2 ln(2/δ)/ε².
	want := 2 * math.Log(2/1e-4) / 0.25
	if got := testPrivacy.P(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P = %g, want %g", got, want)
	}
	// σ² = sens²·P·ε²-free check: σ = sens·sqrt(2 ln(2/δ))/ε → σ² = sens²·P.
	sigma := testPrivacy.GaussianSigma(3)
	if math.Abs(sigma*sigma-9*testPrivacy.P()) > 1e-9 {
		t.Fatalf("sigma inconsistent with P: %g vs %g", sigma*sigma, 9*testPrivacy.P())
	}
}

func TestErrorIdentityStrategyClosedForm(t *testing.T) {
	// With A = I: Error = sqrt(P · ‖W‖_F² / m).
	w := workload.Fig1()
	got, err := Error(w, linalg.Identity(8), testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	frob := w.Matrix().FrobeniusNorm()
	want := math.Sqrt(testPrivacy.P() * frob * frob / 8)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Error = %g, want %g", got, want)
	}
}

func TestErrorWorkloadAsStrategy(t *testing.T) {
	// Using W itself as the strategy: the Fig. 1 workload has rank 4 (no
	// query separates the two high-gpa buckets), so the pseudo-inverse
	// trace term is rank(W) = 4 and Error = ‖W‖₂·sqrt(P·4/m). (The paper's
	// Example 4 figure 47.78 idealizes W as full rank, i.e. trace = n.)
	w := workload.Fig1()
	got, err := Error(w, w.Matrix(), testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(5) * math.Sqrt(testPrivacy.P()*4/8)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Error = %g, want %g", got, want)
	}
}

func TestErrorScaleInvarianceOfStrategy(t *testing.T) {
	// Scaling the strategy does not change the error (sensitivity and
	// inference cancel).
	w := workload.Fig1()
	a := strategy.Wavelet(w.Shape()).A
	e1, err := Error(w, a, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Error(w, a.Scale(7.3), testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1-e2) > 1e-9*e1 {
		t.Fatalf("error changed under strategy scaling: %g vs %g", e1, e2)
	}
}

func TestExample4Ordering(t *testing.T) {
	// Fig. 2 of the paper compares the identity and the flat 8-cell Haar
	// wavelet on the Fig. 1 workload. All workload errors are defined up to
	// one global constant (choice of P and per-query averaging), so we
	// check the paper's *ratio*: 45.36/34.62 ≈ 1.310.
	w := workload.Fig1()
	id, err := Error(w, linalg.Identity(8), testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	wav, err := Error(w, strategy.Wavelet(domain.MustShape(8)).A, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if wav >= id {
		t.Fatalf("expected wavelet < identity, got %g vs %g", wav, id)
	}
	if r := id / wav; math.Abs(r-45.36/34.62) > 0.01 {
		t.Fatalf("identity/wavelet ratio = %g, paper 1.310", r)
	}
}

func TestErrorCheckedDetectsUnsupported(t *testing.T) {
	// A strategy spanning only the first cell cannot answer the total.
	shape := domain.MustShape(4)
	w := workload.Total(shape)
	a := linalg.New(1, 4)
	a.Set(0, 0, 1)
	if _, err := ErrorChecked(w, a, testPrivacy); err != ErrNotSupported {
		t.Fatalf("err = %v, want ErrNotSupported", err)
	}
	// Identity supports everything.
	if _, err := ErrorChecked(w, linalg.Identity(4), testPrivacy); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundBelowAnyStrategy(t *testing.T) {
	// Thm. 2: no strategy beats the SVD bound. Property-test with random
	// full-rank strategies on random workloads.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		shape := domain.MustShape(n)
		w := workload.RandomRange(shape, 2+r.Intn(10), r)
		lb, err := LowerBound(w, testPrivacy)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			a := linalg.New(n+2, n)
			for i := 0; i < a.Rows(); i++ {
				row := a.Row(i)
				for j := range row {
					row[j] = r.NormFloat64()
				}
			}
			e, err := Error(w, a, testPrivacy)
			if err != nil {
				return false
			}
			if e < lb*(1-1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundFromEigenvaluesMatches(t *testing.T) {
	w := workload.Fig1()
	lb1, err := LowerBound(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := linalg.SymEigen(w.Gram())
	if err != nil {
		t.Fatal(err)
	}
	lb2 := LowerBoundFromEigenvalues(eg.Values, w.NumQueries(), testPrivacy)
	if math.Abs(lb1-lb2) > 1e-12 {
		t.Fatalf("bounds disagree: %g vs %g", lb1, lb2)
	}
}

func TestQueryErrorsAggregateToWorkloadError(t *testing.T) {
	w := workload.Fig1()
	a := strategy.Hierarchical(w.Shape(), 2).A
	per, err := QueryErrors(w, a, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, e := range per {
		s += e * e
	}
	rms := math.Sqrt(s / float64(len(per)))
	total, err := Error(w, a, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rms-total) > 1e-8*total {
		t.Fatalf("per-query RMS %g != workload error %g", rms, total)
	}
}

func TestMechanismUnbiasedAndMatchesAnalyticError(t *testing.T) {
	// Monte Carlo validation of Prop. 4: measured RMSE over trials must
	// match the analytic error within sampling tolerance.
	w := workload.Fig1()
	a := strategy.Wavelet(w.Shape()).A
	mech, err := NewMechanism(a)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{120, 80, 45, 30, 110, 95, 60, 25}
	truth := linalg.MulVec(w.Matrix(), x)
	r := rand.New(rand.NewSource(1))
	const trials = 4000
	sq := make([]float64, len(truth))
	bias := make([]float64, len(truth))
	for trial := 0; trial < trials; trial++ {
		ans, err := mech.AnswerGaussian(w, x, testPrivacy, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ans {
			d := ans[i] - truth[i]
			sq[i] += d * d
			bias[i] += d
		}
	}
	var totalSq float64
	for i := range sq {
		totalSq += sq[i] / trials
		if b := bias[i] / trials; math.Abs(b) > 5 {
			t.Fatalf("query %d biased by %g", i, b)
		}
	}
	measured := math.Sqrt(totalSq / float64(len(truth)))
	analytic, err := Error(w, a, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(measured-analytic) > 0.05*analytic {
		t.Fatalf("measured RMSE %g vs analytic %g", measured, analytic)
	}
}

func TestMechanismConsistency(t *testing.T) {
	// Answers derive from a single x̂, so consistent: q3 = q1 - q2 exactly
	// in the Fig. 1 workload even under noise.
	w := workload.Fig1()
	mech, err := NewMechanism(strategy.Hierarchical(w.Shape(), 2).A)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	r := rand.New(rand.NewSource(2))
	ans, err := mech.AnswerGaussian(w, x, testPrivacy, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans[0]-(ans[1]+ans[2])) > 1e-8 {
		t.Fatalf("inconsistent answers: q1=%g q2+q3=%g", ans[0], ans[1]+ans[2])
	}
}

func TestEstimateLaplaceRuns(t *testing.T) {
	mech, err := NewMechanism(linalg.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	xhat, err := mech.EstimateLaplace([]float64{1, 2, 3, 4}, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(xhat) != 4 {
		t.Fatalf("xhat length %d", len(xhat))
	}
	if _, err := mech.EstimateLaplace([]float64{1}, 1.0, r); err == nil {
		t.Fatal("accepted wrong-length data")
	}
	if _, err := mech.EstimateLaplace([]float64{1, 2, 3, 4}, 0, r); err == nil {
		t.Fatal("accepted epsilon = 0")
	}
}

func TestLaplaceSamplerMoments(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n = 200000
	b := 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := laplace(r, b)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("laplace mean = %g", mean)
	}
	// Var = 2b² = 8.
	if math.Abs(variance-8) > 0.3 {
		t.Fatalf("laplace variance = %g, want 8", variance)
	}
}

func TestGaussianBaselineMatchesSigma(t *testing.T) {
	w := workload.Total(domain.MustShape(16))
	x := make([]float64, 16)
	r := rand.New(rand.NewSource(5))
	const trials = 50000
	var sumSq float64
	for i := 0; i < trials; i++ {
		ans, err := Gaussian(w, x, testPrivacy, r)
		if err != nil {
			t.Fatal(err)
		}
		sumSq += ans[0] * ans[0]
	}
	measured := math.Sqrt(sumSq / trials)
	want := testPrivacy.GaussianSigma(w.SensitivityL2())
	if math.Abs(measured-want) > 0.03*want {
		t.Fatalf("gaussian σ = %g, want %g", measured, want)
	}
}

func TestEstimateGaussianRejectsBadInput(t *testing.T) {
	mech, err := NewMechanism(linalg.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	if _, err := mech.EstimateGaussian([]float64{1, 2}, testPrivacy, r); err == nil {
		t.Fatal("accepted wrong-length data")
	}
	if _, err := mech.EstimateGaussian([]float64{1, 2, 3}, Privacy{}, r); err == nil {
		t.Fatal("accepted zero privacy params")
	}
}

func TestSensitivities(t *testing.T) {
	a := linalg.NewFromRows([][]float64{{1, 1}, {1, -1}, {0, 2}})
	mech, err := NewMechanism(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mech.SensitivityL2()-math.Sqrt(6)) > 1e-12 {
		t.Fatalf("L2 sens = %g", mech.SensitivityL2())
	}
	if mech.SensitivityL1() != 4 {
		t.Fatalf("L1 sens = %g", mech.SensitivityL1())
	}
}

func TestErrorImplicitWorkload(t *testing.T) {
	// Implicit all-range workload: error computable via Gram only.
	shape := domain.MustShape(128)
	w := workload.AllRange(shape)
	eWav, err := Error(w, strategy.Wavelet(shape).A, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	eId, err := Error(w, linalg.Identity(128), testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if !(lb < eWav && eWav < eId) {
		t.Fatalf("expected lb < wavelet < identity: %g, %g, %g", lb, eWav, eId)
	}
	// Wavelet's advantage on all-range should be large (paper: dramatic).
	if eId/eWav < 2 {
		t.Fatalf("wavelet advantage only %g on all-range(128)", eId/eWav)
	}
}
