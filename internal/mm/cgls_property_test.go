package mm

import (
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// Property: the matrix-free CGLS inference path must agree with the dense
// pseudo-inverse path to ‖x̂_cg − x̂_pinv‖ ≤ 1e-8·(1+‖x̂‖) across strategy
// representations — random dense, prefix (analytic), and Kronecker
// (structured) — over random noisy answer vectors.
func TestCGLSInferenceMatchesPseudoInverse(t *testing.T) {
	r := rand.New(rand.NewSource(42))

	randStrategy := func(n int) linalg.Operator {
		m := linalg.New(2*n, n)
		for i := 0; i < 2*n; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
		return m
	}
	kronStrategy := func() linalg.Operator {
		// Structured factors: sparse hierarchical-ish CSR ⊗ prefix.
		b := linalg.NewSparseBuilder(6)
		b.AppendRangeRow(0, 5, 1)
		b.AppendRangeRow(0, 2, 1)
		b.AppendRangeRow(3, 5, 1)
		for j := 0; j < 6; j++ {
			b.AppendRangeRow(j, j, 1)
		}
		return linalg.NewKronOp(b.Build(), linalg.NewPrefixOp(5))
	}

	cases := []struct {
		name string
		op   linalg.Operator
	}{
		{"random-24", randStrategy(24)},
		{"random-40", randStrategy(40)},
		{"prefix-32", linalg.NewPrefixOp(32)},
		{"kron-sparse-prefix", kronStrategy()},
		{"kron-intervals-eye", linalg.NewKronOp(linalg.NewIntervalsOp(5), linalg.Eye(4))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dense := linalg.ToDense(c.op)
			pinv, err := linalg.PseudoInverse(dense)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				y := make([]float64, c.op.Rows())
				for i := range y {
					y[i] = 10 * r.NormFloat64()
				}
				want := linalg.MulVec(pinv, y)
				got, err := linalg.SolveCGLS(c.op, y, linalg.CGOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var diff, norm float64
				for i := range want {
					d := got[i] - want[i]
					diff += d * d
					norm += want[i] * want[i]
				}
				if math.Sqrt(diff) > 1e-8*(1+math.Sqrt(norm)) {
					t.Fatalf("trial %d: ‖x̂_cg − x̂_pinv‖ = %g over ‖x̂‖ = %g",
						trial, math.Sqrt(diff), math.Sqrt(norm))
				}
			}
		})
	}
}

// The full mechanism paths (noise included) must agree as well: with the
// same seed the dense and operator mechanisms draw identical noise, so the
// released estimates must match to solver precision.
func TestMechanismPathsAgree(t *testing.T) {
	op := linalg.NewKronOp(linalg.NewIntervalsOp(4), linalg.NewPrefixOp(4))
	dense := linalg.ToDense(op)

	md, err := NewMechanism(dense)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewMechanismOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if md.MatrixFree() {
		t.Fatal("dense mechanism unexpectedly matrix-free")
	}
	if !mo.MatrixFree() {
		t.Fatal("operator mechanism should be matrix-free")
	}
	if math.Abs(md.SensitivityL2()-mo.SensitivityL2()) > 1e-9*md.SensitivityL2() {
		t.Fatalf("sensitivities differ: %g vs %g", md.SensitivityL2(), mo.SensitivityL2())
	}

	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i * i % 11)
	}
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	a, err := md.EstimateGaussian(x, p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mo.EstimateGaussian(x, p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var diff, norm float64
	for i := range a {
		d := a[i] - b[i]
		diff += d * d
		norm += a[i] * a[i]
	}
	if math.Sqrt(diff) > 1e-8*(1+math.Sqrt(norm)) {
		t.Fatalf("dense and operator releases diverge: %g", math.Sqrt(diff))
	}
}

// QueryVariances must return an error, not panic, for workloads too large
// to materialize (per-query variances need explicit rows).
func TestQueryVariancesRejectsHugeWorkload(t *testing.T) {
	w := workload.AllRange(domain.MustShape(2048))
	mech, err := NewMechanismOp(linalg.NewIntervalsOp(2048))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mech.QueryVariances(w, Privacy{Epsilon: 1, Delta: 1e-4}); err == nil {
		t.Fatal("expected an error for a workload past the materialization cap")
	}
}
