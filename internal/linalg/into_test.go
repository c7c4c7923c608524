package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Directions a representation answers without allocating.
const (
	allocFreeFwd = 1 << iota // MulVecInto and MulVecRangeInto
	allocFreeT               // MulVecTInto
	allocFree    = allocFreeFwd | allocFreeT
)

// intoCase is one representation and the directions it answers
// allocation-free.
type intoCase struct {
	op        Operator
	allocFree int
}

// intoOps builds one operator of every hot-path representation, to check
// its write-into kernels against the allocating matvecs and pin the
// allocation-free ones.
func intoOps() map[string]intoCase {
	sp := NewSparseBuilder(6)
	sp.AppendRangeRow(0, 5, 1)
	sp.AppendRangeRow(0, 2, 2)
	sp.AppendRow([]int{1, 4}, []float64{-1, 3})
	sparse := sp.Build()

	dense := ToDense(sparse)
	scale := []float64{0.5, -1, 2}
	return map[string]intoCase{
		"matrix":        {dense, allocFree},
		"sparse":        {sparse, allocFree},
		"identity":      {Eye(6), allocFree},
		"prefix":        {NewPrefixOp(6), allocFree},
		"intervals":     {NewIntervalsOp(4), allocFree},
		"stack":         {StackOps(Eye(6), sparse), allocFreeFwd},
		"blockdiag":     {BlockDiag(Eye(2), NewPrefixOp(3), Eye(1)), allocFree},
		"scaled":        {ScaleOp(sparse, -2.5), allocFree},
		"rowscaled":     {ScaleRows(sparse, scale), allocFreeFwd},
		"rowpermuted":   {PermuteRows(sparse, []int{2, 0, 1, 0}), 0},
		"rowpermutedid": {PermuteRows(Eye(6), []int{5, 0, 3, 3}), allocFree},
		"normed":        {&NormedOp{Operator: sparse}, allocFree},
		"composed":      {ComposeOps(sparse, Eye(6)), 0},
	}
}

// TestMulVecIntoMatchesMulVec checks, for every representation, that
// MulVecInto / MulVecTInto write exactly what the allocating matvecs
// return — including overwriting a dirty dst.
func TestMulVecIntoMatchesMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for name, tc := range intoOps() {
		op := tc.op
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, op.Cols())
			for i := range x {
				x[i] = r.NormFloat64()
			}
			y := make([]float64, op.Rows())
			for i := range y {
				y[i] = r.NormFloat64()
			}
			dst := make([]float64, op.Rows())
			for i := range dst {
				dst[i] = math.NaN()
			}
			MulVecInto(op, dst, x)
			want := MulVec(op, x)
			for i := range dst {
				if math.Abs(dst[i]-want[i]) > 1e-12 {
					t.Fatalf("%s: MulVecInto[%d] = %g, want %g", name, i, dst[i], want[i])
				}
			}
			dstT := make([]float64, op.Cols())
			for i := range dstT {
				dstT[i] = math.NaN()
			}
			MulVecTInto(op, dstT, y)
			wantT := MulVecT(op, y)
			for i := range dstT {
				if math.Abs(dstT[i]-wantT[i]) > 1e-12 {
					t.Fatalf("%s: MulVecTInto[%d] = %g, want %g", name, i, dstT[i], wantT[i])
				}
			}
		}
	}
}

// TestMatvecKernelsAllocationFree pins the representations documented as
// allocation-free: a warmed MulVecInto, MulVecRangeInto (full and
// mid-range) and MulVecTInto allocate nothing in the directions each
// case declares.
func TestMatvecKernelsAllocationFree(t *testing.T) {
	for name, tc := range intoOps() {
		op := tc.op
		x := make([]float64, op.Cols())
		y := make([]float64, op.Rows())
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		for i := range y {
			y[i] = float64(i%3) - 1
		}
		dst := make([]float64, op.Rows())
		dstT := make([]float64, op.Cols())
		rows := op.Rows()
		pins := map[string]func(){}
		if tc.allocFree&allocFreeFwd != 0 {
			pins["MulVecInto"] = func() { MulVecInto(op, dst, x) }
			pins["MulVecRangeInto"] = func() { MulVecRangeInto(op, dst, x, 1, rows-1) }
		}
		if tc.allocFree&allocFreeT != 0 {
			pins["MulVecTInto"] = func() { MulVecTInto(op, dstT, y) }
		}
		for kernel, f := range pins {
			if n := testing.AllocsPerRun(20, f); n != 0 {
				t.Errorf("%s: %s allocates %v per run, want 0", name, kernel, n)
			}
		}
	}
}

// TestSolveCGLSIntoMatchesSolveCGLS checks the workspace solver against
// the allocating wrapper and pins its zero-alloc steady state.
func TestSolveCGLSIntoMatchesSolveCGLS(t *testing.T) {
	b := NewSparseBuilder(8)
	for _, iv := range [][2]int{{0, 7}, {0, 3}, {4, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		b.AppendRangeRow(iv[0], iv[1], 1)
	}
	a := b.Build()
	rhs := make([]float64, a.Rows())
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	want, err := SolveCGLS(a, rhs, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws := &CGWorkspace{}
	dst := make([]float64, a.Cols())
	if err := SolveCGLSInto(a, rhs, dst, CGOptions{}, ws); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("SolveCGLSInto[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := SolveCGLSInto(a, rhs, dst, CGOptions{}, ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed SolveCGLSInto allocates %v per run, want 0", n)
	}
}
