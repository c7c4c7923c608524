package linalg

import (
	"math/rand"
	"testing"
)

// BlockDiag must agree entry-for-entry with the dense block-diagonal
// matrix, on matvecs, transposed matvecs, Gram and column norms.
func TestBlockDiagMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := NewFromRows([][]float64{{1, 2, 0}, {0, -1, 3}})  // 2x3
	b := NewFromRows([][]float64{{2, 0}, {1, 1}, {0, 4}}) // 3x2
	c := NewFromRows([][]float64{{-1, 0.5, 2, 0, 1}})     // 1x5
	op := BlockDiag(a, b, c)
	if op.Rows() != 6 || op.Cols() != 10 {
		t.Fatalf("BlockDiag is %dx%d, want 6x10", op.Rows(), op.Cols())
	}
	dense := ToDense(op)
	// The dense form must literally be block-diagonal.
	if dense.At(0, 3) != 0 || dense.At(2, 0) != 0 || dense.At(5, 3) != 0 {
		t.Fatal("off-block entries are not zero")
	}
	x := randVec(r, 10)
	vecsClose(t, MulVec(op, x), MulVec(dense, x), 1e-12, "MulVec")
	y := randVec(r, 6)
	vecsClose(t, MulVecT(op, y), MulVecT(dense, y), 1e-12, "MulVecT")

	g := OperatorGram(op)
	gd := dense.GramParallel()
	for i := 0; i < 10; i++ {
		vecsClose(t, g.Row(i), gd.Row(i), 1e-12, "Gram row")
	}
	vecsClose(t, OperatorColNorms2(op), dense.ColNorms2(), 1e-12, "ColNorms2")
	vecsClose(t, OperatorColNormsL1(op), dense.ColNormsL1(), 1e-12, "ColNormsL1")
}

// A single-part BlockDiag is the part itself, not a wrapper.
func TestBlockDiagSinglePart(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	if BlockDiag(a) != Operator(a) {
		t.Fatal("single-part BlockDiag should return the part unchanged")
	}
}

// ComposeOps must agree with the dense product on both matvec directions.
func TestComposeOpsMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	outer := NewFromRows([][]float64{{1, 0, 2}, {0, 1, -1}})                    // 2x3
	inner := NewFromRows([][]float64{{1, 1, 0, 0}, {0, 2, 1, 0}, {0, 0, 1, 3}}) // 3x4
	op := ComposeOps(outer, inner)
	if op.Rows() != 2 || op.Cols() != 4 {
		t.Fatalf("ComposeOps is %dx%d, want 2x4", op.Rows(), op.Cols())
	}
	product := outer.MulParallel(inner)
	x := randVec(r, 4)
	vecsClose(t, MulVec(op, x), MulVec(product, x), 1e-12, "MulVec")
	y := randVec(r, 2)
	vecsClose(t, MulVecT(op, y), MulVecT(product, y), 1e-12, "MulVecT")
}

func TestComposeOpsDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	ComposeOps(NewFromRows([][]float64{{1, 2}}), NewFromRows([][]float64{{1}}))
}
