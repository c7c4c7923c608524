package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// rangeCase pairs an operator with the reference product a chunked answer
// must reproduce bit for bit: MulVecInto, exactly what the buffered
// release path computes.
type rangeCase struct {
	name string
	op   Operator
}

func rangeCases(r *rand.Rand) []rangeCase {
	dense := randMatrix(r, 17, 9)
	sb := NewSparseBuilder(12)
	for i := 0; i < 23; i++ {
		lo := r.Intn(12)
		hi := lo + r.Intn(12-lo)
		sb.AppendRangeRow(lo, hi, 1+r.Float64())
	}
	sparse := sb.Build()
	perm := r.Perm(dense.Rows())
	scale := make([]float64, sparse.Rows())
	for i := range scale {
		scale[i] = r.NormFloat64()
	}
	inner := randMatrix(r, 7, 11)
	outer := randMatrix(r, 19, 7)
	return []rangeCase{
		{"dense", dense},
		{"sparse", sparse},
		{"identity", Eye(13)},
		{"prefix", NewPrefixOp(15)},
		{"intervals", NewIntervalsOp(9)},
		{"kron2", NewKronOp(NewPrefixOp(5), randMatrix(r, 4, 3))},
		{"kron3", NewKronOp(randMatrix(r, 3, 2), NewIntervalsOp(3), NewPrefixOp(4))},
		{"stack", StackOps(NewPrefixOp(8), Eye(8), randMatrix(r, 5, 8))},
		{"blockdiag", BlockDiag(randMatrix(r, 4, 3), NewPrefixOp(5), NewIntervalsOp(4))},
		{"scaled", ScaleOp(NewIntervalsOp(7), 1.0/3)},
		{"rowscaled", ScaleRows(sparse, scale)},
		{"permuted", PermuteRows(dense, perm)},
		{"normed", WithColNorms(NewPrefixOp(10), make([]float64, 10), make([]float64, 10))},
		{"composed", ComposeOps(outer, inner)},
	}
}

// referenceAnswers computes the product the buffered release serves: the
// write-into path over the full row range.
func referenceAnswers(op Operator, x []float64) []float64 {
	full := make([]float64, op.Rows())
	MulVecInto(op, full, x)
	return full
}

func TestMulVecRangeIntoMatchesFullBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, tc := range rangeCases(r) {
		t.Run(tc.name, func(t *testing.T) {
			rows, cols := tc.op.Rows(), tc.op.Cols()
			x := make([]float64, cols)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			full := referenceAnswers(tc.op, x)
			// Every possible range on small operators is cheap enough to
			// sweep exhaustively: chunked answers must match the buffered
			// window bit for bit at every boundary, not approximately.
			for lo := 0; lo <= rows; lo++ {
				for hi := lo; hi <= rows; hi++ {
					dst := make([]float64, hi-lo)
					for i := range dst {
						dst[i] = math.NaN() // ensure every cell is written
					}
					MulVecRangeInto(tc.op, dst, x, lo, hi)
					for i := range dst {
						if math.Float64bits(dst[i]) != math.Float64bits(full[lo+i]) {
							t.Fatalf("%s range [%d,%d) row %d: got %v (%#x) want %v (%#x)",
								tc.name, lo, hi, lo+i,
								dst[i], math.Float64bits(dst[i]),
								full[lo+i], math.Float64bits(full[lo+i]))
						}
					}
				}
			}
		})
	}
}

// TestMulVecRangeIntoChunkSweep reassembles the full product from
// contiguous chunks of awkward sizes and requires bit-identity — the
// exact access pattern StreamRelease uses.
func TestMulVecRangeIntoChunkSweep(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range rangeCases(r) {
		rows, cols := tc.op.Rows(), tc.op.Cols()
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		full := referenceAnswers(tc.op, x)
		for _, chunk := range []int{1, 3, 7, rows, rows + 5} {
			got := make([]float64, rows)
			buf := make([]float64, chunk)
			for lo := 0; lo < rows; lo += chunk {
				hi := lo + chunk
				if hi > rows {
					hi = rows
				}
				MulVecRangeInto(tc.op, buf[:hi-lo], x, lo, hi)
				copy(got[lo:hi], buf[:hi-lo])
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(full[i]) {
					t.Fatalf("%s chunk %d row %d: got %v want %v", tc.name, chunk, i, got[i], full[i])
				}
			}
		}
	}
}

func TestMulVecRangeIntoPanics(t *testing.T) {
	op := NewPrefixOp(4)
	x := make([]float64, 4)
	for _, tc := range []struct {
		name       string
		lo, hi, sz int
	}{
		{"negative lo", -1, 2, 3},
		{"hi before lo", 3, 2, 0},
		{"hi past rows", 0, 5, 5},
		{"short buffer", 0, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			MulVecRangeInto(op, make([]float64, tc.sz), x, tc.lo, tc.hi)
		})
	}
}
