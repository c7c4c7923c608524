package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix is shared with matrix_test.go.

func randSparse(r *rand.Rand, rows, cols int) *Sparse {
	b := NewSparseBuilder(cols)
	for i := 0; i < rows; i++ {
		nnz := 1 + r.Intn(3)
		idx := make([]int, 0, nnz)
		vals := make([]float64, 0, nnz)
		for k := 0; k < nnz; k++ {
			idx = append(idx, r.Intn(cols))
			vals = append(vals, r.NormFloat64())
		}
		b.AppendRow(idx, vals)
	}
	return b.Build()
}

// codecCases builds one instance of every serializable operator kind,
// including nested composites shaped like real strategies.
func codecCases(r *rand.Rand) map[string]Operator {
	perm := r.Perm(10)[:8] // IntervalsOp(4) has 10 rows
	scale := make([]float64, 10)
	for i := range scale {
		scale[i] = 0.25 + r.Float64()
	}
	sharded := ComposeOps(
		BlockDiag(randMatrix(r, 6, 4), randSparse(r, 5, 3)),
		StackOps(randMatrix(r, 4, 7), randMatrix(r, 3, 7)),
	)
	return map[string]Operator{
		"dense":        randMatrix(r, 7, 5),
		"identity":     Eye(9),
		"prefix":       NewPrefixOp(11),
		"intervals":    NewIntervalsOp(6),
		"sparse":       randSparse(r, 8, 6),
		"kron":         NewKronOp(NewIntervalsOp(4), Eye(3), randMatrix(r, 2, 5)),
		"stack":        StackOps(NewPrefixOp(8), randSparse(r, 5, 8), randMatrix(r, 3, 8)),
		"scaled":       ScaleOp(NewIntervalsOp(5), -1.75),
		"row-scaled":   ScaleRows(randMatrix(r, 10, 4), scale),
		"row-permuted": PermuteRows(NewIntervalsOp(4), perm),
		"normed": WithColNorms(randSparse(r, 6, 5),
			[]float64{1, 2, 3, 4, 5}, []float64{2, 2, 2, 2, 2}),
		"normed-nil-l1": WithColNorms(Eye(4), []float64{1, 1, 1, 1}, nil),
		"block-diag":    BlockDiag(NewPrefixOp(4), randMatrix(r, 3, 2), Eye(2)),
		"composed":      ComposeOps(randMatrix(r, 4, 6), randSparse(r, 6, 9)),
		"sharded-shape": WithColNorms(sharded, nil, nil),
	}
}

// TestOperatorCodecRoundTrip is the property test behind plan
// persistence: every operator kind must round-trip through the codec
// bit-exactly — MulVec and MulVecT on random probe vectors agree to
// 1e-12 before and after, and dimensions are preserved.
func TestOperatorCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, op := range codecCases(r) {
		t.Run(name, func(t *testing.T) {
			blob, err := MarshalOperator(op)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got, err := UnmarshalOperator(blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got.Rows() != op.Rows() || got.Cols() != op.Cols() {
				t.Fatalf("dims %dx%d, want %dx%d", got.Rows(), got.Cols(), op.Rows(), op.Cols())
			}
			for trial := 0; trial < 4; trial++ {
				x := make([]float64, op.Cols())
				for i := range x {
					x[i] = r.NormFloat64()
				}
				compareVecs(t, "MulVec", MulVec(op, x), MulVec(got, x))
				y := make([]float64, op.Rows())
				for i := range y {
					y[i] = r.NormFloat64()
				}
				compareVecs(t, "MulVecT", MulVecT(op, y), MulVecT(got, y))
			}
			// Column norms must survive too: sensitivity is derived from
			// them, so a codec that loses attached norms would recalibrate
			// noise on rehydrated strategies.
			compareVecs(t, "ColNorms2", OperatorColNorms2(op), OperatorColNorms2(got))
			compareVecs(t, "ColNormsL1", OperatorColNormsL1(op), OperatorColNormsL1(got))
		})
	}
}

func compareVecs(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("%s[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
}

// TestOperatorCodecDetectsCorruption flips each byte of a marshalled
// frame in turn and asserts the decoder reports an error instead of
// returning a silently different operator.
func TestOperatorCodecDetectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	op := StackOps(NewIntervalsOp(5), randMatrix(r, 4, 5))
	blob, err := MarshalOperator(op)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, err := UnmarshalOperator(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := UnmarshalOperator(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestOperatorCodecRefusesUnknownType ensures the encoder fails loudly on
// operator types outside the wire format instead of writing garbage.
func TestOperatorCodecRefusesUnknownType(t *testing.T) {
	if _, err := MarshalOperator(alienOp{}); err == nil {
		t.Fatal("marshal of an unknown operator type did not error")
	}
}

type alienOp struct{}

func (alienOp) Rows() int                                    { return 1 }
func (alienOp) Cols() int                                    { return 1 }
func (alienOp) MulVecRangeInto(dst, x []float64, lo, hi int) { copy(dst, x[lo:hi]) }
func (alienOp) MulVecTInto(dst, y []float64)                 { copy(dst, y) }
