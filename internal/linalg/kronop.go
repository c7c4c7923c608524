package linalg

// KronOp is the Kronecker product A₁ ⊗ A₂ ⊗ … ⊗ A_k of arbitrary
// operators, evaluated factor by factor without ever materializing the
// product (see kronRange for the forward kernel and MulVecTInto for the
// transpose). Row and column ordering match the dense Kronecker
// construction (first factor is most significant).
type KronOp struct {
	factors []Operator
	rows    int
	cols    int
}

// NewKronOp returns the Kronecker product of the factors, in order. A
// single factor is returned unchanged; zero factors panic.
func NewKronOp(factors ...Operator) Operator {
	if len(factors) == 0 {
		panic("linalg: NewKronOp of nothing")
	}
	if len(factors) == 1 {
		return factors[0]
	}
	rows, cols := 1, 1
	for _, f := range factors {
		rows *= f.Rows()
		cols *= f.Cols()
	}
	return &KronOp{factors: factors, rows: rows, cols: cols}
}

// Factors returns the underlying factors.
func (o *KronOp) Factors() []Operator { return o.factors }

// Rows returns Π mᵢ.
func (o *KronOp) Rows() int { return o.rows }

// Cols returns Π nᵢ.
func (o *KronOp) Cols() int { return o.cols }

// Gram returns the dense Kronecker product of the factors' Gram matrices
// (Gram distributes over ⊗). Use only when Cols() is affordable.
func (o *KronOp) Gram() *Matrix {
	grams := make([]*Matrix, len(o.factors))
	for i, f := range o.factors {
		grams[i] = OperatorGram(f)
	}
	return KroneckerAll(grams...)
}

// ColNorms2 is the outer product of the factors' squared column norms
// (entries of a Kronecker product multiply).
func (o *KronOp) ColNorms2() []float64 {
	parts := make([][]float64, len(o.factors))
	for i, f := range o.factors {
		parts[i] = OperatorColNorms2(f)
	}
	return outerAll(parts)
}

// ColNormsL1 is the outer product of the factors' L1 column norms.
func (o *KronOp) ColNormsL1() []float64 {
	parts := make([][]float64, len(o.factors))
	for i, f := range o.factors {
		parts[i] = OperatorColNormsL1(f)
	}
	return outerAll(parts)
}

// outerAll flattens the outer product of the given vectors with the first
// vector most significant, matching Kronecker index order.
func outerAll(parts [][]float64) []float64 {
	out := []float64{1}
	for _, p := range parts {
		next := make([]float64, len(out)*len(p))
		for i, a := range out {
			base := i * len(p)
			for j, b := range p {
				next[base+j] = a * b
			}
		}
		out = next
	}
	return out
}

// Compile-time interface checks for the operator suite.
var (
	_ = []Operator{
		(*Matrix)(nil), (*IdentityOp)(nil), (*PrefixOp)(nil), (*IntervalsOp)(nil),
		(*Sparse)(nil), (*KronOp)(nil), (*StackOp)(nil), (*ScaledOp)(nil),
		(*RowScaledOp)(nil), (*RowPermutedOp)(nil), (*NormedOp)(nil),
	}
	_ = []Grammer{
		(*Matrix)(nil), (*IdentityOp)(nil), (*PrefixOp)(nil), (*IntervalsOp)(nil),
		(*Sparse)(nil), (*KronOp)(nil), (*StackOp)(nil), (*ScaledOp)(nil), (*NormedOp)(nil),
	}
)
