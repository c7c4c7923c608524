// Operator abstraction: matrix-free linear operators.
//
// Historically every layer of this repository bottomed out in the dense
// row-major Matrix, which caps the reachable domain size at a few thousand
// cells (O(n²) memory, O(n³) factorizations). The Operator interface makes
// the representation a pluggable choice: a query workload, a strategy, or a
// Gram matrix can be a dense Matrix, a CSR Sparse matrix, an analytic
// structured form (Identity, Prefix, Intervals), or a Kronecker product of
// any of these.
//
// The mechanism touches a strategy A in exactly two ways: it answers
// y = A·x (plus noise) and it infers x̂ by least squares, which needs Aᵀ.
// So every representation implements exactly two kernels, both writing
// into caller-owned buffers:
//
//   - MulVecRangeInto answers rows [lo,hi) of A·x. The full product is the
//     range [0, Rows()); a streamed release asks for one chunk at a time
//     and gets the same bits the full product would (see rowrange.go).
//   - MulVecTInto writes Aᵀ·y (see into.go).
//
// Callers go through the package functions MulVec, MulVecT, MulVecInto,
// MulVecTInto and MulVecRangeInto, all thin wrappers over the two
// kernels, so every path through the package computes one product the
// same way.
//
// Representation guide:
//
//   - *Matrix — explicit rows. Right for small or unstructured operators;
//     the only form that supports the dense factorizations (LU, Cholesky,
//     SymEigen, PseudoInverse).
//   - *Sparse — CSR. Right for tree/hierarchical strategies and other
//     operators with few nonzeros per row.
//   - Eye, NewPrefixOp, NewIntervalsOp — O(1)-memory analytic forms with
//     O(rows) matvecs and closed-form Gram matrices / column norms.
//   - NewKronOp — Kronecker product of per-dimension operators; the
//     workhorse for multi-dimensional workloads (a multi-dimensional range
//     is the product of per-dimension intervals).
//   - StackOps, ScaleRows, PermuteRows, ScaleOp — structural combinators
//     used to assemble strategies (weighting, completion) without
//     materializing them.
//
// Optional capability interfaces (Grammer, ColNorms2er, ColNormsL1er) let a
// representation expose analytic shortcuts; the OperatorGram /
// OperatorColNorms2 / OperatorColNormsL1 helpers fall back to probing the
// operator with basis vectors when a shortcut is missing.

package linalg

import (
	"fmt"
	"math"
)

// MaterializeCap is the shared budget, in matrix entries (rows × cols),
// above which the package's consumers refuse to materialize a structured
// operator or workload as a dense Matrix. It bounds transparent
// conversions only — matrix-free answering has no size cap.
const MaterializeCap = 8 << 20

// Operator is a real linear map R^cols → R^rows presented through its two
// matvec kernels. Kernels must not retain or modify their input, must not
// be called with a destination that aliases the input, and overwrite
// every destination cell they own.
type Operator interface {
	// Rows returns the output dimension m.
	Rows() int
	// Cols returns the input dimension n.
	Cols() int
	// MulVecRangeInto writes rows [lo,hi) of A·x into dst[:hi-lo].
	// len(x) must be Cols(), 0 ≤ lo ≤ hi ≤ Rows() and len(dst) ≥ hi-lo.
	MulVecRangeInto(dst, x []float64, lo, hi int)
	// MulVecTInto writes Aᵀ·y into dst. len(dst) must be Cols() and
	// len(y) must be Rows().
	MulVecTInto(dst, y []float64)
}

// Grammer is implemented by operators that can produce their dense Gram
// matrix AᵀA analytically (or at least cheaply).
type Grammer interface {
	Gram() *Matrix
}

// ColNorms2er is implemented by operators that know their squared L2 column
// norms (the diagonal of AᵀA) without materializing anything.
type ColNorms2er interface {
	ColNorms2() []float64
}

// ColNormsL1er is implemented by operators that know their L1 column norms.
type ColNormsL1er interface {
	ColNormsL1() []float64
}

// ToDense materializes an operator as a dense Matrix by probing it with
// basis vectors (one MulVec per column). The dense representation itself is
// returned unchanged. Use only when rows*cols is affordable.
func ToDense(op Operator) *Matrix {
	if m, ok := op.(*Matrix); ok {
		return m
	}
	rows, cols := op.Rows(), op.Cols()
	out := New(rows, cols)
	e := make([]float64, cols)
	for j := 0; j < cols; j++ {
		e[j] = 1
		col := MulVec(op, e)
		e[j] = 0
		for i, v := range col {
			out.data[i*cols+j] = v
		}
	}
	return out
}

// OperatorGram returns the dense Gram matrix AᵀA of an operator, using the
// Grammer shortcut when available and basis-vector probing otherwise
// (cols MulVec/MulVecT pairs). Dense matrices use the blocked GramParallel.
func OperatorGram(op Operator) *Matrix {
	if m, ok := op.(*Matrix); ok {
		return m.GramParallel()
	}
	if g, ok := op.(Grammer); ok {
		return g.Gram()
	}
	n := op.Cols()
	out := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := MulVecT(op, MulVec(op, e))
		e[j] = 0
		for i, v := range col {
			out.data[i*n+j] = v
		}
	}
	return out
}

// OperatorColNorms2 returns the squared L2 column norms of an operator,
// via the ColNorms2er / Grammer shortcuts or by probing columns.
func OperatorColNorms2(op Operator) []float64 {
	if m, ok := op.(*Matrix); ok {
		return m.ColNorms2()
	}
	if c, ok := op.(ColNorms2er); ok {
		return c.ColNorms2()
	}
	if g, ok := op.(Grammer); ok {
		gm := g.Gram()
		out := make([]float64, gm.Cols())
		for j := range out {
			out[j] = gm.At(j, j)
		}
		return out
	}
	n := op.Cols()
	out := make([]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := MulVec(op, e)
		e[j] = 0
		var s float64
		for _, v := range col {
			s += v * v
		}
		out[j] = s
	}
	return out
}

// OperatorColNormsL1 returns the L1 column norms of an operator, via the
// ColNormsL1er shortcut or by probing columns.
func OperatorColNormsL1(op Operator) []float64 {
	if m, ok := op.(*Matrix); ok {
		return m.ColNormsL1()
	}
	if c, ok := op.(ColNormsL1er); ok {
		return c.ColNormsL1()
	}
	n := op.Cols()
	out := make([]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := MulVec(op, e)
		e[j] = 0
		var s float64
		for _, v := range col {
			s += abs64(v)
		}
		out[j] = s
	}
	return out
}

// MaxColNorm2Op returns the L2 sensitivity ‖A‖₂ of an operator.
func MaxColNorm2Op(op Operator) float64 {
	var best float64
	for _, s := range OperatorColNorms2(op) {
		if s > best {
			best = s
		}
	}
	return sqrtNonNeg(best)
}

// MaxColNormL1Op returns the L1 sensitivity ‖A‖₁ of an operator.
func MaxColNormL1Op(op Operator) float64 {
	var best float64
	for _, v := range OperatorColNormsL1(op) {
		if v > best {
			best = v
		}
	}
	return best
}

func checkMulVecLen(op Operator, got, want int, transposed bool) {
	if got != want {
		dir := "MulVec"
		if transposed {
			dir = "MulVecT"
		}
		panic(fmt.Sprintf("linalg: %s length %d, want %d (%dx%d operator)", dir, got, want, op.Rows(), op.Cols()))
	}
}

// --- Identity ---

// IdentityOp is the n×n identity as an O(1)-memory operator.
type IdentityOp struct{ n int }

// Eye returns the n×n identity operator.
func Eye(n int) *IdentityOp { return &IdentityOp{n: n} }

// Rows returns n.
func (o *IdentityOp) Rows() int { return o.n }

// Cols returns n.
func (o *IdentityOp) Cols() int { return o.n }

// Gram returns the identity matrix.
func (o *IdentityOp) Gram() *Matrix { return Identity(o.n) }

// ColNorms2 returns all ones.
func (o *IdentityOp) ColNorms2() []float64 { return onesVec(o.n) }

// ColNormsL1 returns all ones.
func (o *IdentityOp) ColNormsL1() []float64 { return onesVec(o.n) }

// --- Prefix ---

// PrefixOp is the n×n lower-triangular all-ones matrix: query i sums cells
// 0..i (the CDF workload). Matvecs are O(n) running sums.
type PrefixOp struct{ n int }

// NewPrefixOp returns the n-cell prefix-sum (CDF) operator.
func NewPrefixOp(n int) *PrefixOp { return &PrefixOp{n: n} }

// Rows returns n.
func (o *PrefixOp) Rows() int { return o.n }

// Cols returns n.
func (o *PrefixOp) Cols() int { return o.n }

// Gram returns the analytic Gram matrix: G_ij = n − max(i,j).
func (o *PrefixOp) Gram() *Matrix {
	g := New(o.n, o.n)
	for i := 0; i < o.n; i++ {
		row := g.Row(i)
		for j := range row {
			m := i
			if j > m {
				m = j
			}
			row[j] = float64(o.n - m)
		}
	}
	return g
}

// ColNorms2 returns n−j for column j.
func (o *PrefixOp) ColNorms2() []float64 {
	out := make([]float64, o.n)
	for j := range out {
		out[j] = float64(o.n - j)
	}
	return out
}

// ColNormsL1 equals ColNorms2 for a 0/1 matrix.
func (o *PrefixOp) ColNormsL1() []float64 { return o.ColNorms2() }

// --- Intervals (1-D all-range) ---

// IntervalsOp is the d(d+1)/2 × d matrix of all contiguous interval sums
// [lo,hi] over d cells, rows ordered lo-major then hi ascending (matching
// the explicit all-range construction). Matvecs run in O(rows) via prefix
// sums and difference arrays — the full matrix, with O(d³) nonzeros, is
// never formed.
type IntervalsOp struct{ d int }

// NewIntervalsOp returns the 1-D all-range operator over d cells.
func NewIntervalsOp(d int) *IntervalsOp { return &IntervalsOp{d: d} }

// Rows returns d(d+1)/2.
func (o *IntervalsOp) Rows() int { return o.d * (o.d + 1) / 2 }

// Cols returns d.
func (o *IntervalsOp) Cols() int { return o.d }

// Gram returns the analytic Gram matrix: entry (i,j) counts intervals
// containing both cells, (min(i,j)+1)·(d−max(i,j)).
func (o *IntervalsOp) Gram() *Matrix {
	d := o.d
	g := New(d, d)
	for i := 0; i < d; i++ {
		row := g.Row(i)
		for j := range row {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			row[j] = float64((lo + 1) * (d - hi))
		}
	}
	return g
}

// ColNorms2 returns (j+1)(d−j): the number of intervals covering cell j.
func (o *IntervalsOp) ColNorms2() []float64 {
	out := make([]float64, o.d)
	for j := range out {
		out[j] = float64((j + 1) * (o.d - j))
	}
	return out
}

// ColNormsL1 equals ColNorms2 for a 0/1 matrix.
func (o *IntervalsOp) ColNormsL1() []float64 { return o.ColNorms2() }

// --- Structural combinators ---

// StackOp is the vertical concatenation of operators over the same column
// space.
type StackOp struct {
	parts []Operator
	rows  int
	cols  int
}

// StackOps stacks the rows of the given operators, in order. All parts must
// share the same Cols. A single part is returned unchanged.
func StackOps(parts ...Operator) Operator {
	if len(parts) == 0 {
		panic("linalg: StackOps of nothing")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	cols := parts[0].Cols()
	rows := 0
	for _, p := range parts {
		if p.Cols() != cols {
			panic(fmt.Sprintf("linalg: StackOps column mismatch %d vs %d", p.Cols(), cols))
		}
		rows += p.Rows()
	}
	return &StackOp{parts: parts, rows: rows, cols: cols}
}

// Rows returns the total row count.
func (o *StackOp) Rows() int { return o.rows }

// Cols returns the shared column count.
func (o *StackOp) Cols() int { return o.cols }

// Gram returns the sum of the parts' Gram matrices. The first part's Gram
// is cloned before accumulating: a Grammer is allowed to return a retained
// matrix, which the in-place sum must not corrupt.
func (o *StackOp) Gram() *Matrix {
	out := OperatorGram(o.parts[0]).Clone()
	for _, p := range o.parts[1:] {
		g := OperatorGram(p)
		for i, v := range g.data {
			out.data[i] += v
		}
	}
	return out
}

// ColNorms2 sums the parts' squared column norms.
func (o *StackOp) ColNorms2() []float64 {
	out := make([]float64, o.cols)
	for _, p := range o.parts {
		for j, v := range OperatorColNorms2(p) {
			out[j] += v
		}
	}
	return out
}

// ColNormsL1 sums the parts' L1 column norms.
func (o *StackOp) ColNormsL1() []float64 {
	out := make([]float64, o.cols)
	for _, p := range o.parts {
		for j, v := range OperatorColNormsL1(p) {
			out[j] += v
		}
	}
	return out
}

// ScaledOp is s·A for a scalar s.
type ScaledOp struct {
	base Operator
	s    float64
}

// ScaleOp returns the operator s·A.
func ScaleOp(base Operator, s float64) *ScaledOp { return &ScaledOp{base: base, s: s} }

// Rows returns the base row count.
func (o *ScaledOp) Rows() int { return o.base.Rows() }

// Cols returns the base column count.
func (o *ScaledOp) Cols() int { return o.base.Cols() }

// Gram returns s²·(AᵀA).
func (o *ScaledOp) Gram() *Matrix { return OperatorGram(o.base).Scale(o.s * o.s) }

// ColNorms2 returns s²·colnorms²(A). The base's slice may be a retained
// cache (NormedOp), so scale a copy.
func (o *ScaledOp) ColNorms2() []float64 {
	return scaleVec(append([]float64(nil), OperatorColNorms2(o.base)...), o.s*o.s)
}

// ColNormsL1 returns |s|·colnormsL1(A), scaling a copy like ColNorms2.
func (o *ScaledOp) ColNormsL1() []float64 {
	return scaleVec(append([]float64(nil), OperatorColNormsL1(o.base)...), abs64(o.s))
}

// RowScaledOp is diag(scale)·A: row i of the base operator multiplied by
// scale[i]. It is how weighted strategies Λ·Q are represented without
// materializing the product.
type RowScaledOp struct {
	base  Operator
	scale []float64
}

// ScaleRows returns diag(scale)·A. len(scale) must equal A.Rows().
func ScaleRows(base Operator, scale []float64) *RowScaledOp {
	if len(scale) != base.Rows() {
		panic(fmt.Sprintf("linalg: ScaleRows length %d for %d rows", len(scale), base.Rows()))
	}
	return &RowScaledOp{base: base, scale: scale}
}

// Rows returns the base row count.
func (o *RowScaledOp) Rows() int { return o.base.Rows() }

// Cols returns the base column count.
func (o *RowScaledOp) Cols() int { return o.base.Cols() }

// RowPermutedOp selects (and reorders) rows of a base operator: row i of
// the result is row perm[i] of the base. perm may be shorter than the base
// row count (a row subset).
type RowPermutedOp struct {
	base Operator
	perm []int
}

// PermuteRows returns the operator whose i-th row is base row perm[i].
func PermuteRows(base Operator, perm []int) *RowPermutedOp {
	for _, p := range perm {
		if p < 0 || p >= base.Rows() {
			panic(fmt.Sprintf("linalg: PermuteRows index %d out of %d rows", p, base.Rows()))
		}
	}
	return &RowPermutedOp{base: base, perm: perm}
}

// Rows returns len(perm).
func (o *RowPermutedOp) Rows() int { return len(o.perm) }

// Cols returns the base column count.
func (o *RowPermutedOp) Cols() int { return o.base.Cols() }

// NormedOp wraps an operator with precomputed column norms, letting
// assembled strategies (whose norms are known from the weighting program)
// skip the generic probing fallback.
type NormedOp struct {
	Operator
	cn2 []float64
	cn1 []float64
}

// WithColNorms attaches known column norms to an operator. Either slice
// may be nil to leave that norm to the generic helpers.
func WithColNorms(op Operator, colNorms2, colNormsL1 []float64) *NormedOp {
	return &NormedOp{Operator: op, cn2: colNorms2, cn1: colNormsL1}
}

// ColNorms2 returns the attached squared column norms (or probes). A copy
// is returned so callers cannot corrupt the cache.
func (o *NormedOp) ColNorms2() []float64 {
	if o.cn2 != nil {
		return append([]float64(nil), o.cn2...)
	}
	return OperatorColNorms2(o.Operator)
}

// ColNormsL1 returns a copy of the attached L1 column norms (or probes).
func (o *NormedOp) ColNormsL1() []float64 {
	if o.cn1 != nil {
		return append([]float64(nil), o.cn1...)
	}
	return OperatorColNormsL1(o.Operator)
}

// Gram delegates to the wrapped operator.
func (o *NormedOp) Gram() *Matrix { return OperatorGram(o.Operator) }

func onesVec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func scaleVec(v []float64, s float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
