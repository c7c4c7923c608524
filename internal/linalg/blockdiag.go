// Block-diagonal and composed operators: the combinators the sharded
// planner uses to stitch per-shard strategies into one composite strategy
// without materializing anything. BlockDiag is the direct sum A₁ ⊕ … ⊕ Aₖ
// (each part owns its own slice of the input and output); ComposeOps is
// the product A·B presented through matvecs. A sharded strategy is
// ComposeOps(BlockDiag(shard strategies...), StackOps(shard
// projections...)): project the histogram onto each shard's sub-domain,
// then measure each sub-domain with its own strategy.

package linalg

import "fmt"

// BlockDiagOp is the direct sum of operators: a block-diagonal operator
// whose i-th block maps the i-th slice of the input to the i-th slice of
// the output. Rows and Cols are the sums of the parts'.
type BlockDiagOp struct {
	parts []Operator
	rows  int
	cols  int
}

// BlockDiag returns the direct sum of the given operators. A single part
// is returned unchanged.
func BlockDiag(parts ...Operator) Operator {
	if len(parts) == 0 {
		panic("linalg: BlockDiag of nothing")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	var rows, cols int
	for _, p := range parts {
		rows += p.Rows()
		cols += p.Cols()
	}
	return &BlockDiagOp{parts: parts, rows: rows, cols: cols}
}

// Parts returns the diagonal blocks in order.
func (o *BlockDiagOp) Parts() []Operator { return o.parts }

// Rows returns the total output dimension.
func (o *BlockDiagOp) Rows() int { return o.rows }

// Cols returns the total input dimension.
func (o *BlockDiagOp) Cols() int { return o.cols }

// Gram returns the dense block-diagonal Gram matrix assembled from the
// parts' Grams. Only call when cols² is affordable.
func (o *BlockDiagOp) Gram() *Matrix {
	out := New(o.cols, o.cols)
	at := 0
	for _, p := range o.parts {
		g := OperatorGram(p)
		n := p.Cols()
		for i := 0; i < n; i++ {
			copy(out.Row(at + i)[at:at+n], g.Row(i))
		}
		at += n
	}
	return out
}

// ColNorms2 concatenates the parts' squared column norms.
func (o *BlockDiagOp) ColNorms2() []float64 {
	out := make([]float64, 0, o.cols)
	for _, p := range o.parts {
		out = append(out, OperatorColNorms2(p)...)
	}
	return out
}

// ColNormsL1 concatenates the parts' L1 column norms.
func (o *BlockDiagOp) ColNormsL1() []float64 {
	out := make([]float64, 0, o.cols)
	for _, p := range o.parts {
		out = append(out, OperatorColNormsL1(p)...)
	}
	return out
}

// ComposedOp is the product outer·inner, applied as two matvecs.
type ComposedOp struct {
	outer Operator
	inner Operator
}

// ComposeOps returns the operator outer·inner (first apply inner, then
// outer). The dimensions must chain: outer.Cols() == inner.Rows().
func ComposeOps(outer, inner Operator) *ComposedOp {
	if outer.Cols() != inner.Rows() {
		panic(fmt.Sprintf("linalg: ComposeOps dimension mismatch: outer is %dx%d, inner %dx%d",
			outer.Rows(), outer.Cols(), inner.Rows(), inner.Cols()))
	}
	return &ComposedOp{outer: outer, inner: inner}
}

// Rows returns the outer operator's row count.
func (o *ComposedOp) Rows() int { return o.outer.Rows() }

// Cols returns the inner operator's column count.
func (o *ComposedOp) Cols() int { return o.inner.Cols() }
