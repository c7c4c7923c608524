// Row-range matvec: the forward kernel of the Operator contract.
// MulVecRangeInto answers rows [lo,hi) of A·x into a caller-supplied
// buffer, and the full forward product is just the range [0, Rows()).
// Streaming releases call it one chunk at a time, so their peak memory is
// bounded by the chunk size instead of the workload — the large
// structured workloads (all-range on 2048 cells is ~2.1M rows) are
// answerable but not materializable per release.
//
// Bit-compatibility contract: for every representation,
//
//	op.MulVecRangeInto(dst, x, lo, hi)  ==  MulVec(op, x)[lo:hi]
//
// bit for bit. Streamed and buffered releases of the same noisy estimate
// must agree exactly, so every range kernel below reproduces its own
// full-range accumulation order, including partial sums recomputed up to
// a mid-segment start.
//
// Structured analytic operators (Prefix, Intervals, Stack, BlockDiag and
// the cheap wrappers) answer a chunk allocation-free in O(chunk + setup)
// where setup is the per-call cost of locating the range (a prefix
// re-accumulation, a segment scan). Combinators that need the full
// intermediate (Kron's inner slabs, Composed's inner product, RowPermuted
// bases) allocate internally, but bounded by factor/cell dimensions — never
// by the output row count.

package linalg

import "fmt"

// MulVecRangeInto writes rows [lo,hi) of op·x into dst[:hi-lo] and
// returns dst.
func MulVecRangeInto(op Operator, dst, x []float64, lo, hi int) []float64 {
	checkRowRange(op, lo, hi, len(dst))
	op.MulVecRangeInto(dst, x, lo, hi)
	return dst
}

// checkRowRange validates a row-range request against the operator.
func checkRowRange(op Operator, lo, hi, dstLen int) {
	if lo < 0 || hi < lo || hi > op.Rows() {
		panic(fmt.Sprintf("linalg: MulVecRangeInto range [%d,%d) of %d rows", lo, hi, op.Rows()))
	}
	if dstLen < hi-lo {
		panic(fmt.Sprintf("linalg: MulVecRangeInto buffer %d for %d rows", dstLen, hi-lo))
	}
}

// --- Sparse ---

// MulVecRangeInto answers CSR rows [lo,hi) in O(nnz of the range).
func (s *Sparse) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(s, lo, hi, len(dst))
	checkMulVecLen(s, len(x), s.cols, false)
	for i := lo; i < hi; i++ {
		var acc float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			acc += s.val[k] * x[s.colIdx[k]]
		}
		dst[i-lo] = acc
	}
}

// --- Identity ---

// MulVecRangeInto copies the matching window of x.
func (o *IdentityOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.n, false)
	copy(dst, x[lo:hi])
}

// --- Prefix ---

// MulVecRangeInto re-accumulates the running sum through the skipped
// prefix x[0:lo] in the same left-to-right order as the full kernel — the
// O(lo) setup is what makes a mid-stream chunk bit-identical to the
// buffered row.
func (o *PrefixOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.n, false)
	var s float64
	for i := 0; i < lo; i++ {
		s += x[i]
	}
	for i := lo; i < hi; i++ {
		s += x[i]
		dst[i-lo] = s
	}
}

// --- Intervals ---

// MulVecRangeInto walks the lo-major interval blocks, skipping whole
// blocks before the range and re-accumulating the partial running sum of
// the first covered block in ascending-cell order, so chunk boundaries
// never change a bit.
func (o *IntervalsOp) MulVecRangeInto(dst, x []float64, rlo, rhi int) {
	checkRowRange(o, rlo, rhi, len(dst))
	checkMulVecLen(o, len(x), o.d, false)
	r := 0
	for qlo := 0; qlo < o.d && r < rhi; qlo++ {
		blockLen := o.d - qlo
		if r+blockLen <= rlo {
			r += blockLen // block entirely before the range
			continue
		}
		var s float64
		for qhi := qlo; qhi < o.d; qhi++ {
			s += x[qhi]
			if r >= rlo {
				dst[r-rlo] = s
			}
			r++
			if r >= rhi {
				return
			}
		}
	}
}

// --- Kron ---

// MulVecRangeInto answers rows [lo,hi) of the Kronecker product by
// recursing on the leading factor: the covered leading rows r₁ select
// slabs z[q] = (A₁·x[·,q])[r₁] of the first mode application, and the
// remaining factors answer their sub-range of each slab. Every factor
// product goes through the factor's own range kernel, whose windows match
// its full product bit for bit, so every chunking of a Kron product
// agrees with the full range. Internal scratch is bounded by the covered
// slab count × the trailing column product and the factor dimensions,
// never by the total row count.
func (o *KronOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.cols, false)
	kronRange(o.factors, dst, x, lo, hi)
}

// kronRange answers rows [lo,hi) of the Kronecker product of factors
// applied to x (length Π cols). It requires lo < hi.
func kronRange(factors []Operator, dst, x []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	f := factors[0]
	if len(factors) == 1 {
		f.MulVecRangeInto(dst, x, lo, hi)
		return
	}
	rest := factors[1:]
	mRest, nRest := 1, 1
	for _, g := range rest {
		mRest *= g.Rows()
		nRest *= g.Cols()
	}
	n1 := f.Cols()
	r1a, r1b := lo/mRest, (hi-1)/mRest+1
	// slabs[(r1-r1a)*nRest+q] = (A₁·x[·,q])[r1]: one factor range
	// product per trailing column, shared by every covered leading row.
	slabs := make([]float64, (r1b-r1a)*nRest)
	buf := make([]float64, n1)
	out := make([]float64, r1b-r1a)
	for q := 0; q < nRest; q++ {
		for j := 0; j < n1; j++ {
			buf[j] = x[j*nRest+q]
		}
		f.MulVecRangeInto(out, buf, r1a, r1b)
		for r1 := r1a; r1 < r1b; r1++ {
			slabs[(r1-r1a)*nRest+q] = out[r1-r1a]
		}
	}
	for r1 := r1a; r1 < r1b; r1++ {
		slabLo, slabHi := r1*mRest, (r1+1)*mRest
		a, b := slabLo, slabHi
		if lo > a {
			a = lo
		}
		if hi < b {
			b = hi
		}
		z := slabs[(r1-r1a)*nRest : (r1-r1a+1)*nRest]
		kronRange(rest, dst[a-lo:b-lo], z, a-slabLo, b-slabLo)
	}
}

// --- Structural combinators ---

// MulVecRangeInto routes the range to the overlapped parts, each
// answering its part-relative sub-range.
func (o *StackOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.cols, false)
	at := 0
	for _, p := range o.parts {
		rows := p.Rows()
		a, b := at, at+rows
		if lo > a {
			a = lo
		}
		if hi < b {
			b = hi
		}
		if a < b {
			MulVecRangeInto(p, dst[a-lo:b-lo], x, a-at, b-at)
		}
		at += rows
		if at >= hi {
			return
		}
	}
}

// MulVecRangeInto routes the range to the overlapped diagonal blocks,
// each answering its sub-range on its column slice.
func (o *BlockDiagOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.cols, false)
	atR, atC := 0, 0
	for _, p := range o.parts {
		rows, cols := p.Rows(), p.Cols()
		a, b := atR, atR+rows
		if lo > a {
			a = lo
		}
		if hi < b {
			b = hi
		}
		if a < b {
			MulVecRangeInto(p, dst[a-lo:b-lo], x[atC:atC+cols], a-atR, b-atR)
		}
		atR += rows
		atC += cols
		if atR >= hi {
			return
		}
	}
}

// MulVecRangeInto scales the base range by s.
func (o *ScaledOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	MulVecRangeInto(o.base, dst, x, lo, hi)
	for i := range dst[:hi-lo] {
		dst[i] *= o.s
	}
}

// MulVecRangeInto scales the base range by the matching scale window.
func (o *RowScaledOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	MulVecRangeInto(o.base, dst, x, lo, hi)
	for i, s := range o.scale[lo:hi] {
		dst[i] *= s
	}
}

// MulVecRangeInto gathers the selected rows of the window from the full
// base product, which it allocates (the permutation makes the range
// non-contiguous in the base). An identity base's product is a bit-exact
// copy of x, so that case gathers straight from x — row selections (shard
// projections) answer allocation-free.
func (o *RowPermutedOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	if _, ok := o.base.(*IdentityOp); ok {
		checkMulVecLen(o, len(x), o.base.Cols(), false)
		for i, p := range o.perm[lo:hi] {
			dst[i] = x[p]
		}
		return
	}
	full := MulVec(o.base, x)
	for i, p := range o.perm[lo:hi] {
		dst[i] = full[p]
	}
}

// MulVecRangeInto applies the full inner product (its rows are the
// composition's columns, bounded by cells, not output rows) and answers
// the outer range on it.
func (o *ComposedOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	MulVecRangeInto(o.outer, dst, MulVec(o.inner, x), lo, hi)
}
