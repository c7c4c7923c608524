// The package's matvec spellings and the transpose kernels.
//
// Every representation implements two kernels: MulVecRangeInto (rows of
// A·x, see rowrange.go) and MulVecTInto (Aᵀ·y, below). Callers go
// through the functions here. MulVecInto is the range kernel over
// [0, Rows()); MulVec and MulVecT allocate the destination and call the
// same kernels, so the allocating and the buffer-first paths of one
// product agree bit for bit.
//
// dst must not alias x (or y): kernels overwrite dst freely, including
// zeroing it before accumulation.

package linalg

// MulVec returns op·x in a freshly allocated slice.
func MulVec(op Operator, x []float64) []float64 {
	return MulVecInto(op, make([]float64, op.Rows()), x)
}

// MulVecT returns opᵀ·y in a freshly allocated slice.
func MulVecT(op Operator, y []float64) []float64 {
	return MulVecTInto(op, make([]float64, op.Cols()), y)
}

// MulVecInto writes op·x into dst (length Rows()) and returns dst.
func MulVecInto(op Operator, dst, x []float64) []float64 {
	checkMulVecLen(op, len(dst), op.Rows(), false)
	op.MulVecRangeInto(dst, x, 0, op.Rows())
	return dst
}

// MulVecTInto writes opᵀ·y into dst (length Cols()) and returns dst.
func MulVecTInto(op Operator, dst, y []float64) []float64 {
	checkMulVecLen(op, len(dst), op.Cols(), true)
	op.MulVecTInto(dst, y)
	return dst
}

// --- Sparse ---

// MulVecTInto writes Aᵀ·y into dst in O(nnz) without allocating.
func (s *Sparse) MulVecTInto(dst, y []float64) {
	checkMulVecLen(s, len(y), s.rows, true)
	checkMulVecLen(s, len(dst), s.cols, true)
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.rows; i++ {
		v := y[i]
		if v == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			dst[s.colIdx[k]] += v * s.val[k]
		}
	}
}

// --- Identity ---

// MulVecTInto copies y into dst.
func (o *IdentityOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.n, true)
	checkMulVecLen(o, len(dst), o.n, true)
	copy(dst, y)
}

// --- Prefix ---

// MulVecTInto writes the reverse running sums of y into dst: cell j is
// counted by queries j..n-1.
func (o *PrefixOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.n, true)
	checkMulVecLen(o, len(dst), o.n, true)
	var s float64
	for j := o.n - 1; j >= 0; j-- {
		s += y[j]
		dst[j] = s
	}
}

// --- Intervals ---

// MulVecTInto scatters each interval weight onto its cells via a
// difference array kept inside dst itself: the d+1-th difference cell is
// never read by the prefix pass, so dst[0:d] suffices, and the prefix pass
// reads each dst[j] before overwriting it.
func (o *IntervalsOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.Rows(), true)
	checkMulVecLen(o, len(dst), o.d, true)
	for j := range dst {
		dst[j] = 0
	}
	r := 0
	for lo := 0; lo < o.d; lo++ {
		for hi := lo; hi < o.d; hi++ {
			v := y[r]
			r++
			if v == 0 {
				continue
			}
			dst[lo] += v
			if hi+1 < o.d {
				dst[hi+1] -= v
			}
		}
	}
	var s float64
	for j := 0; j < o.d; j++ {
		s += dst[j]
		dst[j] = s
	}
}

// --- Kron ---

// MulVecTInto applies the factors' transposes mode by mode: before factor
// i the working tensor has shape (n₁…nᵢ₋₁) × mᵢ × (mᵢ₊₁…m_k); factor i
// maps its middle mode from mᵢ to nᵢ. The last mode writes dst; the
// others allocate their working tensor.
func (o *KronOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.rows, true)
	checkMulVecLen(o, len(dst), o.cols, true)
	cur := y
	left := 1
	for fi, f := range o.factors {
		m, n := f.Rows(), f.Cols()
		right := 1
		for _, g := range o.factors[fi+1:] {
			right *= g.Rows()
		}
		next := dst
		if fi < len(o.factors)-1 {
			next = make([]float64, left*n*right)
		}
		buf := make([]float64, m)
		out := make([]float64, n)
		for l := 0; l < left; l++ {
			for r := 0; r < right; r++ {
				base := l * m * right
				for i := 0; i < m; i++ {
					buf[i] = cur[base+i*right+r]
				}
				MulVecTInto(f, out, buf)
				obase := l * n * right
				for j := 0; j < n; j++ {
					next[obase+j*right+r] = out[j]
				}
			}
		}
		cur = next
		left *= n
	}
}

// --- Structural combinators ---

// MulVecTInto accumulates the parts' transposed products. The first part
// writes dst directly; later parts go through a temporary (one allocation
// per call when there are two or more parts).
func (o *StackOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.rows, true)
	checkMulVecLen(o, len(dst), o.cols, true)
	at := 0
	var tmp []float64
	for i, p := range o.parts {
		if i == 0 {
			MulVecTInto(p, dst, y[at:at+p.Rows()])
		} else {
			if tmp == nil {
				tmp = make([]float64, o.cols)
			}
			MulVecTInto(p, tmp, y[at:at+p.Rows()])
			for j, v := range tmp {
				dst[j] += v
			}
		}
		at += p.Rows()
	}
}

// MulVecTInto applies each block's transpose into its slices of dst and y;
// allocation-free when every part is.
func (o *BlockDiagOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.rows, true)
	checkMulVecLen(o, len(dst), o.cols, true)
	atR, atC := 0, 0
	for _, p := range o.parts {
		MulVecTInto(p, dst[atC:atC+p.Cols()], y[atR:atR+p.Rows()])
		atR += p.Rows()
		atC += p.Cols()
	}
}

// MulVecTInto writes s·(Aᵀ y) into dst.
func (o *ScaledOp) MulVecTInto(dst, y []float64) {
	MulVecTInto(o.base, dst, y)
	for i := range dst {
		dst[i] *= o.s
	}
}

// MulVecTInto writes Aᵀ·(diag(scale) y) into dst; it allocates the scaled
// copy of y (the base transpose cannot see dst as its input).
func (o *RowScaledOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.Rows(), true)
	scaled := make([]float64, len(y))
	for i, v := range y {
		scaled[i] = v * o.scale[i]
	}
	MulVecTInto(o.base, dst, scaled)
}

// MulVecTInto scatters y into base row positions and applies the base
// transpose. An identity base's transpose is the scatter itself, which
// runs in dst allocation-free; other bases go through an allocated
// base-sized intermediate.
func (o *RowPermutedOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), len(o.perm), true)
	if _, ok := o.base.(*IdentityOp); ok {
		checkMulVecLen(o, len(dst), o.base.Cols(), true)
		for j := range dst {
			dst[j] = 0
		}
		for i, p := range o.perm {
			dst[p] += y[i]
		}
		return
	}
	full := make([]float64, o.base.Rows())
	for i, p := range o.perm {
		full[p] += y[i]
	}
	MulVecTInto(o.base, dst, full)
}

// MulVecTInto applies outerᵀ then innerᵀ through an allocated intermediate.
func (o *ComposedOp) MulVecTInto(dst, y []float64) {
	MulVecTInto(o.inner, dst, MulVecT(o.outer, y))
}
