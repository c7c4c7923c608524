package linalg

import "fmt"

// Sparse is a compressed sparse row (CSR) matrix implementing Operator.
// It is the right representation for strategies with few nonzeros per row
// — hierarchical/tree strategies, diagonal completion rows — where the
// dense form would waste O(rows·cols) memory for O(nnz) information.
type Sparse struct {
	rows, cols int
	rowPtr     []int // len rows+1; row i spans [rowPtr[i], rowPtr[i+1])
	colIdx     []int
	val        []float64
}

// SparseBuilder accumulates CSR rows in order.
type SparseBuilder struct {
	cols   int
	rowPtr []int
	colIdx []int
	val    []float64
}

// NewSparseBuilder returns a builder for a CSR matrix with the given
// column count.
func NewSparseBuilder(cols int) *SparseBuilder {
	return &SparseBuilder{cols: cols, rowPtr: []int{0}}
}

// AppendRow adds one row given parallel slices of column indices and
// values. Indices must be in range; they need not be sorted.
func (b *SparseBuilder) AppendRow(cols []int, vals []float64) {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("linalg: AppendRow %d indices, %d values", len(cols), len(vals)))
	}
	for _, c := range cols {
		if c < 0 || c >= b.cols {
			panic(fmt.Sprintf("linalg: AppendRow column %d out of %d", c, b.cols))
		}
	}
	b.colIdx = append(b.colIdx, cols...)
	b.val = append(b.val, vals...)
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// AppendConstRow adds one row whose listed columns all hold the same value.
func (b *SparseBuilder) AppendConstRow(cols []int, v float64) {
	for _, c := range cols {
		if c < 0 || c >= b.cols {
			panic(fmt.Sprintf("linalg: AppendConstRow column %d out of %d", c, b.cols))
		}
		b.colIdx = append(b.colIdx, c)
		b.val = append(b.val, v)
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// AppendRangeRow adds one row with value v on the contiguous columns
// [lo, hi] — the shape of range-query and tree-node rows.
func (b *SparseBuilder) AppendRangeRow(lo, hi int, v float64) {
	if lo < 0 || hi >= b.cols || lo > hi {
		panic(fmt.Sprintf("linalg: AppendRangeRow [%d,%d] out of %d columns", lo, hi, b.cols))
	}
	for c := lo; c <= hi; c++ {
		b.colIdx = append(b.colIdx, c)
		b.val = append(b.val, v)
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// Build finalizes the CSR matrix.
func (b *SparseBuilder) Build() *Sparse {
	return &Sparse{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		rowPtr: b.rowPtr,
		colIdx: b.colIdx,
		val:    b.val,
	}
}

// SparseFromMatrix converts a dense matrix to CSR, dropping zeros.
func SparseFromMatrix(m *Matrix) *Sparse {
	b := NewSparseBuilder(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		var cols []int
		var vals []float64
		for j, v := range row {
			if v != 0 {
				cols = append(cols, j)
				vals = append(vals, v)
			}
		}
		b.AppendRow(cols, vals)
	}
	return b.Build()
}

// SparseDiag returns the CSR matrix with the given rows: for each (col,
// value) pair one row holding value at column col. It is the completion
// row block of Program 2 in sparse form.
func SparseDiag(cols int, idx []int, vals []float64) *Sparse {
	b := NewSparseBuilder(cols)
	for k, j := range idx {
		b.AppendRow([]int{j}, []float64{vals[k]})
	}
	return b.Build()
}

// Rows returns the row count.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the column count.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.val) }

// Gram returns the dense AᵀA accumulated row by row in O(Σ nnz(row)²).
func (s *Sparse) Gram() *Matrix {
	out := New(s.cols, s.cols)
	for i := 0; i < s.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		for a := lo; a < hi; a++ {
			ca, va := s.colIdx[a], s.val[a]
			orow := out.Row(ca)
			for b := lo; b < hi; b++ {
				orow[s.colIdx[b]] += va * s.val[b]
			}
		}
	}
	return out
}

// ColNorms2 returns the squared L2 column norms.
func (s *Sparse) ColNorms2() []float64 {
	out := make([]float64, s.cols)
	for k, v := range s.val {
		out[s.colIdx[k]] += v * v
	}
	return out
}

// ColNormsL1 returns the L1 column norms.
func (s *Sparse) ColNormsL1() []float64 {
	out := make([]float64, s.cols)
	for k, v := range s.val {
		out[s.colIdx[k]] += abs64(v)
	}
	return out
}
