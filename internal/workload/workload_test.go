package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
)

func TestIdentityWorkload(t *testing.T) {
	w := Identity(domain.MustShape(2, 3))
	if w.NumQueries() != 6 || w.Cells() != 6 {
		t.Fatalf("m=%d n=%d", w.NumQueries(), w.Cells())
	}
	if !w.Matrix().Equal(linalg.Identity(6), 0) {
		t.Fatal("identity workload wrong")
	}
	if w.SensitivityL2() != 1 {
		t.Fatalf("sensitivity = %g", w.SensitivityL2())
	}
}

func TestFig1Workload(t *testing.T) {
	w := Fig1()
	if w.NumQueries() != 8 || w.Cells() != 8 {
		t.Fatalf("Fig1 m=%d n=%d", w.NumQueries(), w.Cells())
	}
	// Paper: ‖W‖₂ = √5.
	if math.Abs(w.SensitivityL2()-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("Fig1 sensitivity = %g, want √5", w.SensitivityL2())
	}
	// q3 = q1 - q2.
	m := w.Matrix()
	for j := 0; j < 8; j++ {
		if m.At(2, j) != m.At(0, j)-m.At(1, j) {
			t.Fatal("q3 != q1 - q2 in Fig1")
		}
	}
}

func TestAllRangeSmallExplicit(t *testing.T) {
	w := AllRange(domain.MustShape(4))
	if !w.Explicit() {
		t.Fatal("small all-range should be explicit")
	}
	if w.NumQueries() != 10 {
		t.Fatalf("m = %d, want 10", w.NumQueries())
	}
	// Every row is a contiguous block of ones.
	m := w.Matrix()
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		first, last, count := -1, -1, 0
		for j, v := range row {
			if v == 1 {
				if first < 0 {
					first = j
				}
				last = j
				count++
			} else if v != 0 {
				t.Fatalf("non-0/1 entry %g", v)
			}
		}
		if count != last-first+1 {
			t.Fatalf("row %d is not contiguous: %v", i, row)
		}
	}
}

func TestAllRangeGramMatchesExplicit(t *testing.T) {
	// The analytic Gram must equal the explicit one.
	for _, dims := range [][]int{{5}, {7}, {3, 4}, {2, 3, 2}} {
		shape := domain.MustShape(dims...)
		w := AllRange(shape)
		explicit := allRangeMatrix(shape).Gram()
		grams := make([]*linalg.Matrix, len(shape))
		for i, d := range shape {
			grams[i] = allRangeGram1D(d)
		}
		analytic := linalg.KroneckerAll(grams...)
		if !explicit.Equal(analytic, 1e-9) {
			t.Fatalf("analytic all-range gram mismatch for %v", shape)
		}
		if !w.Gram().Equal(analytic, 1e-9) {
			t.Fatalf("workload gram mismatch for %v", shape)
		}
	}
}

func TestAllRangeLargeImplicit(t *testing.T) {
	shape := domain.MustShape(256)
	w := AllRange(shape)
	if w.NumQueries() != 256*257/2 {
		t.Fatalf("m = %d", w.NumQueries())
	}
	if w.Explicit() && w.NumQueries()*w.Cells() > maxExplicitEntries {
		t.Fatal("should be implicit")
	}
	// Sensitivity of 1-D all-range: middle cell is in (i+1)(n-i) ranges.
	maxCover := 0.0
	for i := 0; i < 256; i++ {
		c := float64((i + 1) * (256 - i))
		if c > maxCover {
			maxCover = c
		}
	}
	if math.Abs(w.SensitivityL2()-math.Sqrt(maxCover)) > 1e-9 {
		t.Fatalf("sensitivity = %g, want %g", w.SensitivityL2(), math.Sqrt(maxCover))
	}
}

func TestMatrixPanicsForImplicit(t *testing.T) {
	w := AllRange(domain.MustShape(512))
	if w.Explicit() {
		t.Skip("unexpectedly explicit")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Matrix() on implicit workload did not panic")
		}
	}()
	w.Matrix()
}

func TestRandomRangeRows(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shape := domain.MustShape(8, 8)
	w := RandomRange(shape, 50, r)
	if w.NumQueries() != 50 {
		t.Fatalf("m = %d", w.NumQueries())
	}
	m := w.Matrix()
	for i := 0; i < m.Rows(); i++ {
		// Each row must be the indicator of a non-empty box: verify row sums
		// factor as a product of two interval lengths ≤ 8.
		var sum float64
		for _, v := range m.Row(i) {
			if v != 0 && v != 1 {
				t.Fatalf("non-indicator entry %g", v)
			}
			sum += v
		}
		if sum < 1 || sum > 64 {
			t.Fatalf("row %d covers %g cells", i, sum)
		}
	}
}

func TestRandomRangeDeterministicWithSeed(t *testing.T) {
	shape := domain.MustShape(16)
	a := RandomRange(shape, 20, rand.New(rand.NewSource(7)))
	b := RandomRange(shape, 20, rand.New(rand.NewSource(7)))
	if !a.Matrix().Equal(b.Matrix(), 0) {
		t.Fatal("same seed produced different workloads")
	}
}

func TestPrefixWorkload(t *testing.T) {
	w := Prefix(5)
	m := w.Matrix()
	if m.Rows() != 5 {
		t.Fatalf("rows = %d", m.Rows())
	}
	// Lower-triangular ones.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if j <= i {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Prefix(%d,%d) = %g", i, j, m.At(i, j))
			}
		}
	}
	// First column is in all n queries: sensitivity = sqrt(n).
	if math.Abs(w.SensitivityL2()-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("CDF sensitivity = %g", w.SensitivityL2())
	}
}

func TestPredicateWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	w := Predicate(domain.MustShape(32), 100, r)
	if w.NumQueries() != 100 {
		t.Fatalf("m = %d", w.NumQueries())
	}
	ones := 0
	m := w.Matrix()
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatalf("non-0/1 entry %g", v)
			}
		}
	}
	// Should be near half the entries.
	frac := float64(ones) / float64(100*32)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("ones fraction = %g", frac)
	}
}

func TestTotalWorkload(t *testing.T) {
	w := Total(domain.MustShape(3, 3))
	if w.NumQueries() != 1 {
		t.Fatalf("m = %d", w.NumQueries())
	}
	for _, v := range w.Matrix().Row(0) {
		if v != 1 {
			t.Fatal("total query must be all ones")
		}
	}
}

func TestMarginalMatrixShapes(t *testing.T) {
	shape := domain.MustShape(2, 3, 4)
	cases := []struct {
		attrs []int
		rows  int
	}{
		{nil, 1},
		{[]int{0}, 2},
		{[]int{1}, 3},
		{[]int{2}, 4},
		{[]int{0, 2}, 8},
		{[]int{0, 1, 2}, 24},
	}
	for _, c := range cases {
		m := MarginalMatrix(shape, c.attrs)
		if m.Rows() != c.rows || m.Cols() != 24 {
			t.Fatalf("marginal %v: %dx%d, want %dx24", c.attrs, m.Rows(), m.Cols(), c.rows)
		}
		// Each column must have exactly one 1 per marginal (cells partition).
		for j := 0; j < m.Cols(); j++ {
			var sum float64
			for i := 0; i < m.Rows(); i++ {
				sum += m.At(i, j)
			}
			if sum != 1 {
				t.Fatalf("marginal %v column %d sums to %g", c.attrs, j, sum)
			}
		}
	}
}

func TestMarginalsWorkload(t *testing.T) {
	shape := domain.MustShape(2, 3, 4)
	w := Marginals(shape, 2)
	// C(3,2)=3 subsets with 6+8+12 rows.
	if w.NumQueries() != 6+8+12 {
		t.Fatalf("m = %d, want 26", w.NumQueries())
	}
	// Each tuple lands in one cell per marginal: sensitivity = sqrt(#subsets).
	if math.Abs(w.SensitivityL2()-math.Sqrt(3)) > 1e-12 {
		t.Fatalf("sensitivity = %g, want √3", w.SensitivityL2())
	}
}

func TestRangeMarginalsWorkload(t *testing.T) {
	shape := domain.MustShape(3, 4)
	w := RangeMarginals(shape, 1)
	// 1-way range marginals: 6 ranges on dim0 + 10 on dim1.
	if w.NumQueries() != 16 {
		t.Fatalf("m = %d, want 16", w.NumQueries())
	}
}

func TestAllMarginalsWorkload(t *testing.T) {
	shape := domain.MustShape(2, 2)
	w := AllMarginals(shape)
	// k=0: 1 row; k=1: 2+2; k=2: 4 → 9 rows.
	if w.NumQueries() != 9 {
		t.Fatalf("m = %d, want 9", w.NumQueries())
	}
}

func TestRandomMarginals(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	shape := domain.MustShape(2, 3, 2)
	w, subsets := RandomMarginals(shape, 5, r)
	if len(subsets) != 5 {
		t.Fatalf("subsets = %d", len(subsets))
	}
	rows := 0
	for _, s := range subsets {
		if len(s) == 0 {
			t.Fatal("empty subset sampled")
		}
		n := 1
		for _, a := range s {
			n *= shape[a]
		}
		rows += n
	}
	if w.NumQueries() != rows {
		t.Fatalf("m = %d, want %d", w.NumQueries(), rows)
	}
}

func TestRandomRangeMarginals(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	w := RandomRangeMarginals(domain.MustShape(3, 3), 4, r)
	if w.NumQueries() == 0 {
		t.Fatal("empty workload")
	}
}

func TestSubsetsOfSize(t *testing.T) {
	got := subsetsOfSize(4, 2)
	if len(got) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(got))
	}
	if len(subsetsOfSize(3, 0)) != 1 {
		t.Fatal("C(3,0) != 1")
	}
	if subsetsOfSize(3, 4) != nil {
		t.Fatal("C(3,4) should be empty")
	}
	if subsetsOfSize(3, -1) != nil {
		t.Fatal("negative k should be empty")
	}
}

func TestPermuteCellsExplicit(t *testing.T) {
	w := Fig1()
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	p := w.PermuteCells(perm, "reversed")
	// Gram of permuted equals permuted Gram.
	g := w.Gram()
	pg := p.Gram()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(pg.At(i, j)-g.At(perm[i], perm[j])) > 1e-12 {
				t.Fatal("permuted gram mismatch")
			}
		}
	}
	// Sensitivity is permutation invariant.
	if math.Abs(p.SensitivityL2()-w.SensitivityL2()) > 1e-12 {
		t.Fatal("sensitivity changed under permutation")
	}
}

func TestPermuteCellsImplicit(t *testing.T) {
	w := AllRange(domain.MustShape(300))
	r := rand.New(rand.NewSource(5))
	perm := randPerm(r, 300)
	p := w.PermuteCells(perm, "permuted range")
	if math.Abs(p.SensitivityL2()-w.SensitivityL2()) > 1e-9 {
		t.Fatal("sensitivity changed under permutation (implicit)")
	}
	// Gram trace invariant.
	if math.Abs(p.Gram().Trace()-w.Gram().Trace()) > 1e-6 {
		t.Fatal("gram trace changed under permutation")
	}
}

func TestNormalizeRows(t *testing.T) {
	w := Fig1().NormalizeRows()
	m := w.Matrix()
	for i := 0; i < m.Rows(); i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v * v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d norm² = %g", i, s)
		}
	}
}

func TestNormalizeRowsZeroRow(t *testing.T) {
	m := linalg.New(2, 3)
	m.Set(0, 0, 2)
	w := FromMatrix("z", domain.MustShape(3), m).NormalizeRows()
	if w.Matrix().At(0, 0) != 1 {
		t.Fatal("nonzero row not normalized")
	}
	for _, v := range w.Matrix().Row(1) {
		if v != 0 {
			t.Fatal("zero row modified")
		}
	}
}

func TestUnion(t *testing.T) {
	shape := domain.MustShape(4)
	u := Union("u", Identity(shape), Total(shape))
	if u.NumQueries() != 5 {
		t.Fatalf("m = %d, want 5", u.NumQueries())
	}
}

func TestScale(t *testing.T) {
	w := Fig1()
	s := w.Scale(2)
	if math.Abs(s.SensitivityL2()-2*w.SensitivityL2()) > 1e-12 {
		t.Fatal("Scale did not scale sensitivity")
	}
	// Implicit path.
	iw := AllRange(domain.MustShape(300)).Scale(3)
	if math.Abs(iw.SensitivityL2()-3*AllRange(domain.MustShape(300)).SensitivityL2()) > 1e-9 {
		t.Fatal("implicit Scale wrong")
	}
}

func TestGramIsPSD(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := RandomRange(domain.MustShape(6, 4), 10+r.Intn(20), r)
		g := w.Gram()
		// xᵀGx ≥ 0 for random x.
		x := make([]float64, g.Cols())
		for i := range x {
			x[i] = r.NormFloat64()
		}
		gx := linalg.MulVec(g, x)
		var q float64
		for i := range x {
			q += x[i] * gx[i]
		}
		return q >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromMatrixPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromMatrix("bad", domain.MustShape(4), linalg.New(2, 5))
}

// Marginal-subset metadata: set by the marginal builders, preserved by
// unions of marginal sets over one shape, and dropped both for non-
// marginal operands and for equal-cell-count unions over a different
// shape (whose subsets would index the wrong dimensions).
func TestMarginalSubsetsMetadata(t *testing.T) {
	shape := domain.MustShape(4, 4)
	m1 := Marginals(shape, 1)
	if subs, ok := m1.MarginalSubsets(); !ok || len(subs) != 2 {
		t.Fatalf("Marginals metadata = %v, %v", subs, ok)
	}
	u := Union("both", Marginals(shape, 1), Marginals(shape, 2))
	if subs, ok := u.MarginalSubsets(); !ok || len(subs) != 3 {
		t.Fatalf("union metadata = %v, %v", subs, ok)
	}
	if _, ok := Union("mixed", Marginals(shape, 1), AllRange(shape)).MarginalSubsets(); ok {
		t.Fatal("union with a non-marginal operand kept marginal metadata")
	}
	// 2x8 has the same cell count as 4x4, so Union admits it — but its
	// attribute-0 marginal is not a marginal of the 4x4 domain.
	reshaped := Marginals(domain.MustShape(2, 8), 1)
	if _, ok := Union("reshaped", m1, reshaped).MarginalSubsets(); ok {
		t.Fatal("union across shapes kept marginal metadata")
	}
}

// The three answer spellings — MulQueries, MulQueriesInto and
// MulQueriesRangeInto reassembled over chunks — return the same bits, so
// the classic, scratch and streamed release paths of one estimate agree.
func TestAnswerSpellingsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dense := linalg.New(9, 7)
	for i := range dense.Data() {
		dense.Data()[i] = r.NormFloat64()
	}
	for _, w := range []*Workload{
		AllRange(domain.MustShape(24)),
		FromMatrix("dense", domain.MustShape(7), dense),
	} {
		x := make([]float64, w.Cells())
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		rows := w.NumQueries()
		want := w.MulQueries(x)
		got := w.MulQueriesInto(make([]float64, rows), x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: MulQueriesInto[%d] = %v, MulQueries %v", w.Name(), i, got[i], want[i])
			}
		}
		for _, chunk := range []int{1, 7, rows} {
			buf := make([]float64, chunk)
			for lo := 0; lo < rows; lo += chunk {
				hi := min(lo+chunk, rows)
				w.MulQueriesRangeInto(buf, x, lo, hi)
				for i, v := range buf[:hi-lo] {
					if math.Float64bits(v) != math.Float64bits(want[lo+i]) {
						t.Fatalf("%s chunk %d: row %d = %v, MulQueries %v", w.Name(), chunk, lo+i, v, want[lo+i])
					}
				}
			}
		}
	}
}
