// Package mat provides the dense matrix and observation-mask types used by
// the dataset generators, the evaluation code and the experiment harness.
//
// The DMFSGD algorithm itself never materializes a matrix (that is the whole
// point of the paper); matrices appear only on the experiment side, where the
// ground truth X and the weight matrix W of eq. 1 live.
//
// A Dense matrix is stored row-major in a single backing slice. NaN marks a
// missing entry, matching how the raw HP-S3 dataset is distributed (55%
// missing values); the Mask type provides the explicit wᵢⱼ ∈ {0,1} view of
// eq. 1 when needed.
package mat

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Dense is a row-major n×m matrix of float64. Missing entries are NaN.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols matrix of zeros.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps existing data (length must equal rows*cols) without
// copying. The caller must not alias the slice afterwards.
func NewDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// NewMissing allocates a rows×cols matrix with every entry missing (NaN).
func NewMissing(rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = math.NaN()
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the entry at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// SetMissing marks (i, j) as a missing observation.
func (m *Dense) SetMissing(i, j int) { m.Set(i, j, math.NaN()) }

// IsMissing reports whether (i, j) holds no observation.
func (m *Dense) IsMissing(i, j int) bool { return math.IsNaN(m.At(i, j)) }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice (row-major). Mutating it mutates the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Apply replaces every present (non-missing) entry with f(i, j, v).
func (m *Dense) Apply(f func(i, j int, v float64) float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if !math.IsNaN(v) {
				row[j] = f(i, j, v)
			}
		}
	}
}

// Present returns all present (non-missing, finite) values in row-major
// order. Diagonal entries are included; callers who need off-diagonal values
// only should use PresentOffDiag.
func (m *Dense) Present() []float64 {
	out := make([]float64, 0, len(m.data))
	for _, v := range m.data {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// PresentOffDiag returns present values excluding the diagonal. Performance
// matrices have empty diagonals (a node does not probe itself, Fig. 2), so
// dataset statistics such as the classification threshold τ are computed
// over these values.
func (m *Dense) PresentOffDiag() []float64 {
	out := make([]float64, 0, len(m.data))
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if i != j && !math.IsNaN(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// MissingFraction returns the fraction of off-diagonal entries that are
// missing.
func (m *Dense) MissingFraction() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	var missing, total int
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if i == j {
				continue
			}
			total++
			if math.IsNaN(v) {
				missing++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(missing) / float64(total)
}

// Symmetrize sets every entry to the average of itself and its transpose
// partner, propagating present values over missing ones. RTT matrices are
// treated as symmetric (§3.1.1).
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic("mat: Symmetrize requires a square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			a, b := m.At(i, j), m.At(j, i)
			switch {
			case math.IsNaN(a) && math.IsNaN(b):
				// both missing: leave as is
			case math.IsNaN(a):
				m.Set(i, j, b)
			case math.IsNaN(b):
				m.Set(j, i, a)
			default:
				avg := (a + b) / 2
				m.Set(i, j, avg)
				m.Set(j, i, avg)
			}
		}
	}
}

// MaxAbs returns the largest absolute present value, or 0 if none.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if math.IsNaN(v) {
			continue
		}
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Mul returns m × other (no missing entries allowed in either operand).
func (m *Dense) Mul(other *Dense) *Dense {
	if m.cols != other.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d × %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewDense(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for kk, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := other.Row(kk)
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Median returns the median of vals. It works on a copy, leaving vals
// untouched. Panics on empty input.
func Median(vals []float64) float64 { return Percentile(vals, 50) }

// Percentile returns the p-th percentile (0..100) of vals using linear
// interpolation between closest ranks, in the order sort.Float64s puts
// them in (NaNs first). It selects the two ranks from a copy, in O(n)
// expected and O(n log n) worst-case time, rather than sorting it, and
// leaves vals untouched. Panics on empty input. Table 1 of the paper is
// generated from these percentiles.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		panic("mat: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("mat: Percentile %v out of [0,100]", p))
	}
	s := make([]float64, len(vals))
	copy(s, vals)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// NaNs sort first: gather them at the front, then select among the
	// ordered rest.
	nan := 0
	for i, v := range s {
		if math.IsNaN(v) {
			s[i], s[nan] = s[nan], v
			nan++
		}
	}
	if lo >= nan {
		selectNth(s[nan:], lo-nan)
	}
	if lo == hi {
		return s[lo]
	}
	// Everything from hi on sorts after s[lo], so s[hi] is the smallest of
	// it: a NaN when hi is still among the NaNs, else the minimum of the
	// (NaN-free) rest.
	next := s[hi]
	if hi >= nan {
		for _, v := range s[hi+1:] {
			if v < next {
				next = v
			}
		}
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + next*frac
}

// PercentileOffDiag returns Percentile(m.PresentOffDiag(), p) without
// building that slice: nothing it allocates grows with the matrix. It
// selects the two ranks the interpolation needs by radix over
// order-preserving 64-bit keys of the values, one 16-bit digit per pass
// over the matrix: each pass counts the keys that share the digits fixed
// so far, by their next digit, and fixes the digit whose bucket holds
// the rank. Once the bucket holds at most 2¹⁶ values, one more pass
// gathers them for selectNth. Where the two ranks part into different
// buckets, the lower one is its bucket's largest key and the upper one
// the next bucket's smallest, found in one pass. Equal values may come
// back as the other one of ±0. Panics when no off-diagonal entry is
// present.
func (m *Dense) PercentileOffDiag(p float64) float64 {
	return m.percentileOffDiag(p, 1<<digitBits)
}

// percentileOffDiag is PercentileOffDiag gathering buckets of at most
// gatherMax values; the tests lower the limit to reach every pass on
// small matrices.
func (m *Dense) percentileOffDiag(p float64, gatherMax int) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("mat: Percentile %v out of [0,100]", p))
	}
	hist := make([]int, 1<<digitBits)
	shift, prefix := uint(64), uint64(0) // the keys with key>>shift == prefix
	m.countDigits(hist, shift, prefix)
	n := 0
	for _, c := range hist {
		n += c
	}
	if n == 0 {
		panic("mat: Percentile of empty slice")
	}
	rank := p / 100 * float64(n-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	frac := rank - float64(lo)
	for {
		blo, below := bucketOf(hist, lo)
		bhi, _ := bucketOf(hist, hi)
		shift -= digitBits
		plo, phi := prefix<<digitBits|uint64(blo), prefix<<digitBits|uint64(bhi)
		switch {
		case blo != bhi:
			top, next := m.bucketEdges(shift, plo, phi)
			return keyFloat(top)*(1-frac) + keyFloat(next)*frac
		case shift == 0:
			// The prefix is a whole key: every value in the bucket is it.
			v := keyFloat(plo)
			if lo == hi {
				return v
			}
			return v*(1-frac) + v*frac
		case hist[blo] <= gatherMax:
			return percentileOf(m.gather(shift, plo, hist[blo]), lo-below, hi-below, frac)
		}
		clear(hist)
		m.countDigits(hist, shift, plo)
		prefix, lo, hi = plo, lo-below, hi-below
	}
}

// digitBits is the radix digit width of PercentileOffDiag.
const digitBits = 16

// floatKey maps a float64 to a uint64 whose unsigned order is the
// value order of non-NaN floats (−0 just below +0).
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// bucketOf returns the bucket of a histogram that holds the value of the
// given rank, and the count of the buckets below it.
func bucketOf(hist []int, rank int) (bucket, below int) {
	for b, c := range hist {
		if rank < below+c {
			return b, below
		}
		below += c
	}
	panic("mat: rank beyond histogram")
}

// offDiag calls f on every present off-diagonal value.
func (m *Dense) offDiag(f func(v float64)) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		d := min(i, m.cols)
		for _, part := range [2][]float64{row[:d], row[min(d+1, m.cols):]} {
			for _, v := range part {
				if !math.IsNaN(v) {
					f(v)
				}
			}
		}
	}
}

// countDigits counts, by the digit below shift, the keys of the present
// off-diagonal values with key>>shift == prefix.
func (m *Dense) countDigits(hist []int, shift uint, prefix uint64) {
	low := shift - digitBits
	m.offDiag(func(v float64) {
		if k := floatKey(v); k>>shift == prefix {
			hist[k>>low&(1<<digitBits-1)]++
		}
	})
}

// gather returns the count present off-diagonal values whose keys have
// key>>shift == prefix.
func (m *Dense) gather(shift uint, prefix uint64, count int) []float64 {
	out := make([]float64, 0, count)
	m.offDiag(func(v float64) {
		if floatKey(v)>>shift == prefix {
			out = append(out, v)
		}
	})
	return out
}

// bucketEdges returns the largest key with key>>shift == plo and the
// smallest with key>>shift == phi.
func (m *Dense) bucketEdges(shift uint, plo, phi uint64) (top, next uint64) {
	next = math.MaxUint64
	m.offDiag(func(v float64) {
		switch k := floatKey(v); k >> shift {
		case plo:
			top = max(top, k)
		case phi:
			next = min(next, k)
		}
	})
	return top, next
}

// percentileOf interpolates between the values of ranks lo and hi ≤ lo+1
// of s, which holds no NaN, the way Percentile does, partially ordering
// s in place.
func percentileOf(s []float64, lo, hi int, frac float64) float64 {
	selectNth(s, lo)
	if lo == hi {
		return s[lo]
	}
	next := s[hi]
	for _, v := range s[hi+1:] {
		if v < next {
			next = v
		}
	}
	return s[lo]*(1-frac) + next*frac
}

// selectNth partially orders a, which holds no NaN, so that a[k] is the
// value sorting would put there, no value before it is larger and none
// after it is smaller. It partitions around a median-of-three pivot
// (Hoare, with values equal to the pivot split between both sides, so
// heavy duplicates still halve the window) and sorts the window once it
// is small or after 2·log₂(len(a)) rounds, which bounds the worst case
// at O(n log n).
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 16 && rounds > 0; rounds-- {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
			if a[mid] < a[lo] {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] ≤ pivot ≤ a[i..hi], and anything between equals
		// the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(a[lo : hi+1])
}

// Mean returns the arithmetic mean of vals. Panics on empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		panic("mat: Mean of empty slice")
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Stddev returns the population standard deviation of vals.
func Stddev(vals []float64) float64 {
	if len(vals) == 0 {
		panic("mat: Stddev of empty slice")
	}
	mu := Mean(vals)
	var s float64
	for _, v := range vals {
		d := v - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(vals)))
}
