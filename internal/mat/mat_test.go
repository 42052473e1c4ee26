package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("entry (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Set(1, 0, -1)
	if m.At(0, 1) != 3.5 || m.At(1, 0) != -1 || m.At(0, 0) != 0 {
		t.Errorf("unexpected entries: %v %v %v", m.At(0, 1), m.At(1, 0), m.At(0, 0))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewDense(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) should panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestMissing(t *testing.T) {
	m := NewMissing(2, 2)
	if !m.IsMissing(0, 0) || !m.IsMissing(1, 1) {
		t.Error("NewMissing entries should be missing")
	}
	m.Set(0, 0, 5)
	if m.IsMissing(0, 0) {
		t.Error("set entry should not be missing")
	}
	m.SetMissing(0, 0)
	if !m.IsMissing(0, 0) {
		t.Error("SetMissing should mark entry missing")
	}
}

func TestRowAliases(t *testing.T) {
	m := NewDense(2, 3)
	r := m.Row(1)
	r[2] = 42
	if m.At(1, 2) != 42 {
		t.Error("Row should alias matrix storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone should be independent")
	}
}

func TestApplySkipsMissing(t *testing.T) {
	m := NewMissing(2, 2)
	m.Set(0, 1, 10)
	m.Apply(func(i, j int, v float64) float64 { return v * 2 })
	if m.At(0, 1) != 20 {
		t.Errorf("Apply did not transform present entry: %v", m.At(0, 1))
	}
	if !m.IsMissing(0, 0) {
		t.Error("Apply should skip missing entries")
	}
}

func TestPresentOffDiag(t *testing.T) {
	m := NewMissing(3, 3)
	m.Set(0, 0, 100) // diagonal: excluded
	m.Set(0, 1, 1)
	m.Set(1, 2, 2)
	got := m.PresentOffDiag()
	if len(got) != 2 {
		t.Fatalf("PresentOffDiag = %v, want 2 values", got)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("PresentOffDiag = %v", got)
	}
	if n := len(m.Present()); n != 3 {
		t.Errorf("Present = %d values, want 3", n)
	}
}

func TestMissingFraction(t *testing.T) {
	m := NewMissing(3, 3) // 6 off-diagonal entries
	if got := m.MissingFraction(); got != 1 {
		t.Errorf("all-missing fraction = %v", got)
	}
	m.Set(0, 1, 5)
	m.Set(1, 0, 5)
	m.Set(2, 0, 5)
	if got := m.MissingFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("fraction = %v, want 0.5", got)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMissing(3, 3)
	m.Set(0, 1, 10)
	m.Set(1, 0, 20) // both present: average
	m.Set(0, 2, 30) // only one side: propagate
	m.Symmetrize()
	if m.At(0, 1) != 15 || m.At(1, 0) != 15 {
		t.Errorf("average failed: %v %v", m.At(0, 1), m.At(1, 0))
	}
	if m.At(2, 0) != 30 {
		t.Errorf("propagation failed: %v", m.At(2, 0))
	}
	if !m.IsMissing(1, 2) || !m.IsMissing(2, 1) {
		t.Error("both-missing pair should stay missing")
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("Mul = %v, want %v", c.Data(), want)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("Transpose dims = %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewMissing(2, 2)
	if m.MaxAbs() != 0 {
		t.Error("MaxAbs of all-missing should be 0")
	}
	m.Set(0, 0, -7)
	m.Set(1, 1, 3)
	if m.MaxAbs() != 7 {
		t.Errorf("MaxAbs = %v, want 7", m.MaxAbs())
	}
}

func TestMedianPercentile(t *testing.T) {
	vals := []float64{3, 1, 2}
	if got := Median(vals); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	// input untouched
	if vals[0] != 3 {
		t.Error("Median sorted the input in place")
	}
	four := []float64{1, 2, 3, 4}
	if got := Median(four); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Percentile(four, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(four, 100); got != 4 {
		t.Errorf("P100 = %v, want 4", got)
	}
	if got := Percentile(four, 25); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("P25 = %v, want 1.75", got)
	}
	if got := Percentile([]float64{9}, 73); got != 9 {
		t.Errorf("single-element percentile = %v, want 9", got)
	}
}

// percentileBySort is the reference Percentile must match: sort a copy,
// then interpolate between the closest ranks.
func percentileBySort(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Property: Percentile selects exactly what sorting would, bit for bit,
// over lengths 1–1000, heavy duplicates, NaN, ±Inf, presorted input and
// p across [0, 100]. Only -0 and +0 may trade places, being ==.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for n := 1; n <= 1000; n++ {
		vals := make([]float64, n)
		pool := 1 + rng.Intn(8) // few distinct values: heavy duplicates
		for i := range vals {
			switch n % 4 {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(pool))
			case 2:
				if rng.Intn(5) == 0 {
					vals[i] = specials[rng.Intn(len(specials))]
				} else {
					vals[i] = float64(rng.Intn(pool)) - 2
				}
			case 3:
				vals[i] = float64(i % (n/3 + 1)) // ascending runs
			}
		}
		if n%8 == 7 {
			sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		}
		ps := []float64{0, 50, 100, 100 * rng.Float64(), 100 * float64(rng.Intn(n)) / float64(max(n-1, 1))}
		for _, p := range ps {
			got, want := Percentile(vals, p), percentileBySort(vals, p)
			if math.Float64bits(got) != math.Float64bits(want) && got != want {
				t.Fatalf("n=%d p=%v: Percentile = %v, sort reference = %v", n, p, got, want)
			}
		}
	}
}

func TestMeanStddev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Stddev(vals); math.Abs(got-2) > 1e-12 {
		t.Errorf("Stddev = %v, want 2", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentilePropertyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(vals, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaskBasics(t *testing.T) {
	w := NewMask(3, 3)
	if w.Count() != 0 {
		t.Error("new mask should be empty")
	}
	w.Set(0, 1)
	w.Set(2, 2)
	if !w.At(0, 1) || !w.At(2, 2) || w.At(1, 1) {
		t.Error("Set/At inconsistent")
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d, want 2", w.Count())
	}
	w.Clear(0, 1)
	if w.At(0, 1) || w.Count() != 1 {
		t.Error("Clear failed")
	}
}

func TestMaskSetIdempotent(t *testing.T) {
	w := NewMask(2, 2)
	w.Set(0, 0)
	w.Set(0, 0)
	if w.Count() != 1 {
		t.Errorf("double Set should count once, got %d", w.Count())
	}
}

func TestMaskPairs(t *testing.T) {
	w := NewMask(2, 3)
	w.Set(1, 2)
	w.Set(0, 0)
	pairs := w.Pairs()
	if len(pairs) != 2 || pairs[0] != (Pair{0, 0}) || pairs[1] != (Pair{1, 2}) {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestMaskComplement(t *testing.T) {
	w := NewMask(3, 3)
	w.Set(0, 1)
	c := w.Complement()
	// 3x3 has 6 off-diagonal entries; one observed -> 5 in complement.
	if c.Count() != 5 {
		t.Errorf("Complement count = %d, want 5", c.Count())
	}
	if c.At(0, 1) {
		t.Error("observed entry must not be in complement")
	}
	for i := 0; i < 3; i++ {
		if c.At(i, i) {
			t.Error("diagonal must not be in complement")
		}
	}
}

func TestMaskClone(t *testing.T) {
	w := NewMask(2, 2)
	w.Set(0, 0)
	c := w.Clone()
	c.Set(1, 1)
	if w.At(1, 1) {
		t.Error("Clone should be independent")
	}
}

func TestNeighborMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 20, 5
	w, neighbors := NeighborMask(n, k, false, rng)
	if len(neighbors) != n {
		t.Fatalf("neighbors length = %d", len(neighbors))
	}
	for i, ns := range neighbors {
		if len(ns) != k {
			t.Fatalf("node %d has %d neighbors, want %d", i, len(ns), k)
		}
		seen := map[int]bool{}
		for _, j := range ns {
			if j == i {
				t.Fatalf("node %d has itself as neighbor", i)
			}
			if seen[j] {
				t.Fatalf("node %d has duplicate neighbor %d", i, j)
			}
			seen[j] = true
			if !w.At(i, j) {
				t.Fatalf("mask missing observed pair (%d,%d)", i, j)
			}
		}
	}
	// Asymmetric: mask count equals n*k only if no (i,j)+(j,i) coincidence
	// collapses (entries are directed, so count is exactly n*k).
	if w.Count() != n*k {
		t.Errorf("mask count = %d, want %d", w.Count(), n*k)
	}
}

func TestNeighborMaskSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w, _ := NeighborMask(15, 4, true, rng)
	for i := 0; i < 15; i++ {
		for j := 0; j < 15; j++ {
			if w.At(i, j) != w.At(j, i) {
				t.Fatalf("symmetric mask asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestNeighborMaskPanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k >= n")
		}
	}()
	NeighborMask(5, 5, false, rand.New(rand.NewSource(1)))
}

// Property: complement and original partition the off-diagonal entries.
func TestMaskPropertyComplementPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		w := NewMask(n, n)
		for e := 0; e < rng.Intn(n*n); e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				w.Set(i, j)
			}
		}
		c := w.Complement()
		return w.Count()+c.Count() == n*(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaskCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, _ := NeighborMask(500, 32, true, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.Count()
	}
}

// offDiagMatrix builds a rows×cols matrix whose entries come from gen;
// the diagonal holds gen's values too, which PercentileOffDiag must skip.
func offDiagMatrix(rows, cols int, gen func() float64) *Dense {
	m := NewDense(rows, cols)
	for k := range m.data {
		m.data[k] = gen()
	}
	return m
}

// checkPercentileOffDiag compares the matrix percentile, at the real
// gather limit and at limits that force every radix pass, with the slice
// reference Percentile(m.PresentOffDiag(), p). Only -0 and +0 may trade
// places, being ==.
func checkPercentileOffDiag(t *testing.T, m *Dense, p float64, what string) {
	t.Helper()
	want := Percentile(m.PresentOffDiag(), p)
	for _, limit := range []int{1 << digitBits, 3, 0} {
		got := m.percentileOffDiag(p, limit)
		if math.Float64bits(got) != math.Float64bits(want) && got != want {
			t.Fatalf("%s %dx%d p=%v gather≤%d: PercentileOffDiag = %v, slice reference = %v",
				what, m.rows, m.cols, p, limit, got, want)
		}
	}
}

// Property: PercentileOffDiag equals Percentile over PresentOffDiag, bit
// for bit, on random matrices with NaN holes, 1–8-value pools, ±Inf, ±0,
// a single present value, and values that share their top 16 or 32 key
// bits — more than a gather's worth of them, so the deeper radix passes
// and the all-equal bucket run at the real limit too.
func TestPercentileOffDiagMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	ps := func() []float64 { return []float64{0, 50, 100, 100 * rng.Float64(), 100 * rng.Float64()} }
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		if trial%3 == 0 {
			cols = rows
		}
		holes := rng.Float64()
		pool := 1 + rng.Intn(8)
		for _, g := range []struct {
			name string
			gen  func() float64
		}{
			{"normal", func() float64 { return rng.NormFloat64() * 100 }},
			{"pool", func() float64 { return float64(rng.Intn(pool)) - 2 }},
			{"specials", func() float64 {
				if rng.Intn(3) == 0 {
					return specials[rng.Intn(len(specials))]
				}
				return float64(rng.Intn(pool)) - 2
			}},
		} {
			m := offDiagMatrix(rows, cols, func() float64 {
				if rng.Float64() < holes {
					return math.NaN()
				}
				return g.gen()
			})
			if len(m.PresentOffDiag()) == 0 {
				continue
			}
			for _, p := range ps() {
				checkPercentileOffDiag(t, m, p, g.name)
			}
		}
	}

	// A single present off-diagonal value among holes and a present
	// diagonal.
	one := offDiagMatrix(5, 5, math.NaN)
	for i := 0; i < 5; i++ {
		one.Set(i, i, float64(100+i))
	}
	one.Set(3, 1, -7.5)
	for _, p := range ps() {
		checkPercentileOffDiag(t, one, p, "single")
	}

	// Large pools: every value in one top-16-bit bucket ([1, 1+2⁻⁵)), in
	// one top-32-bit bucket, or one of two values, with more than 2¹⁶
	// values in the bucket.
	for _, g := range []struct {
		name string
		gen  func() float64
	}{
		{"top16", func() float64 { return 1 + rng.Float64()/32 }},
		{"top32", func() float64 { return 1 + rng.Float64()*0x1p-21 }},
		{"twovalue", func() float64 { return float64(rng.Intn(2)) }},
	} {
		m := offDiagMatrix(400, 400, g.gen)
		for _, p := range ps() {
			checkPercentileOffDiag(t, m, p, g.name)
		}
	}
}

// PercentileOffDiag allocates a fixed amount, however large the matrix.
func TestPercentileOffDiagAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := offDiagMatrix(600, 600, func() float64 { return rng.ExpFloat64() * 50 })
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	m.PercentileOffDiag(50)
	runtime.ReadMemStats(&ms)
	if got, limit := ms.TotalAlloc-before, uint64(2<<20); got > limit {
		t.Fatalf("PercentileOffDiag allocated %d bytes over a %d-byte matrix, want ≤ %d", got, 8*600*600, limit)
	}
}

// FuzzPercentileOffDiag: the matrix percentile equals the slice reference
// on any matrix a fuzzer can shape, raw float64 bit patterns included.
func FuzzPercentileOffDiag(f *testing.F) {
	f.Add(uint8(3), uint16(32768), []byte{0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64})
	f.Add(uint8(2), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(4), uint16(65535), []byte{0, 0, 0, 0, 0, 0, 240, 127, 0, 0, 0, 0, 0, 0, 240, 255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, shape uint8, p16 uint16, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for k := range vals {
			vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		rows := 1 + int(shape&15)
		cols := max(1, (len(vals)+rows-1)/rows)
		if shape&16 != 0 {
			cols = rows // square, the shape of every dataset
		}
		m := NewMissing(rows, cols)
		copy(m.data, vals)
		if len(m.PresentOffDiag()) == 0 {
			return
		}
		checkPercentileOffDiag(t, m, float64(p16)/65535*100, "fuzz")
	})
}
