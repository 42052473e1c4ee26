package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatalf("re-registration did not return the same counter")
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "", "path")
	a, b := v.With("/a"), v.With("/b")
	if a == b {
		t.Fatal("distinct labels share a child")
	}
	if v.With("/a") != a {
		t.Fatal("same label returned a new child")
	}
	a.Add(3)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 {
		t.Fatalf("children cross-talk: a=%d b=%d", a.Value(), b.Value())
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for v := 0.5; v <= 8; v += 0.5 {
		h.Observe(v)
	}
	if got := h.Count(); got != 16 {
		t.Fatalf("count = %d, want 16", got)
	}
	if got, want := h.Sum(), 68.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dmf_test_ops_total", "Ops.").Add(3)
	r.Gauge("dmf_test_depth", "Depth.").Set(1.5)
	r.GaugeFunc("dmf_test_fn", "Fn.", func() float64 { return 9 })
	h := r.HistogramVec("dmf_test_seconds", "Latency.", []float64{0.1, 1}, "path")
	h.With("/a").Observe(0.05)
	h.With("/a").Observe(0.5)
	h.With("/a").Observe(5)
	r.CounterVec("dmf_test_req_total", "Req.", "path").With(`/q"x`).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP dmf_test_ops_total Ops.\n",
		"# TYPE dmf_test_ops_total counter\n",
		"dmf_test_ops_total 3\n",
		"# TYPE dmf_test_depth gauge\n",
		"dmf_test_depth 1.5\n",
		"dmf_test_fn 9\n",
		"# TYPE dmf_test_seconds histogram\n",
		`dmf_test_seconds_bucket{path="/a",le="0.1"} 1` + "\n",
		`dmf_test_seconds_bucket{path="/a",le="1"} 2` + "\n",
		`dmf_test_seconds_bucket{path="/a",le="+Inf"} 3` + "\n",
		`dmf_test_seconds_sum{path="/a"} 5.55` + "\n",
		`dmf_test_seconds_count{path="/a"} 3` + "\n",
		`dmf_test_req_total{path="/q\"x"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must parse as "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-4)
			}
		}(w)
	}
	// Concurrent scrapes must not race observation.
	for i := 0; i < 4; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || g.Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d g=%v", c.Value(), h.Count(), g.Value())
	}
}

// The zero-alloc observation contract: Counter.Add, Gauge.Set, and
// Histogram.Observe must not allocate — they run on serving and
// training hot paths.
func TestObservationZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", "", "path").With("/predict")
	g := r.Gauge("g", "")
	h := r.HistogramVec("h_seconds", "", LatencyBuckets, "path").With("/predict")
	if n := testing.AllocsPerRun(1000, func() { c.Add(2) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3.5) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1e9) }); n != 0 {
		t.Fatalf("Histogram.Observe (+Inf bucket) allocates %v/op", n)
	}
}
