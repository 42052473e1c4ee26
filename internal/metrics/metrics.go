// Package metrics is the repo's dependency-free observability tier
// (DESIGN.md §12): a registry of atomic counters, gauges, and
// fixed-bucket histograms with a Prometheus-text encoder, plus an
// NDJSON event-trace sink (trace.go).
//
// The design constraint is the same zero-allocation discipline as the
// serving handlers: observation (Counter.Add, Gauge.Set,
// Histogram.Observe) performs no heap allocation, no map lookup, and
// no lock acquisition — only atomic loads/stores/CAS on pre-registered
// cells. All lookup cost (name interning, label resolution) is paid
// once at registration; hot paths hold the returned *Counter /
// *Gauge / *Histogram directly. AllocsPerRun tests pin this contract.
//
// Naming convention: dmf_<subsystem>_<quantity>_<unit>, with counter
// series suffixed _total, durations in seconds, sizes in bytes.
// Labeled families pre-register every label value they will ever use
// (e.g. one child per HTTP endpoint), so the exposition is a fixed,
// enumerable series set.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing cumulative count. The zero
// value is usable but unregistered; obtain registered counters from
// Registry.Counter or CounterVec.With.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
//
//dmf:zeroalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic; callers pass non-negative n.
//
//dmf:zeroalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
//
//dmf:zeroalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt replaces the gauge value with an integer.
//
//dmf:zeroalloc
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds d (may be negative) with a CAS loop; no allocation.
//
//dmf:zeroalloc
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in increasing order; a final +Inf bucket is implicit.
// Observe is lock-free and allocation-free: one linear scan over the
// (small, fixed) bound slice, three atomic ops.
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing, no +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
//
//dmf:zeroalloc
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n upper bounds start, start·factor, start·factor².
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start>0, factor>1, n>=1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Standard bucket layouts. Durations are seconds, sizes bytes.
var (
	// LatencyBuckets spans 50µs..≈26s: HTTP requests, lock waits.
	LatencyBuckets = ExpBuckets(50e-6, 2.5, 15)
	// DurationBuckets spans 1ms..≈8m: epochs, rounds, checkpoints.
	DurationBuckets = ExpBuckets(1e-3, 3, 12)
	// SizeBuckets spans 64B..64MB: frame and response sizes.
	SizeBuckets = ExpBuckets(64, 4, 11)
)

// metricKind discriminates families in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// child is one labeled series inside a family.
type child struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	bounds   []float64 // histograms
	labelKey string    // label name for vec families, "" for scalars
	children []*child
	index    map[string]*child
}

// Registry holds metric families and renders them in registration
// order. Registration is mutex-guarded and idempotent (get-or-create);
// observation on returned cells is lock-free.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that every instrumented
// package registers into and that the /metrics handlers expose.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help string, kind metricKind, labelKey string, bounds []float64) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labelKey: labelKey,
			bounds: bounds, index: make(map[string]*child)}
		r.fams = append(r.fams, f)
		r.byName[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as a different kind", name))
	}
	return f
}

func (f *family) get(labels string) *child {
	ch, ok := f.index[labels]
	if !ok {
		ch = &child{labels: labels}
		switch f.kind {
		case kindCounter:
			ch.c = new(Counter)
		case kindGauge:
			ch.g = new(Gauge)
		case kindHistogram:
			ch.h = newHistogram(f.bounds)
		}
		f.index[labels] = ch
		f.children = append(f.children, ch)
	}
	return ch
}

// Counter returns the unlabeled counter with the given name,
// registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindCounter, "", nil).get("").c
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindGauge, "", nil).get("").g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the bridge that re-expresses /healthz fields as metrics
// without a second bookkeeping path. Re-registering the same name
// replaces the callback (a restarted server component supersedes the
// old closure).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGaugeFunc, "", nil)
	ch := f.get("")
	ch.gf = fn
}

// Histogram returns the unlabeled histogram with the given name and
// bucket upper bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindHistogram, "", bounds).get("").h
}

// CounterVec is a counter family with one label dimension whose values
// are pre-registered via With.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec returns the labeled counter family with the given name
// and label key.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &CounterVec{r: r, f: r.family(name, help, kindCounter, labelKey, nil)}
}

// With returns (registering on first use) the child counter for the
// given label value. Call once at setup and keep the pointer: With
// takes the registry lock and renders the label string.
func (v *CounterVec) With(value string) *Counter {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.get(renderLabel(v.f.labelKey, value)).c
}

// GaugeVec is a gauge family with one pre-registered label dimension.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &GaugeVec{r: r, f: r.family(name, help, kindGauge, labelKey, nil)}
}

// With returns the child gauge for the given label value.
func (v *GaugeVec) With(value string) *Gauge {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.get(renderLabel(v.f.labelKey, value)).g
}

// HistogramVec is a histogram family with one pre-registered label
// dimension; all children share the family's bucket layout.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec returns the labeled histogram family with the given
// name, bucket bounds, and label key.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelKey string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &HistogramVec{r: r, f: r.family(name, help, kindHistogram, labelKey, bounds)}
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.get(renderLabel(v.f.labelKey, value)).h
}

// renderLabel builds the `{key="value"}` suffix once, at registration.
func renderLabel(key, value string) string {
	if key == "" {
		return ""
	}
	return `{` + key + `="` + escapeLabel(value) + `"}`
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
