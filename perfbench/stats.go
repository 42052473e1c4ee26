package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 over fewer than 1000 samples rests on fewer than ten
// observations and is not a tail estimate.
const minBeyond = 10

// supports reports whether n samples support the percentile pm (per
// mille): at least minBeyond of them lie beyond it.
func supports(n int64, pm int) bool { return n*int64(1000-pm) >= minBeyond*1000 }

// wsample is a value observed weight times (a batch of measurements that
// share one timing).
type wsample struct {
	v float64
	w int64
}

// wquantile returns the nearest-rank q-quantile (0 < q ≤ 1) of weighted
// samples: the smallest value whose cumulative weight reaches q of the
// total. It sorts xs in place. NaN for no samples.
func wquantile(xs []wsample, q float64) float64 {
	var total int64
	for _, x := range xs {
		total += x.w
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a].v < xs[b].v })
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, x := range xs {
		cum += x.w
		if cum >= rank {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// dist summarizes a sample: its count, median, p90 and p99. A percentile
// the count does not support is NaN.
type dist struct {
	n             int64
	p50, p90, p99 float64
}

// summarize builds a dist from values.
func summarize(vs []float64) dist {
	return windowed{values(vs)}.summary()
}

// windowed is a sample split into consecutive windows of a run.
type windowed [][]wsample

// quietQ is the quantile over a run's windows that the benchmark reports:
// the lower quartile of times and the upper quartile of rates.
// Interference from outside the system — CPU time the hypervisor gives to
// other machines, a neighbour's burst — only ever adds time, so the
// quieter windows estimate the system itself most steadily, while effects
// of the system's own that recur within a window (refreshes, gossip,
// collections) are in every window.
const quietQ = 0.25

// quietRate is the rate of the quieter windows.
func quietRate(rates []float64) float64 { return wquantile(values(rates), 1-quietQ) }

// summary is the lower quartile, over windows, of each window's
// percentiles. A tail percentile is reported only when every window
// supports it.
func (ws windowed) summary() dist {
	var n, smallest int64
	for i, w := range ws {
		var wn int64
		for _, x := range w {
			wn += x.w
		}
		n += wn
		if i == 0 || wn < smallest {
			smallest = wn
		}
	}
	at := func(pm int) float64 {
		if pm > 500 && !supports(smallest, pm) {
			return math.NaN()
		}
		var vs []float64
		for _, w := range ws {
			vs = append(vs, wquantile(w, float64(pm)/1000))
		}
		return wquantile(values(vs), quietQ)
	}
	return dist{n: n, p50: at(500), p90: at(900), p99: at(990)}
}

// String renders the supported percentiles with the sample count.
func (d dist) String() string {
	s := fmt.Sprintf("p50 %.4g", d.p50)
	if !math.IsNaN(d.p90) {
		s += fmt.Sprintf(", p90 %.4g", d.p90)
	}
	if !math.IsNaN(d.p99) {
		s += fmt.Sprintf(", p99 %.4g", d.p99)
	}
	return s + fmt.Sprintf(" (n=%d)", d.n)
}

// values returns unweighted samples as wsamples.
func values(vs []float64) []wsample {
	xs := make([]wsample, len(vs))
	for i, v := range vs {
		xs[i] = wsample{v, 1}
	}
	return xs
}

// median is the nearest-rank median of vs (NaN when empty).
func median(vs []float64) float64 { return wquantile(values(vs), 0.5) }

// mean of vs (NaN when empty).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid in MiB;
// pid 0 is this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// gcPauseSeconds returns the Go runtime's cumulative stop-the-world GC
// pause time: the sum of its pause histogram, each bucket at its midpoint.
func gcPauseSeconds() float64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	total := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(c) * (lo + hi) / 2
	}
	return total
}

// allocSample is reused by heapAllocs, so that reading the counter
// allocates nothing itself; only the train loop's goroutine reads it.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}
