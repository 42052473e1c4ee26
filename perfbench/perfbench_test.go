package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestFreshnessJoinsStampsToFirstCoveringPublish(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Iteration 0 leaves the trainer at step 100, iteration 1 at 200.
	stepsAfter := []uint64{100, 200}
	stamps := []stamp{
		{at: at(0), n: 3, iter: 0},
		{at: at(10), n: 1, iter: 0},
		{at: at(50), n: 2, iter: 1},
	}
	pubs := []publish{
		{end: at(40), steps: 50},   // covers neither iteration
		{end: at(120), steps: 200}, // first publish reaching 100 and 200
		{end: at(130), steps: 100}, // later and lower: never the join
	}
	got, err := freshness(stamps, stepsAfter, pubs)
	if err != nil {
		t.Fatal(err)
	}
	want := []wsample{{120, 3}, {110, 1}, {70, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].v-want[i].v) > 1e-9 || got[i].w != want[i].w {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := freshness(stamps, []uint64{100, 300}, pubs); err == nil {
		t.Error("an iteration no publish covers joined without error")
	}
}

func TestWeightedQuantileNearestRank(t *testing.T) {
	xs := []wsample{{5, 1}, {1, 2}, {3, 1}} // sorted: 1 1 3 5
	for _, c := range []struct{ q, want float64 }{{0.25, 1}, {0.5, 1}, {0.51, 3}, {0.75, 3}, {0.99, 5}, {1, 5}} {
		if got := wquantile(append([]wsample(nil), xs...), c.q); got != c.want {
			t.Errorf("q=%v: %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(wquantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestTailPercentilesNeedTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		pm   int
		want bool
	}{{1000, 990, true}, {999, 990, false}, {100, 900, true}, {99, 900, false}} {
		if got := supports(c.n, c.pm); got != c.want {
			t.Errorf("supports(%d, %d‰) = %v", c.n, c.pm, got)
		}
	}
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	if d := summarize(seq(1000)); d.n != 1000 || d.p50 != 500 || d.p90 != 900 || d.p99 != 990 {
		t.Errorf("summary of 1..1000 = %v", d)
	}
	if d := summarize(seq(999)); d.p90 != 900 || !math.IsNaN(d.p99) {
		t.Errorf("summary of 1..999 = %v, want p90 900 and no p99", d)
	}
	if d := summarize(seq(5)); d.p50 != 3 || !math.IsNaN(d.p90) {
		t.Errorf("summary of 1..5 = %v, want p50 3 and no tail", d)
	}
}

func TestWindowedSummaryTakesTheQuieterWindows(t *testing.T) {
	window := func(base float64) []wsample {
		var w []wsample
		for i := 1; i <= 100; i++ {
			w = append(w, wsample{base + float64(i), 1})
		}
		return w
	}
	// Four windows: the lower quartile is the quietest one's, and the
	// slowed window moves nothing.
	d := windowed{window(10), window(1000), window(0), window(20)}.summary()
	if d.n != 400 || d.p50 != 50 || d.p90 != 90 || !math.IsNaN(d.p99) {
		t.Errorf("summary = %v, want n=400 p50=50 p90=90 and no p99", d)
	}
	if r := quietRate([]float64{100, 40, 90, 80}); r != 90 {
		t.Errorf("quiet rate = %v, want the upper quartile 90", r)
	}
}

// smoke runs one workload at toy size, traced, and checks that it passes
// its own checks and reports every metric.
func smoke(t *testing.T, workload string) {
	if testing.Short() {
		t.Skip("starts the full workload")
	}
	dir := t.TempDir()
	cfg := config{workload: workload, seed: 3, seconds: 1, trace: true, workdir: dir, toy: true}
	if workload == "serve" {
		cfg.dmfserve = filepath.Join(dir, "dmfserve")
		if out, err := exec.Command("go", "build", "-o", cfg.dmfserve, "dmfsgd/cmd/dmfserve").CombinedOutput(); err != nil {
			t.Fatalf("building dmfserve: %v\n%s", err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep := newReport()
	if err := run(ctx, cfg, rep); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	if !rep.correct() || rep.attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.correct(), rep.attempted, rep.failed)
	}
	if _, err := resultJSON(cfg, rep); err != nil {
		t.Error(err)
	}
	if t.Failed() {
		for _, l := range rep.lines {
			t.Log(l)
		}
	}
}

func TestSmokeServe(t *testing.T)  { smoke(t, "serve") }
func TestSmokeIngest(t *testing.T) { smoke(t, "ingest") }
func TestSmokeTrain(t *testing.T)  { smoke(t, "train") }
