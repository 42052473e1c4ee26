package dmfsgd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"dmfsgd/internal/sim"
)

// sessionFlat snapshots a session's factors.
func sessionFlat(s *Session) (u, v []float64) {
	return s.Snapshot().Flat()
}

// driverFlat snapshots a raw driver's factors.
func driverFlat(d *sim.Driver) (u, v []float64) {
	return d.Engine().Store().SnapshotFlat()
}

func flatEqual(t *testing.T, ctx string, au, av, bu, bv []float64) {
	t.Helper()
	if len(au) != len(bu) || len(av) != len(bv) {
		t.Fatalf("%s: factor lengths differ", ctx)
	}
	for i := range au {
		if au[i] != bu[i] || av[i] != bv[i] {
			t.Fatalf("%s: factors diverge at flat index %d (u %v vs %v, v %v vs %v)",
				ctx, i, au[i], bu[i], av[i], bv[i])
		}
	}
}

// TestMatrixSourceBitIdenticalToDriver: the acceptance criterion of the
// ingestion redesign — sequential training driven through the session's
// MatrixSource produces bit-identical factors and AUC to the
// pre-redesign path (the raw driver's RunCtx) at a fixed seed.
func TestMatrixSourceBitIdenticalToDriver(t *testing.T) {
	ds := NewMeridianDataset(120, 5)
	const budget = 30_000

	sess, err := NewSession(ds, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), budget); err != nil {
		t.Fatal(err)
	}

	drv, err := sim.ClassDriver(ds, ds.Median(), sim.Config{
		SGD: sess.set.sgdConfig(), K: ds.DefaultK, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.RunCtx(context.Background(), budget); err != nil {
		t.Fatal(err)
	}

	su, sv := sessionFlat(sess)
	du, dv := driverFlat(drv)
	flatEqual(t, "matrix source vs driver", su, sv, du, dv)

	sessAUC, err := sess.AUC(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if drvAUC := drv.AUC(); sessAUC != drvAUC {
		t.Fatalf("AUC diverges: session %v, driver %v", sessAUC, drvAUC)
	}
	if sess.Steps() != drv.Steps() {
		t.Fatalf("steps diverge: session %d, driver %d", sess.Steps(), drv.Steps())
	}
}

// TestTraceSourceBitIdenticalToDriver: same criterion for time-ordered
// trace replay (Harvard) through TraceSource.
func TestTraceSourceBitIdenticalToDriver(t *testing.T) {
	ds := NewHarvardDataset(60, 40_000, 9)
	const budget = 8_000

	sess, err := NewSession(ds, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), budget); err != nil {
		t.Fatal(err)
	}

	drv, err := sim.ClassDriver(ds, ds.Median(), sim.Config{
		SGD: sess.set.sgdConfig(), K: ds.DefaultK, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tau := ds.Median()
	toLabel := func(m Measurement) (float64, bool) {
		return ClassOf(ds.Metric, m.Value, tau).Value(), true
	}
	drv.ReplayTrace(ds.Trace, toLabel, budget)

	su, sv := sessionFlat(sess)
	du, dv := driverFlat(drv)
	flatEqual(t, "trace source vs driver", su, sv, du, dv)
	if sess.Steps() != drv.Steps() {
		t.Fatalf("steps diverge: session %d, driver %d", sess.Steps(), drv.Steps())
	}
}

// TestRunEpochsTraceShardIndependence: epoch-mode trace replay is
// deterministic across shard/worker counts and trains to a finite AUC.
func TestRunEpochsTraceShardIndependence(t *testing.T) {
	ds := NewHarvardDataset(50, 30_000, 4)
	run := func(shards int) (int, []float64, []float64, float64) {
		sess, err := NewSession(ds, WithSeed(4), WithShards(shards), WithWorkers(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		n, err := sess.RunEpochs(context.Background(), 6, 8)
		if err != nil {
			t.Fatal(err)
		}
		u, v := sessionFlat(sess)
		auc, err := sess.AUC(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return n, u, v, auc
	}
	n1, u1, v1, auc1 := run(1)
	if n1 == 0 {
		t.Fatal("epoch trace replay applied nothing")
	}
	if math.IsNaN(auc1) || auc1 <= 0 || auc1 > 1 {
		t.Fatalf("AUC = %v, want finite in (0,1]", auc1)
	}
	for _, shards := range []int{4, 8} {
		n, u, v, auc := run(shards)
		if n != n1 || auc != auc1 {
			t.Fatalf("shards=%d: (updates, AUC) = (%d, %v), want (%d, %v)", shards, n, auc, n1, auc1)
		}
		flatEqual(t, "epoch trace replay across shards", u, v, u1, v1)
	}
}

// TestRunEpochsStreamSource: an NDJSON capture replays in epoch mode
// and ends the run early, without error, when the stream is exhausted.
func TestRunEpochsStreamSource(t *testing.T) {
	ds := NewMeridianDataset(40, 6)
	src, err := NewMatrixSource(ds, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Measurement, 4000)
	if _, err := src.NextBatch(context.Background(), buf); err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	if err := WriteMeasurements(&ndjson, buf); err != nil {
		t.Fatal(err)
	}

	sess, err := NewSessionFromSource(ds, NewStreamSource(&ndjson), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// 100 epochs × 40·10 = far beyond the 4000-record stream: must end
	// at EOF with every usable record consumed, not loop or error.
	n, err := sess.RunEpochs(context.Background(), 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 4000 {
		t.Fatalf("applied %d updates from a 4000-record stream", n)
	}
}

// TestRunEpochsNoEpochStructure: the ErrDynamicTrace sentinel survives
// exactly for sources with no epoch structure — a decorated endless
// sampler.
func TestRunEpochsNoEpochStructure(t *testing.T) {
	ds := NewMeridianDataset(30, 2)
	src, err := NewMatrixSource(ds, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSessionFromSource(ds, WithNoise(src, 0.1, 3), WithK(8), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunEpochs(context.Background(), 2, 4); !errors.Is(err, ErrDynamicTrace) {
		t.Fatalf("RunEpochs on a decorated sampler: err = %v, want ErrDynamicTrace", err)
	}
	// Run drains it fine.
	if err := sess.Run(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	if sess.Steps() != 2000 {
		t.Fatalf("steps = %d, want 2000", sess.Steps())
	}
}

// TestRunEpochsBareMatrixSourceNative: an undecorated matrix-source
// session keeps the native epoch scheduler, bit-identical to the
// pre-redesign RunEpochs.
func TestRunEpochsBareMatrixSourceNative(t *testing.T) {
	ds := NewMeridianDataset(60, 8)
	src, err := NewMatrixSource(ds, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	viaSource, err := NewSessionFromSource(ds, src, WithSeed(8), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer viaSource.Close()
	classic, err := NewSession(ds, WithSeed(8), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer classic.Close()

	na, err := viaSource.RunEpochs(context.Background(), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := classic.RunEpochs(context.Background(), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("updates diverge: %d vs %d", na, nb)
	}
	au, av := sessionFlat(viaSource)
	bu, bv := sessionFlat(classic)
	flatEqual(t, "native epochs via source session", au, av, bu, bv)
}

// TestSourceDecoratorDeterminism: every decorator is a deterministic
// function of its config — the same composition replays identically.
func TestSourceDecoratorDeterminism(t *testing.T) {
	ds := NewMeridianDataset(40, 13)
	build := func() Source {
		src, err := NewMatrixSource(ds, 0, 13)
		if err != nil {
			t.Fatal(err)
		}
		return WithDrop(WithNoise(WithDrift(WithChurn(src, ChurnConfig{
			Start: 5, MeanUp: 10, MeanDown: 10, Fraction: 0.5, Seed: 21,
		}), DriftConfig{Rate: 0.01, Start: 10, Fraction: 0.5, Seed: 22}), 0.2, 23), 0.1, 24)
	}
	drain := func(src Source) []Measurement {
		out := make([]Measurement, 0, 5000)
		buf := make([]Measurement, 512)
		for len(out) < 5000 {
			n, err := src.NextBatch(context.Background(), buf)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, buf[:n]...)
		}
		return out
	}
	a, b := drain(build()), drain(build())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("measurement %d differs across identical replays: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestWithChurnDropsOfflineNodes: once churn starts, some measurements
// vanish; before it, none do.
func TestWithChurnDropsOfflineNodes(t *testing.T) {
	ds := NewMeridianDataset(40, 17)
	src, err := NewMatrixSource(ds, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	const start = 20.0
	churned := WithChurn(src, ChurnConfig{
		Start: start, MeanUp: 5, MeanDown: 20, Fraction: 1, Seed: 3,
	})
	buf := make([]Measurement, 8192)
	var preChurn, postChurn, total int
	for total < 40_000 {
		n, err := churned.NextBatch(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		for _, m := range buf[:n] {
			if m.T < start {
				preChurn++
			} else {
				postChurn++
			}
		}
	}
	// Before Start the stream passes through untouched: one measurement
	// advances T by 1/n, so exactly start·n−1 measurements carry T < start
	// (the start·n-th lands on T = start and is churn-eligible).
	if want := int(start)*ds.N() - 1; preChurn != want {
		t.Errorf("pre-churn measurements = %d, want %d (churn before Start)", preChurn, want)
	}
	if postChurn == 0 {
		t.Error("no measurements survived churn (MeanDown should only thin the stream)")
	}
}

// TestWithDriftScalesValues: affected measurements scale by
// exp(Rate·(T−Start)); unaffected (pre-start) ones pass through.
func TestWithDriftScalesValues(t *testing.T) {
	ds := NewMeridianDataset(30, 19)
	clean, err := NewMatrixSource(ds, 8, 19)
	if err != nil {
		t.Fatal(err)
	}
	drifted := WithDrift(clean, DriftConfig{Rate: 0.05, Start: 2, Seed: 7})
	buf := make([]Measurement, 3000)
	n, err := drifted.NextBatch(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range buf[:n] {
		truth := ds.Matrix.At(m.I, m.J)
		if m.T <= 2 {
			if m.Value != truth {
				t.Fatalf("pre-start measurement drifted: %v vs %v", m.Value, truth)
			}
			continue
		}
		want := truth * math.Exp(0.05*(m.T-2))
		if math.Abs(m.Value-want) > 1e-12*want {
			t.Fatalf("drift at T=%v: value %v, want %v", m.T, m.Value, want)
		}
	}
}

// TestNewSessionFromSourceValidation: nil sources and live sessions are
// rejected with the right sentinels.
func TestNewSessionFromSourceValidation(t *testing.T) {
	ds := NewMeridianDataset(30, 1)
	if _, err := NewSessionFromSource(ds, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil source: err = %v, want ErrInvalidConfig", err)
	}
	src, err := NewMatrixSource(ds, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSessionFromSource(ds, src, WithLive()); !errors.Is(err, ErrLiveSession) {
		t.Errorf("WithLive: err = %v, want ErrLiveSession", err)
	}
	if _, err := NewSessionFromSource(nil, src); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil dataset: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewMatrixSource(ds, ds.N(), 1); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("k=n: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewTraceSource(ds); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("trace source on static dataset: err = %v, want ErrInvalidConfig", err)
	}
}

// TestRunSourceFiltersHostileStream: out-of-range, self-pair and
// non-finite records in an external stream are discarded, not applied
// and never panic.
func TestRunSourceFiltersHostileStream(t *testing.T) {
	ds := NewMeridianDataset(30, 3)
	hostile := []Measurement{
		{T: 1, I: -1, J: 2, Value: 40},
		{T: 2, I: 0, J: 99, Value: 40},
		{T: 3, I: 5, J: 5, Value: 40},
		{T: 4, I: 0, J: 1, Value: math.NaN()},
		{T: 5, I: 0, J: 1, Value: math.Inf(1)},
	}
	sess, err := NewSessionFromSource(ds, &sliceSource{ms: hostile}, WithK(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if sess.Steps() != 0 {
		t.Fatalf("hostile records trained %d steps", sess.Steps())
	}
}

// sliceSource is a minimal custom Source for tests: a finite slice.
type sliceSource struct {
	ms  []Measurement
	pos int
}

func (s *sliceSource) NextBatch(_ context.Context, buf []Measurement) (int, error) {
	if s.pos >= len(s.ms) {
		return 0, io.EOF
	}
	n := copy(buf, s.ms[s.pos:])
	s.pos += n
	return n, nil
}

// TestRunSourceCancellable: finite replay sources never block and so
// never consult ctx themselves — the drain loops must poll it. A
// cancelled context stops trace replay (Run) and epoch replay
// (RunEpochs) promptly with the context error and no training.
func TestRunSourceCancellable(t *testing.T) {
	ds := NewHarvardDataset(40, 20_000, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	sess, err := NewSession(ds, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if sess.Steps() != 0 {
		t.Fatalf("cancelled Run trained %d steps", sess.Steps())
	}
	if _, err := sess.RunEpochs(ctx, 5, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunEpochs on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if sess.Steps() != 0 {
		t.Fatalf("cancelled RunEpochs trained %d steps", sess.Steps())
	}
}

// TestSwarmSourceStaleClose: closing a tap that has been replaced by a
// newer one must not detach the newer one.
func TestSwarmSourceStaleClose(t *testing.T) {
	ds := NewMeridianDataset(24, 15)
	sess, err := NewSession(ds,
		WithLive(), WithK(6), WithSeed(15),
		WithProbeInterval(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stale, err := NewSwarmSource(sess, 0)
	if err != nil {
		t.Fatal(err)
	}
	active, err := NewSwarmSource(sess, 0) // replaces stale
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	stale.Close() // must be a no-op for the active tap

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	buf := make([]Measurement, 16)
	if n, err := active.NextBatch(ctx, buf); err != nil || n == 0 {
		t.Fatalf("active tap after stale Close: n=%d err=%v (stale Close detached it?)", n, err)
	}
}

// TestSwarmSourceCapture: a live session's tap yields valid neighbor
// measurements, and the capture replays into a deterministic session.
func TestSwarmSourceCapture(t *testing.T) {
	ds := NewMeridianDataset(24, 12)
	sess, err := NewSession(ds,
		WithLive(), WithK(6), WithSeed(12),
		WithProbeInterval(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Deterministic sessions have replayable sources already: rejected.
	det, err := NewSession(ds, WithK(6), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	if _, err := NewSwarmSource(det, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("deterministic capture: err = %v, want ErrInvalidConfig", err)
	}

	tap, err := NewSwarmSource(sess, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	captured := make([]Measurement, 0, 512)
	buf := make([]Measurement, 256)
	for len(captured) < 300 {
		n, err := tap.NextBatch(ctx, buf)
		if err != nil {
			t.Fatalf("capture ended early after %d measurements: %v", len(captured), err)
		}
		captured = append(captured, buf[:n]...)
	}
	lastT := math.Inf(-1)
	for k, m := range captured {
		if m.I < 0 || m.I >= ds.N() || m.J < 0 || m.J >= ds.N() || m.I == m.J {
			t.Fatalf("measurement %d: invalid pair (%d,%d)", k, m.I, m.J)
		}
		if m.Value <= 0 || math.IsNaN(m.Value) {
			t.Fatalf("measurement %d: invalid RTT %v", k, m.Value)
		}
		found := false
		for _, nb := range sess.Neighbors(m.I) {
			if nb == m.J {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("measurement %d: %d probed non-neighbor %d", k, m.I, m.J)
		}
		if m.T < lastT {
			// Timestamps come from one wall clock; per-node interleaving
			// may jitter but time must not run backwards wildly.
			if lastT-m.T > 1 {
				t.Fatalf("measurement %d: time ran backwards %v -> %v", k, lastT, m.T)
			}
		}
		lastT = math.Max(lastT, m.T)
	}

	// The capture replays into a deterministic session with the same
	// topology (same seed and k).
	replay, err := NewSessionFromSource(ds, &sliceSource{ms: captured}, WithK(6), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if err := replay.Run(context.Background(), len(captured)); err != nil {
		t.Fatal(err)
	}
	if replay.Steps() == 0 {
		t.Fatal("replayed capture trained nothing")
	}
	// Closing the live session ends the stream with io.EOF.
	sess.Close()
	for {
		if _, err := tap.NextBatch(ctx, buf); err != nil {
			if err != io.EOF {
				t.Fatalf("post-close capture: err = %v, want io.EOF", err)
			}
			break
		}
	}
}
