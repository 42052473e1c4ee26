package dmfsgd

import (
	"context"
	"errors"
	"math"
	goruntime "runtime"
	"testing"
	"time"
)

// waitNoLeak asserts the goroutine count returns to at most base within a
// grace period — the "no leaked goroutines" check of the cancellation
// tests.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", base, goruntime.NumGoroutine())
}

func TestSessionOptionValidation(t *testing.T) {
	ds := NewMeridianDataset(30, 1)
	cases := []struct {
		name string
		opt  Option
	}{
		{"rank", WithRank(0)},
		{"eta", WithLearningRate(-1)},
		{"lambda", WithLambda(-0.1)},
		{"loss", WithLoss(Loss(99))},
		{"k", WithK(-3)},
		{"shards", WithShards(0)},
		{"workers", WithWorkers(0)},
		{"probe-interval", WithProbeInterval(0)},
		{"noise", WithMeasurementNoise(-1)},
		{"packet-loss", WithPacketLoss(1.5, 0)},
	}
	for _, tc := range cases {
		if _, err := NewSession(ds, tc.opt); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
	if _, err := NewSession(nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil dataset: err = %v", err)
	}
	// Topology bound checked against the dataset.
	if _, err := NewSession(ds, WithK(30)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("k >= n: err = %v", err)
	}
}

func TestSessionExplicitZeroOptions(t *testing.T) {
	ds := NewMeridianDataset(40, 2)
	// WithTau(0) is an explicit threshold, not "use the median".
	sess, err := NewSession(ds, WithTau(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Tau() != 0 {
		t.Errorf("explicit tau 0 became %v", sess.Tau())
	}
	// Unset tau falls back to the dataset median.
	sess2, err := NewSession(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if sess2.Tau() != ds.Median() {
		t.Errorf("default tau = %v, want median %v", sess2.Tau(), ds.Median())
	}
	// WithLoss(LossL2) needs no workaround (LossL2 is the zero Loss).
	sess3, err := NewSession(ds, WithLoss(LossL2), WithLambda(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess3.Close()
	if sess3.set.loss != LossL2 {
		t.Errorf("explicit LossL2 became %v", sess3.set.loss)
	}
	if sess3.set.lambda != 0 {
		t.Errorf("explicit lambda 0 became %v", sess3.set.lambda)
	}
}

func TestSessionRunCancelled(t *testing.T) {
	ds := NewMeridianDataset(50, 3)
	sess, err := NewSession(ds, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := goruntime.NumGoroutine()
	if err := sess.Run(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: err = %v", err)
	}
	if sess.Steps() != 0 {
		t.Errorf("cancelled-before-start run performed %d steps", sess.Steps())
	}
	waitNoLeak(t, base)
}

// TestSessionRunEpochsCancelMidEpoch: cancellation lands while the shard
// workers are mid-sweep; the call returns the context error promptly, the
// store stays usable, and no worker goroutines are left behind.
func TestSessionRunEpochsCancelMidEpoch(t *testing.T) {
	ds := NewMeridianDataset(300, 4)
	sess, err := NewSession(ds, WithSeed(4), WithShards(8), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	base := goruntime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel once the first epoch has completed, not after a fixed
	// sleep: the first epoch also seeds every node's RNG stream, and on
	// a slow machine it alone can outlast any short timer.
	progress := sess.Watch(ctx)
	go func() {
		<-progress
		cancel()
	}()
	// Far more epochs than can complete before the cancel lands: it
	// must land mid-flight.
	n, err := sess.RunEpochs(ctx, 1_000_000, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n == 0 {
		t.Error("no updates before cancellation — cancel landed before any epoch?")
	}
	waitNoLeak(t, base)
	// The partially trained store still answers predictions.
	_ = sess.Predict(0, 1)
	if _, err := sess.AUC(context.Background(), 1000); err != nil {
		t.Errorf("AUC after cancelled training: %v", err)
	}
}

// TestSessionEvalCancelMidSweep: a context that expires during the
// block-parallel evaluation aborts it with the context error and joins
// every eval worker.
func TestSessionEvalCancelMidSweep(t *testing.T) {
	ds := NewMeridianDataset(400, 6)
	sess, err := NewSession(ds, WithSeed(6), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunEpochs(context.Background(), 1, 8); err != nil {
		t.Fatal(err)
	}
	base := goruntime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.AUC(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("AUC on cancelled ctx: err = %v", err)
	}
	if _, err := sess.Confusion(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Confusion on cancelled ctx: err = %v", err)
	}
	waitNoLeak(t, base)
}

// TestSessionRunEpochsDynamicTrace: epoch training on a trace dataset
// now trains on per-epoch measurement groups instead of returning
// ErrDynamicTrace — the sentinel survives only for sources with no
// epoch structure (TestRunEpochsNoEpochStructure).
func TestSessionRunEpochsDynamicTrace(t *testing.T) {
	ds := NewHarvardDataset(40, 20000, 7)
	sess, err := NewSession(ds, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	n, err := sess.RunEpochs(context.Background(), 5, 10)
	if err != nil {
		t.Fatalf("RunEpochs on trace dataset: %v", err)
	}
	if n == 0 {
		t.Fatal("epoch-mode trace replay made no updates")
	}
	auc, err := sess.AUC(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(auc) || auc <= 0 || auc > 1 {
		t.Fatalf("epoch-mode trace replay AUC = %v, want a finite value in (0,1]", auc)
	}
	// A second session at the same seed trains the same way.
	again, err := NewSession(ds, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if an, err := again.RunEpochs(context.Background(), 5, 10); err != nil || an != n {
		t.Fatalf("second RunEpochs = (%d, %v), want (%d, nil)", an, err, n)
	}
	// Run on a fresh session still replays the trace in time order.
	fresh, err := NewSession(ds, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Run(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	if fresh.Steps() == 0 {
		t.Error("trace replay made no updates")
	}
}

func TestSessionInvalidEpochArgs(t *testing.T) {
	ds := NewMeridianDataset(30, 8)
	sess, err := NewSession(ds, WithSeed(8), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunEpochs(context.Background(), 1, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("probesPerNode=0: err = %v", err)
	}
	if _, err := sess.RunEpochs(context.Background(), -1, 5); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("epochs=-1: err = %v", err)
	}
}

func TestSessionClose(t *testing.T) {
	ds := NewMeridianDataset(30, 9)
	sess, err := NewSession(ds, WithSeed(9), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
	if err := sess.Run(context.Background(), 100); !errors.Is(err, ErrStopped) {
		t.Errorf("Run after Close: err = %v, want ErrStopped", err)
	}
	if _, err := sess.RunEpochs(context.Background(), 1, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("RunEpochs after Close: err = %v, want ErrStopped", err)
	}
	// Snapshots outlive the session.
	_ = snap.Predict(0, 1)
	// Watch on a closed session returns a closed channel.
	if _, ok := <-sess.Watch(context.Background()); ok {
		t.Error("Watch after Close delivered a sample")
	}
}

func TestSessionWatch(t *testing.T) {
	ds := NewMeridianDataset(60, 11)
	sess, err := NewSession(ds, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch := sess.Watch(ctx)
	if err := sess.Run(context.Background(), 30000); err != nil {
		t.Fatal(err)
	}
	var got []Progress
	for len(got) < 1 {
		p, ok := <-ch
		if !ok {
			t.Fatal("watch channel closed before any sample")
		}
		got = append(got, p)
	}
	if got[0].Steps == 0 || got[0].Target != 30000 {
		t.Errorf("first sample = %+v", got[0])
	}
	cancel()
	// The channel must close once the watcher's context is cancelled.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watch channel not closed after cancel")
		}
	}
}

func TestSessionLiveBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent live swarm")
	}
	ds := NewHPS3Dataset(30, 10)
	sess, err := NewSession(ds,
		WithLive(),
		WithProbeInterval(200*time.Microsecond),
		WithSeed(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Live() {
		t.Fatal("session not live")
	}
	// Run waits for the update budget to accumulate.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Run(ctx, 500); err != nil {
		t.Fatalf("live Run: %v", err)
	}
	if sess.Steps() < 500 {
		t.Errorf("steps = %d after budget-500 Run", sess.Steps())
	}
	if _, err := sess.RunEpochs(context.Background(), 1, 1); !errors.Is(err, ErrLiveSession) {
		t.Errorf("live RunEpochs: err = %v, want ErrLiveSession", err)
	}
	if auc, err := sess.AUC(ctx, 0); err != nil || auc < 0.5 {
		t.Errorf("live AUC = %v, %v", auc, err)
	}
}
