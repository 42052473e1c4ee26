package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/vec"
)

// testProblem builds a synthetic n-node topology with ±1 labels and the
// protocol's neighbor mask, plus a fresh master rng positioned exactly
// where sim.Driver would leave it (after mask construction).
func testProblem(t testing.TB, n, k int, symmetric bool, seed int64) (*mat.Dense, [][]int, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	_, neighbors := mat.NeighborMask(n, k, symmetric, rng)
	labels := mat.NewDense(n, n)
	lrng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if lrng.Float64() < 0.5 {
				labels.Set(i, j, 1)
			} else {
				labels.Set(i, j, -1)
			}
		}
	}
	return labels, neighbors, rng
}

func testEngine(t testing.TB, n, k, shards, workers int, symmetric bool, seed int64) *Engine {
	t.Helper()
	labels, neighbors, rng := testProblem(t, n, k, symmetric, seed)
	e, err := New(labels, neighbors, rng, Config{
		SGD:       sgd.Defaults(),
		Symmetric: symmetric,
		Shards:    shards,
		Workers:   workers,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func coordsEqual(t *testing.T, a, b *Engine, ctx string) {
	t.Helper()
	for i := 0; i < a.N(); i++ {
		ca, cb := a.Store().Coord(i), b.Store().Coord(i)
		if !vec.Equal(ca.U, cb.U, 0) || !vec.Equal(ca.V, cb.V, 0) {
			t.Fatalf("%s: node %d coordinates diverge", ctx, i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	labels, neighbors, rng := testProblem(t, 10, 3, true, 1)
	if _, err := New(labels, neighbors, rng, Config{SGD: sgd.Config{}}); err == nil {
		t.Error("invalid SGD accepted")
	}
	wrong := mat.NewDense(4, 4)
	if _, err := New(wrong, neighbors, rng, Config{SGD: sgd.Defaults()}); err == nil {
		t.Error("label dimension mismatch accepted")
	}
	if _, err := New(labels, neighbors, rng, Config{SGD: sgd.Defaults(), TrainScale: -1}); err == nil {
		t.Error("negative TrainScale accepted")
	}
	if _, err := New(labels, nil, rng, Config{SGD: sgd.Defaults()}); err == nil {
		t.Error("empty topology accepted")
	}
}

// TestSequentialIdenticalAcrossShards: the sharded store is a pure layout
// change for the sequential schedule — coordinates after a fixed-seed run
// are bit-identical for every P.
func TestSequentialIdenticalAcrossShards(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		e1 := testEngine(t, 60, 8, 1, 1, symmetric, 7)
		e8 := testEngine(t, 60, 8, 8, 1, symmetric, 7)
		coordsEqual(t, e1, e8, "after init")
		e1.Run(4000)
		e8.Run(4000)
		if e1.Steps() != e8.Steps() {
			t.Fatalf("steps %d vs %d", e1.Steps(), e8.Steps())
		}
		coordsEqual(t, e1, e8, "after run")
	}
}

// TestEpochDeterminismAcrossShards is the determinism contract of the
// parallel scheduler: same seed ⇒ bit-identical coordinates whether the
// epoch runs on 1 shard or many, with 1 worker or many. 61 nodes leave
// every multi-shard partition ragged (shards of unequal size).
func TestEpochDeterminismAcrossShards(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		e1 := testEngine(t, 61, 8, 1, 1, symmetric, 11)
		// The stores are initialized from an identical rng state, so the
		// starting coordinates agree; epochs must preserve that.
		n1 := e1.RunEpochs(5, 10)
		for _, shards := range []int{2, 3, 5, 8} {
			e := testEngine(t, 61, 8, shards, 4, symmetric, 11)
			if n := e.RunEpochs(5, 10); n != n1 {
				t.Fatalf("symmetric=%v shards=%d: updates %d vs %d", symmetric, shards, n, n1)
			}
			coordsEqual(t, e1, e, fmt.Sprintf("symmetric=%v shards=%d after epochs", symmetric, shards))
		}
	}
}

// TestEpochAllocsIndependentOfShards: once its scratch has grown, an ABW
// epoch allocates the same for every shard count — the mailbox drain adds
// nothing per shard.
func TestEpochAllocsIndependentOfShards(t *testing.T) {
	allocs := map[int]float64{}
	for _, shards := range []int{1, 4, 8} {
		e := testEngine(t, 400, 10, shards, 1, false, 17)
		e.RunEpochs(10, 8) // grow the mailboxes and the drain scratch
		allocs[shards] = testing.AllocsPerRun(100, func() { e.RunEpoch(8) })
	}
	if allocs[4] != allocs[1] || allocs[8] != allocs[1] {
		t.Fatalf("allocs per ABW epoch by shard count = %v, want equal", allocs)
	}
}

// TestEpochCrossShardRouting verifies the mailbox path against the update
// equations by hand: two ABW nodes in different shards probe each other
// once; the sender update uses the epoch-start vⱼ, the routed target
// update the epoch-start uᵢ.
func TestEpochCrossShardRouting(t *testing.T) {
	cfg := sgd.Defaults()
	labels := mat.NewDense(2, 2)
	labels.Set(0, 1, 1)
	labels.Set(1, 0, -1)
	neighbors := [][]int{{1}, {0}}
	rng := rand.New(rand.NewSource(3))
	e, err := New(labels, neighbors, rng, Config{
		SGD: cfg, Symmetric: false, Shards: 2, Workers: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Store().ShardOf(0) == e.Store().ShardOf(1) {
		t.Fatal("nodes must land in different shards")
	}
	// Epoch-start state.
	c0 := e.Store().Coord(0).Clone()
	c1 := e.Store().Coord(1).Clone()

	if got := e.RunEpoch(1); got != 2 {
		t.Fatalf("updates = %d, want 2", got)
	}

	// Expected: probe phase fires both sender updates (eq. 12) against
	// snapshot Vs, then the drain applies both routed target updates
	// (eq. 13) against snapshot Us.
	want0, want1 := c0.Clone(), c1.Clone()
	cfg.UpdateABWSender(want0, c1.V, 1)
	cfg.UpdateABWSender(want1, c0.V, -1)
	cfg.UpdateABWTarget(want0, c1.U, -1) // node 1's probe of 0
	cfg.UpdateABWTarget(want1, c0.U, 1)  // node 0's probe of 1

	g0, g1 := e.Store().Coord(0), e.Store().Coord(1)
	if !vec.Equal(g0.U, want0.U, 0) || !vec.Equal(g0.V, want0.V, 0) {
		t.Errorf("node 0: got (%v,%v), want (%v,%v)", g0.U, g0.V, want0.U, want0.V)
	}
	if !vec.Equal(g1.U, want1.U, 0) || !vec.Equal(g1.V, want1.V, 0) {
		t.Errorf("node 1: got (%v,%v), want (%v,%v)", g1.U, g1.V, want1.U, want1.V)
	}
}

// TestEpochSkipsMissingPairs: probes of missing labels fail without
// retry and without counting.
func TestEpochSkipsMissingPairs(t *testing.T) {
	labels := mat.NewMissing(4, 4)
	neighbors := [][]int{{1}, {0}, {3}, {2}}
	rng := rand.New(rand.NewSource(5))
	e, err := New(labels, neighbors, rng, Config{SGD: sgd.Defaults(), Symmetric: true, Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Store().Coord(0).Clone()
	if got := e.RunEpoch(3); got != 0 {
		t.Fatalf("updates = %d, want 0", got)
	}
	after := e.Store().Coord(0)
	if !vec.Equal(before.U, after.U, 0) {
		t.Error("missing labels moved coordinates")
	}
	if got := e.RunEpochBudget(100, 3); got != 0 {
		t.Fatalf("budget loop on unmeasurable topology returned %d", got)
	}
}

// TestEpochLearnsRTT: the parallel Jacobi schedule must reach the same
// quality bar as the sequential driver on the headline RTT task.
func TestEpochLearnsRTT(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 80, Seed: 21})
	auc := epochAUC(t, ds, true, 4, 21)
	if auc < 0.85 {
		t.Errorf("epoch RTT AUC = %v, want >= 0.85", auc)
	}
}

// TestEpochLearnsABW: same bar for the asymmetric (mailbox-routed) path.
func TestEpochLearnsABW(t *testing.T) {
	ds := dataset.HPS3(dataset.HPS3Config{N: 80, Seed: 22})
	auc := epochAUC(t, ds, false, 4, 22)
	if auc < 0.80 {
		t.Errorf("epoch ABW AUC = %v, want >= 0.80", auc)
	}
}

// epochAUC trains with RunEpochBudget at the paper budget and evaluates on
// the unmeasured pairs.
func epochAUC(t *testing.T, ds *dataset.Dataset, symmetric bool, shards int, seed int64) float64 {
	t.Helper()
	const k = 10
	tau := ds.Median()
	cm := classify.Matrix(ds, tau)
	rng := rand.New(rand.NewSource(seed))
	trainMask, neighbors := mat.NeighborMask(ds.N(), k, ds.Metric.Symmetric(), rng)
	e, err := New(cm, neighbors, rng, Config{
		SGD: sgd.Defaults(), Symmetric: symmetric, Shards: shards, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunEpochBudget(20*k*ds.N(), k)

	labels, scores := EvalSet(e.Store(), EvalSpec{
		Mask:   trainMask,
		Truth:  ds.Matrix,
		Metric: ds.Metric,
		Tau:    tau,
	})
	return eval.AUC(labels, scores)
}

// TestSequentialMatchesDriverSemantics: ApplyLabel and Apply agree with
// the documented Gauss-Seidel equations (pre-update vⱼ in the ABW reply).
func TestSequentialABWApplyOrder(t *testing.T) {
	cfg := sgd.Defaults()
	labels := mat.NewDense(2, 2)
	labels.Set(0, 1, 1)
	neighbors := [][]int{{1}, {0}}
	rng := rand.New(rand.NewSource(13))
	e, err := New(labels, neighbors, rng, Config{SGD: cfg, Symmetric: false, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c0 := e.Store().Coord(0).Clone()
	c1 := e.Store().Coord(1).Clone()
	if !e.Apply(0, 1) {
		t.Fatal("apply failed")
	}
	want0, want1 := c0.Clone(), c1.Clone()
	cfg.UpdateABWTarget(want1, c0.U, 1)
	cfg.UpdateABWSender(want0, c1.V, 1) // pre-update v₁
	g0, g1 := e.Store().Coord(0), e.Store().Coord(1)
	if !vec.Equal(g1.V, want1.V, 0) || !vec.Equal(g0.U, want0.U, 0) {
		t.Error("sequential ABW apply deviates from Algorithm 2")
	}
	if e.Steps() != 1 {
		t.Errorf("steps = %d", e.Steps())
	}
}
