package engine

import (
	"fmt"
	"math/rand"
	"sort"
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
	e, err := New(labels.At, neighbors, rng, Config{
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
	if _, err := New(labels.At, neighbors, rng, Config{SGD: sgd.Config{}}); err == nil {
		t.Error("invalid SGD accepted")
	}
	if _, err := New(labels.At, neighbors, rng, Config{SGD: sgd.Defaults(), TrainScale: -1}); err == nil {
		t.Error("negative TrainScale accepted")
	}
	if _, err := New(labels.At, nil, rng, Config{SGD: sgd.Defaults()}); err == nil {
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
// epoch on one worker allocates nothing, for every shard count — the
// profiler label, the sweep dispatch and the mailbox drain included.
func TestEpochAllocsIndependentOfShards(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		e := testEngine(t, 400, 10, shards, 1, false, 17)
		e.RunEpochs(10, 8) // grow the mailboxes and the drain scratch
		if allocs := testing.AllocsPerRun(100, func() { e.RunEpoch(8) }); allocs != 0 {
			t.Errorf("P=%d: %v allocs per ABW epoch, want 0", shards, allocs)
		}
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
	e, err := New(labels.At, neighbors, rng, Config{
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
	e, err := New(labels.At, neighbors, rng, Config{SGD: sgd.Defaults(), Symmetric: true, Shards: 2, Seed: 5})
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
	e, err := New(cm.At, neighbors, rng, Config{
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

// TestSequentialABWApplyOrder: ApplyLabel agrees with the documented
// Gauss-Seidel equations (pre-update vⱼ in the ABW reply).
func TestSequentialABWApplyOrder(t *testing.T) {
	cfg := sgd.Defaults()
	labels := mat.NewDense(2, 2)
	labels.Set(0, 1, 1)
	neighbors := [][]int{{1}, {0}}
	rng := rand.New(rand.NewSource(13))
	e, err := New(labels.At, neighbors, rng, Config{SGD: cfg, Symmetric: false, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c0 := e.Store().Coord(0).Clone()
	c1 := e.Store().Coord(1).Clone()
	e.ApplyLabel(0, 1, labels.At(0, 1))
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

// holedLabels returns a random ±1 label matrix over n nodes with about a
// fifth of its entries missing.
func holedLabels(n int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch r := rng.Intn(5); {
			case r == 0:
				m.SetMissing(i, j)
			case r%2 == 0:
				m.Set(i, j, 1)
			default:
				m.Set(i, j, -1)
			}
		}
	}
	return m
}

// refEpoch is one epoch as RunEpoch defines it, written out against a
// label matrix: every node, ascending, draws its probe slots from its
// private stream, reads the pair's label from m and moves its own
// vectors against the epoch-start snapshot; the ABW target updates then
// apply in (target, sender, k) order against the snapshot's uᵢ.
func refEpoch(e *Engine, m *mat.Dense, streams []*rand.Rand, probes int) {
	type delivery struct {
		target, sender int
		x              float64
	}
	rank := e.Store().Rank()
	u, v := e.Store().SnapshotFlat()
	var mail []delivery // in (sender, k) order
	for i, nb := range e.neighbors {
		c := e.Store().Coord(i)
		for k := 0; k < probes; k++ {
			j := nb[streams[i].Intn(len(nb))]
			if m.IsMissing(i, j) {
				continue
			}
			x := m.At(i, j)
			if e.cfg.Symmetric {
				e.cfg.SGD.UpdateRTT(c, u[j*rank:(j+1)*rank], v[j*rank:(j+1)*rank], x)
			} else {
				e.cfg.SGD.UpdateABWSender(c, v[j*rank:(j+1)*rank], x)
				mail = append(mail, delivery{target: j, sender: i, x: x})
			}
		}
	}
	sort.SliceStable(mail, func(a, b int) bool { return mail[a].target < mail[b].target })
	for _, d := range mail {
		e.cfg.SGD.UpdateABWTarget(e.Store().Coord(d.target), u[d.sender*rank:(d.sender+1)*rank], d.x)
	}
}

// TestSlotTableMatchesMatrix: the neighbor-slot table is only a smaller
// place to read the same labels from. Step and RunEpoch on a table-built
// engine are bit-identical to references that draw the same probes and
// read the label matrix itself (SampleProbe and ApplyLabel; refEpoch),
// and stay so after SetLabels refills the table from another matrix.
func TestSlotTableMatchesMatrix(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		const n, k = 50, 6
		before, after := holedLabels(n, 3), holedLabels(n, 4)
		mk := func() (*Engine, [][]int) {
			rng := rand.New(rand.NewSource(9))
			_, neighbors := mat.NeighborMask(n, k, symmetric, rng)
			e, err := New(before.At, neighbors, rng, Config{SGD: sgd.Defaults(), Symmetric: symmetric, Shards: 3, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			return e, neighbors
		}
		e, _ := mk()
		ref, neighbors := mk()
		refRun := func(m *mat.Dense, total int) {
			for done := 0; done < total; {
				i, s := ref.SampleProbe()
				if j := neighbors[i][s]; !m.IsMissing(i, j) {
					ref.ApplyLabel(i, j, m.At(i, j))
					done++
				}
			}
		}
		streams := make([]*rand.Rand, n)
		for i := range streams {
			streams[i] = rand.New(NewCountingSource(DeriveSeed(9, i)))
		}
		for _, m := range []*mat.Dense{before, after} {
			if m == after {
				e.SetLabels(after.At)
			}
			e.Run(3000)
			refRun(m, 3000)
			coordsEqual(t, e, ref, fmt.Sprintf("symmetric=%v steps", symmetric))
			e.RunEpochs(3, 5)
			for ep := 0; ep < 3; ep++ {
				refEpoch(ref, m, streams, 5)
			}
			coordsEqual(t, e, ref, fmt.Sprintf("symmetric=%v epochs", symmetric))
		}
	}
}
