package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmfsgd/internal/sgd"
	"dmfsgd/internal/vec"
)

// testBatch draws a deterministic batch of neighbor-pair samples with ±1
// labels, including repeated observers so per-node ordering matters.
func testBatch(e *Engine, size int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	n := e.N()
	batch := make([]Sample, 0, size)
	for len(batch) < size {
		i := rng.Intn(n)
		j := e.neighbors[i][rng.Intn(len(e.neighbors[i]))]
		label := 1.0
		if rng.Float64() < 0.5 {
			label = -1
		}
		batch = append(batch, Sample{I: i, J: j, Label: label})
	}
	return batch
}

// TestApplyBatchShardIndependence: for a fixed batch the resulting
// coordinates are bit-identical for every shard/worker count, in both
// update modes, including across several consecutive batches (the
// batch-start snapshot refresh must track the store correctly).
func TestApplyBatchShardIndependence(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		for _, shards := range []int{2, 4, 7} {
			ref := testEngine(t, 60, 8, 1, 1, symmetric, 7)
			e := testEngine(t, 60, 8, shards, shards, symmetric, 7)
			for round := 0; round < 3; round++ {
				batch := testBatch(ref, 500, int64(100+round))
				nRef := ref.ApplyBatch(batch)
				nGot := e.ApplyBatch(batch)
				if nRef != nGot {
					t.Fatalf("symmetric=%v shards=%d round %d: applied %d vs %d", symmetric, shards, round, nGot, nRef)
				}
				coordsEqual(t, ref, e, "batch apply")
			}
			if ref.Steps() != e.Steps() {
				t.Fatalf("steps diverge: %d vs %d", ref.Steps(), e.Steps())
			}
		}
	}
}

// TestApplyBatchMatchesManualEpoch: one symmetric batch equals a manual
// Jacobi-style pass — every peer read from the batch-start snapshot,
// per-node samples applied in batch order.
func TestApplyBatchMatchesManualEpoch(t *testing.T) {
	e := testEngine(t, 24, 5, 3, 2, true, 3)
	// Pre-train a little so the snapshot is not the initial state.
	e.Run(200)

	rank := e.store.rank
	u := make([]float64, e.N()*rank)
	v := make([]float64, e.N()*rank)
	e.store.SnapshotInto(u, v)
	manual := make(map[int]*sgd.Coordinates)
	for i := 0; i < e.N(); i++ {
		manual[i] = e.store.Coord(i).Clone()
	}

	batch := testBatch(e, 300, 42)
	for _, sm := range batch {
		ju := u[sm.J*rank : (sm.J+1)*rank]
		jv := v[sm.J*rank : (sm.J+1)*rank]
		e.cfg.SGD.UpdateRTT(manual[sm.I], ju, jv, sm.Label)
	}

	if got := e.ApplyBatch(batch); got != len(batch) {
		t.Fatalf("applied %d of %d", got, len(batch))
	}
	for i := 0; i < e.N(); i++ {
		c := e.store.Coord(i)
		if !vec.Equal(c.U, manual[i].U, 0) || !vec.Equal(c.V, manual[i].V, 0) {
			t.Fatalf("node %d diverges from the manual epoch apply", i)
		}
	}
}

// TestApplyBatchVersions: only shards whose nodes were written advance.
func TestApplyBatchVersions(t *testing.T) {
	e := testEngine(t, 20, 4, 4, 2, true, 5)
	before := e.store.Versions(nil)
	// All samples observed by node 1: only shard 1 mod 4 should move.
	j := e.neighbors[1][0]
	n := e.ApplyBatch([]Sample{{I: 1, J: j, Label: 1}, {I: 1, J: j, Label: -1}})
	if n != 2 {
		t.Fatalf("applied %d, want 2", n)
	}
	after := e.store.Versions(nil)
	for p := range after {
		moved := after[p] != before[p]
		if p == 1%4 && !moved {
			t.Errorf("shard %d did not advance", p)
		}
		if p != 1%4 && moved {
			t.Errorf("shard %d advanced without writes", p)
		}
	}
}

// TestApplyBatchValidation: bad samples are rejected before any apply.
func TestApplyBatchValidation(t *testing.T) {
	e := testEngine(t, 10, 3, 2, 2, true, 1)
	before := e.store.Versions(nil)
	cases := [][]Sample{
		{{I: -1, J: 2, Label: 1}},
		{{I: 0, J: 10, Label: 1}},
		{{I: 3, J: 3, Label: 1}},
		{{I: 0, J: 1, Label: math.NaN()}},
		{{I: 0, J: 1, Label: math.Inf(1)}},
	}
	for _, batch := range cases {
		if _, err := e.ApplyBatchCtx(context.Background(), batch); err == nil {
			t.Errorf("batch %+v accepted", batch)
		}
	}
	if !e.store.VersionsEqual(before) {
		t.Error("rejected batches mutated the store")
	}
	if e.Steps() != 0 {
		t.Errorf("rejected batches counted %d steps", e.Steps())
	}
}

// TestApplyBatchCancelled: a cancelled context aborts between shard
// sweeps, leaves the store valid and returns the context error.
func TestApplyBatchCancelled(t *testing.T) {
	e := testEngine(t, 40, 6, 4, 2, true, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := e.ApplyBatchCtx(ctx, testBatch(e, 100, 1))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("cancelled-before-start batch applied %d samples", n)
	}
}

// ownershipMask marks shards [0,split) as owned when lower, the rest
// when !lower.
func ownershipMask(p, split int, lower bool) []bool {
	owned := make([]bool, p)
	for s := range owned {
		owned[s] = (s < split) == lower
	}
	return owned
}

// TestApplyBatchOwnedPartition: two engines, each owning a disjoint half
// of the shards, that exchange routed target updates and mirror each
// other's owned blocks reproduce a single engine's ApplyBatchCtx
// bit-identically — the cluster lockstep round in miniature. Routed
// tuples cross a process boundary, so the pair also commits them in a
// seeded shuffled order and reversed: the result must not depend on the
// order they arrive in.
func TestApplyBatchOwnedPartition(t *testing.T) {
	orders := []struct {
		name    string
		reorder func(rng *rand.Rand, routed []RoutedTarget)
	}{
		{"as routed", func(*rand.Rand, []RoutedTarget) {}},
		{"shuffled", func(rng *rand.Rand, routed []RoutedTarget) {
			rng.Shuffle(len(routed), func(a, b int) { routed[a], routed[b] = routed[b], routed[a] })
		}},
		{"reversed", func(_ *rand.Rand, routed []RoutedTarget) { slices.Reverse(routed) }},
	}
	for _, order := range orders {
		for _, symmetric := range []bool{true, false} {
			ref := testEngine(t, 30, 6, 5, 2, symmetric, 11)
			e0 := testEngine(t, 30, 6, 5, 2, symmetric, 11)
			e1 := testEngine(t, 30, 6, 5, 2, symmetric, 11)
			p := ref.Store().Shards()
			own0 := ownershipMask(p, 2, true)
			own1 := ownershipMask(p, 2, false)
			rng := rand.New(rand.NewSource(29))
			ctx := fmt.Sprintf("%s symmetric=%v", order.name, symmetric)
			for round := 0; round < 3; round++ {
				batch := testBatch(ref, 400, int64(7+round))
				nRef, err := ref.ApplyBatchCtx(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				n0, routed0, err := e0.ApplyBatchOwned(context.Background(), batch, own0)
				if err != nil {
					t.Fatal(err)
				}
				n1, routed1, err := e1.ApplyBatchOwned(context.Background(), batch, own1)
				if err != nil {
					t.Fatal(err)
				}
				if symmetric && (len(routed0) > 0 || len(routed1) > 0) {
					t.Fatal("symmetric apply produced routed updates")
				}
				if n0+n1 != nRef {
					t.Fatalf("%s: partition applied %d+%d, reference %d", ctx, n0, n1, nRef)
				}
				order.reorder(rng, routed0)
				order.reorder(rng, routed1)
				if err := e0.CommitBatchTargets(context.Background(), routed1, own0); err != nil {
					t.Fatal(err)
				}
				if err := e1.CommitBatchTargets(context.Background(), routed0, own1); err != nil {
					t.Fatal(err)
				}
				// Mirror the owned blocks across the pair, owner's version
				// travelling with the rows.
				for s := 0; s < p; s++ {
					owner, mirror := e0, e1
					if own1[s] {
						owner, mirror = e1, e0
					}
					rows := owner.Store().ShardNodeCount(s) * owner.Store().Rank()
					u, v := make([]float64, rows), make([]float64, rows)
					ver := owner.Store().SnapshotShardBlock(s, u, v)
					mirror.Store().SetShardBlock(s, u, v, ver)
				}
				coordsEqual(t, ref, e0, ctx+": trainer 0")
				coordsEqual(t, ref, e1, ctx+": trainer 1")
				if !e0.Store().VersionsEqual(e1.Store().Versions(nil)) {
					t.Fatalf("%s: version vectors diverge across the pair", ctx)
				}
			}
		}
	}
}

// TestCommitBatchTargetsValidation: inbound routed updates crossing the
// process boundary are rejected before any apply.
func TestCommitBatchTargetsValidation(t *testing.T) {
	e := testEngine(t, 10, 3, 2, 1, false, 3)
	owned := []bool{true, false}
	if _, _, err := e.ApplyBatchOwned(context.Background(), testBatch(e, 10, 1), owned); err != nil {
		t.Fatal(err)
	}
	before := e.store.Versions(nil)
	cases := [][]RoutedTarget{
		{{Target: -1, Sender: 0, X: 1}},
		{{Target: 0, Sender: 10, X: 1}},
		{{Target: 1, Sender: 0, X: 1}}, // shard 1 is not owned
		{{Target: 0, Sender: 1, X: math.NaN()}},
	}
	for _, inbound := range cases {
		if err := e.CommitBatchTargets(context.Background(), inbound, owned); err == nil {
			t.Errorf("inbound %+v accepted", inbound)
		}
	}
	if !e.store.VersionsEqual(before) {
		t.Error("rejected inbound mutated the store")
	}
}

// cancelAfter is a context that reports cancellation once Err has
// returned nil n times: a cancellation that lands inside a call, between
// two of its checks.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestCancelledCommitDropsInbound: routed tuples handed to a cancelled
// CommitBatchTargets — cancelled before the call, or during it — drop
// with the rest of the round's undelivered mail. The next epoch starts
// from empty mailboxes, so the engine stays bit-identical to a twin that
// was given no tuples.
func TestCancelledCommitDropsInbound(t *testing.T) {
	before, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		ctx  func() context.Context
	}{
		{"cancelled before", func() context.Context { return before }},
		{"cancelled during", func() context.Context { return &cancelAfter{Context: context.Background(), n: 1} }},
	} {
		e := testEngine(t, 20, 4, 2, 1, false, 23)
		twin := testEngine(t, 20, 4, 2, 1, false, 23)
		owned := []bool{true, false}
		batch := testBatch(e, 50, 3)
		inbound := []RoutedTarget{{Target: 0, Sender: 1, K: 0, X: 1}, {Target: 2, Sender: 3, K: 1, X: -1}}
		for _, run := range []struct {
			e       *Engine
			inbound []RoutedTarget
		}{{e, inbound}, {twin, nil}} {
			if _, _, err := run.e.ApplyBatchOwned(context.Background(), batch, owned); err != nil {
				t.Fatal(err)
			}
			if err := run.e.CommitBatchTargets(c.ctx(), run.inbound, owned); err != nil {
				t.Fatal(err)
			}
			run.e.RunEpoch(4)
		}
		coordsEqual(t, e, twin, c.name+": epoch after the commit")
	}
}
