package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dmfsgd/internal/engine"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// testEngine builds a deterministic engine over a random problem; every
// call with the same seed yields a bit-identical engine, which is what
// lets N cluster members start from the same coordinates.
func testEngine(t testing.TB, n, k, shards int, symmetric bool, seed int64) (*engine.Engine, [][]int) {
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
	e, err := engine.New(labels.At, neighbors, rng, engine.Config{
		SGD:       sgd.Defaults(),
		Symmetric: symmetric,
		Shards:    shards,
		Workers:   1,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, neighbors
}

func testBatch(neighbors [][]int, n, size int, seed int64) []engine.Sample {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]engine.Sample, 0, size)
	for len(batch) < size {
		i := rng.Intn(n)
		j := neighbors[i][rng.Intn(len(neighbors[i]))]
		label := 1.0
		if rng.Float64() < 0.5 {
			label = -1
		}
		batch = append(batch, engine.Sample{I: i, J: j, Label: label})
	}
	return batch
}

func enginesEqual(t *testing.T, ctx string, a, b *engine.Engine) {
	t.Helper()
	au, av := a.Store().SnapshotFlat()
	bu, bv := b.Store().SnapshotFlat()
	if !reflect.DeepEqual(au, bu) || !reflect.DeepEqual(av, bv) {
		t.Fatalf("%s: coordinates diverge", ctx)
	}
	if !a.Store().VersionsEqual(b.Store().Versions(nil)) {
		t.Fatalf("%s: store versions diverge: %v vs %v",
			ctx, a.Store().Versions(nil), b.Store().Versions(nil))
	}
	if a.Steps() != b.Steps() {
		t.Fatalf("%s: steps diverge: %d vs %d", ctx, a.Steps(), b.Steps())
	}
}

// soloTrainer runs a roster-of-one trainer over the batches and returns
// it — the lockstep reference every partitioned run must reproduce.
func soloTrainer(t *testing.T, symmetric bool, batches [][]engine.Sample, seed int64, n, k, shards int) *Trainer {
	t.Helper()
	e, _ := testEngine(t, n, k, shards, symmetric, seed)
	net := transport.NewNetwork(transport.NetworkConfig{})
	tr, err := New(Config{ID: 1, Trainers: []uint32{1}, Transport: net.Attach("solo"), Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for r, b := range batches {
		if applied, err := tr.Step(ctx, b); err != nil || applied != len(b) {
			t.Fatalf("solo round %d: applied %d, err %v", r, applied, err)
		}
	}
	return tr
}

// TestSingleTrainerMatchesApplyBatchCtx pins the T=1 contract: a
// roster-of-one cluster is bit-identical to the plain engine path in
// both update modes — coordinates, store versions and step counter.
func TestSingleTrainerMatchesApplyBatchCtx(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		const n, k, shards = 40, 8, 5
		ref, neighbors := testEngine(t, n, k, shards, symmetric, 7)
		var batches [][]engine.Sample
		for r := 0; r < 4; r++ {
			batches = append(batches, testBatch(neighbors, n, 300, int64(100+r)))
		}
		tr := soloTrainer(t, symmetric, batches, 7, n, k, shards)
		for _, b := range batches {
			if _, err := ref.ApplyBatchCtx(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
		enginesEqual(t, fmt.Sprintf("symmetric=%v", symmetric), ref, tr.eng)
		st := tr.Status()
		if st.Round != uint64(len(batches)) || st.Epoch != 0 || st.OwnedShards != shards {
			t.Fatalf("solo status: %+v", st)
		}
	}
}

// runCluster builds T trainers over one in-memory network, steps them
// through the batches concurrently (the barriers demand it) and returns
// them.
func runCluster(t *testing.T, ids []uint32, symmetric bool, batches [][]engine.Sample, seed int64, n, k, shards int) []*Trainer {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	trainers := make([]*Trainer, len(ids))
	for i, id := range ids {
		e, _ := testEngine(t, n, k, shards, symmetric, seed)
		tr, err := New(Config{
			ID:        id,
			Trainers:  ids,
			Transport: net.Attach(fmt.Sprintf("t%d", id)),
			Engine:    e,
			Timeout:   30 * time.Second,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		trainers[i] = tr
	}
	for i, tr := range trainers {
		for j, id := range ids {
			if i != j {
				tr.AddPeer(id, fmt.Sprintf("t%d", id))
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, len(trainers))
	for _, tr := range trainers {
		go func(tr *Trainer) {
			for _, b := range batches {
				if applied, err := tr.Step(ctx, b); err != nil {
					errs <- fmt.Errorf("trainer %d: %w", tr.cfg.ID, err)
					return
				} else if applied != len(b) {
					errs <- fmt.Errorf("trainer %d: applied %d of %d", tr.cfg.ID, applied, len(b))
					return
				}
			}
			errs <- nil
		}(tr)
	}
	// Join every trainer before failing: a survivor blocked in a barrier
	// must not log after the test has returned.
	var first error
	for range trainers {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	if first != nil {
		t.Fatal(first)
	}
	return trainers
}

// TestPartitionEquivalence is the tentpole acceptance pin: a 2- and
// 3-trainer cluster converges bit-identically to the solo lockstep run
// — every member's full coordinate view (owned shards plus mirrors),
// store version vector and step counter — with zero clock lag and
// identical per-shard vector clocks at quiescence.
func TestPartitionEquivalence(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		for _, ids := range [][]uint32{{1, 2}, {3, 1, 2}} {
			const n, k, shards = 40, 8, 5
			seed := int64(7)
			_, neighbors := testEngine(t, n, k, shards, symmetric, seed)
			var batches [][]engine.Sample
			for r := 0; r < 4; r++ {
				batches = append(batches, testBatch(neighbors, n, 300, int64(100+r)))
			}
			solo := soloTrainer(t, symmetric, batches, seed, n, k, shards)
			trainers := runCluster(t, ids, symmetric, batches, seed, n, k, shards)
			for _, tr := range trainers {
				ctx := fmt.Sprintf("symmetric=%v T=%d trainer %d", symmetric, len(ids), tr.cfg.ID)
				enginesEqual(t, ctx, solo.eng, tr.eng)
				st := tr.Status()
				if st.ClockLag != 0 {
					t.Fatalf("%s: clock lag %d at quiescence", ctx, st.ClockLag)
				}
				if st.Round != uint64(len(batches)) || st.Epoch != 0 {
					t.Fatalf("%s: status %+v", ctx, st)
				}
				if !reflect.DeepEqual(tr.clocks, trainers[0].clocks) {
					t.Fatalf("%s: vector clocks diverge:\n%v\n%v", ctx, tr.clocks, trainers[0].clocks)
				}
			}
		}
	}
}

// TestEarlyRoutedFrameHeld: with three trainers, a peer that has finished
// round r sends its round-r+1 routed frame while this trainer still waits
// for the third trainer's round-r clock terminator. The frame must be
// held for round r+1, not dropped — dropping it stalls round r+1 into a
// barrier timeout that fails over a live peer. Peers 2 and 3 are played
// by hand over the in-memory network, so the interleaving is exact.
func TestEarlyRoutedFrameHeld(t *testing.T) {
	const n, k, shards = 40, 8, 5
	e, _ := testEngine(t, n, k, shards, false, 7)
	net := transport.NewNetwork(transport.NetworkConfig{})
	tr, err := New(Config{
		ID:        1,
		Trainers:  []uint32{1, 2, 3},
		Transport: net.Attach("t1"),
		Engine:    e,
		Timeout:   500 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	peers := map[uint32]*transport.Mem{2: net.Attach("t2"), 3: net.Attach("t3")}
	tr.AddPeer(2, "t2")
	tr.AddPeer(3, "t3")
	routed := func(from uint32, round uint64) {
		buf, err := wire.AppendRoutedUpdate(nil, &wire.RoutedUpdate{From: from, Round: round, Last: true})
		if err == nil {
			err = peers[from].Send("t1", buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	clock := func(from uint32, round uint64) {
		store := e.Store()
		buf, err := wire.AppendClockDelta(nil, &wire.ClockDelta{From: from, Round: round,
			N: uint32(store.N()), Rank: uint16(store.Rank()), Shards: uint16(store.Shards())})
		if err == nil {
			err = peers[from].Send("t1", buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Round 0: both routed barriers, then trainer 2 finishes the round and
	// starts round 1 before trainer 3's clock terminator reaches us.
	routed(2, 0)
	routed(3, 0)
	clock(2, 0)
	routed(2, 1)
	clock(3, 0)
	// Round 1 from trainer 3, and both clock terminators.
	routed(3, 1)
	clock(2, 1)
	clock(3, 1)
	for r := 0; r < 2; r++ {
		if _, err := tr.Step(context.Background(), nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if st := tr.Status(); st.Round != 2 || st.Epoch != 0 || len(st.Live) != 3 {
		t.Fatalf("status after two rounds: %+v", st)
	}
}

// TestHeartbeatRound: a nil batch is a pure barrier exchange — rounds
// advance, coordinates and steps do not.
func TestHeartbeatRound(t *testing.T) {
	const n, k, shards = 40, 8, 5
	trainers := runCluster(t, []uint32{1, 2}, false, [][]engine.Sample{nil, nil, nil}, 7, n, k, shards)
	fresh, _ := testEngine(t, n, k, shards, false, 7)
	for _, tr := range trainers {
		enginesEqual(t, "heartbeat", fresh, tr.eng)
		if st := tr.Status(); st.Round != 3 || st.ClockLag != 0 {
			t.Fatalf("heartbeat status: %+v", st)
		}
	}
}

// TestFailoverHandoff: when a trainer goes silent past the barrier
// timeout, the survivor bumps the epoch, takes over every shard, keeps
// training alone, and the late peer is evicted by the broadcast map.
func TestFailoverHandoff(t *testing.T) {
	const n, k, shards = 40, 8, 5
	ids := []uint32{1, 2}
	net := transport.NewNetwork(transport.NetworkConfig{})
	var trainers []*Trainer
	var neighbors [][]int
	for _, id := range ids {
		e, nb := testEngine(t, n, k, shards, false, 7)
		neighbors = nb
		tr, err := New(Config{
			ID:        id,
			Trainers:  ids,
			Transport: net.Attach(fmt.Sprintf("t%d", id)),
			Engine:    e,
			Timeout:   200 * time.Millisecond,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		trainers = append(trainers, tr)
	}
	a, b := trainers[0], trainers[1]
	a.AddPeer(2, "t2")
	b.AddPeer(1, "t1")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Two healthy joint rounds.
	for r := 0; r < 2; r++ {
		batch := testBatch(neighbors, n, 300, int64(100+r))
		errs := make(chan error, 2)
		for _, tr := range trainers {
			go func(tr *Trainer) {
				_, err := tr.Step(ctx, batch)
				errs <- err
			}(tr)
		}
		for range trainers {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	// Trainer 2 goes silent: trainer 1's next round must abort into a
	// failover that hands it every shard.
	if _, err := a.Step(ctx, testBatch(neighbors, n, 300, 102)); !errors.Is(err, ErrRoundAborted) {
		t.Fatalf("silent peer round: err %v, want ErrRoundAborted", err)
	}
	st := a.Status()
	if st.Epoch != 1 || st.OwnedShards != shards || len(st.Live) != 1 || st.Live[0] != 1 {
		t.Fatalf("post-failover status: %+v", st)
	}

	// The survivor serves and trains every shard alone.
	batch := testBatch(neighbors, n, 300, 103)
	if applied, err := a.Step(ctx, batch); err != nil || applied != len(batch) {
		t.Fatalf("solo round after failover: applied %d, err %v", applied, err)
	}

	// The suspect was merely slow: the queued ownership map evicts it.
	if _, err := b.Step(ctx, nil); !errors.Is(err, ErrEvicted) {
		t.Fatalf("late peer: err %v, want ErrEvicted", err)
	}
	if _, err := b.Step(ctx, nil); !errors.Is(err, ErrEvicted) {
		t.Fatal("eviction must be sticky")
	}
}

func TestNewValidation(t *testing.T) {
	e, _ := testEngine(t, 40, 8, 5, false, 7)
	net := transport.NewNetwork(transport.NetworkConfig{})
	tp := net.Attach("x")
	cases := []Config{
		{ID: 1, Trainers: []uint32{1}, Engine: e},                               // nil transport
		{ID: 1, Trainers: []uint32{1}, Transport: tp},                           // nil engine
		{ID: 1, Trainers: []uint32{2, 3}, Transport: tp, Engine: e},             // self missing
		{ID: 1, Trainers: []uint32{1, 1}, Transport: tp, Engine: e},             // duplicate id
		{ID: 1, Trainers: []uint32{1, 2, 3, 4, 5, 6}, Transport: tp, Engine: e}, // trainers > shards
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestWaitRoster(t *testing.T) {
	e, _ := testEngine(t, 40, 8, 5, false, 7)
	net := transport.NewNetwork(transport.NetworkConfig{})
	tr, err := New(Config{ID: 1, Trainers: []uint32{1, 2}, Transport: net.Attach("t1"), Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := tr.WaitRoster(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("incomplete roster: err %v", err)
	}
	cancel()
	tr.AddPeer(2, "t2")
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := tr.WaitRoster(ctx2); err != nil {
		t.Fatalf("complete roster: %v", err)
	}
}
