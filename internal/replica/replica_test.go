package replica

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dmfsgd/internal/engine"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// engineCoords shortens the Ref.Update callback signature.
type engineCoords = sgd.Coordinates

// storeState captures a full State from an engine store — the trainer-side
// path the tests and benchmarks share.
func storeState(t testing.TB, base *State, store *engine.Store, meta Meta) *State {
	t.Helper()
	u, v := store.SnapshotFlat()
	st, err := Update(base, store.N(), store.Rank(), store.Shards(), meta, store.Versions(nil), u, v)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testStore builds an initialized store and a State over it.
func testStore(t testing.TB, n, rank, shards int, seed int64) (*engine.Store, *State) {
	t.Helper()
	store := engine.NewStore(n, rank, shards)
	store.InitUniform(rand.New(rand.NewSource(seed)))
	return store, storeState(t, nil, store, Meta{Steps: 10, Tau: 1.5, Metric: 0})
}

// deltaFor builds one unbudgeted delta frame carrying the requested
// shards (a header-only frame when none are held).
func deltaFor(t testing.TB, st *State, from uint32, shards []uint16) *wire.Delta {
	t.Helper()
	ds, err := st.DeltasFor(from, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	switch len(ds) {
	case 0:
		return st.deltaHeader(from)
	case 1:
		return ds[0]
	}
	t.Fatalf("unbudgeted delta split into %d frames", len(ds))
	return nil
}

// rowOf returns node i's U and V rows, read through Blocks.
func rowOf(st *State, i int) (u, v []float64) {
	bu, bv := st.Blocks()
	p, li, r := i%st.Shards, i/st.Shards, st.Rank
	return bu[p][li*r : (li+1)*r], bv[p][li*r : (li+1)*r]
}

func statesEqual(t *testing.T, a, b *State, ctx string) {
	t.Helper()
	for i := 0; i < a.N; i++ {
		au, av := rowOf(a, i)
		bu, bv := rowOf(b, i)
		for r := range au {
			if au[r] != bu[r] || av[r] != bv[r] {
				t.Fatalf("%s: node %d coordinate %d differs", ctx, i, r)
			}
		}
	}
}

func TestStateRowsMatchStore(t *testing.T) {
	store, st := testStore(t, 11, 3, 4, 1)
	u, v := store.SnapshotFlat()
	for i := 0; i < 11; i++ {
		ru, rv := rowOf(st, i)
		for r := 0; r < 3; r++ {
			if ru[r] != u[i*3+r] || rv[r] != v[i*3+r] {
				t.Fatalf("node %d row %d differs from store", i, r)
			}
		}
	}
}

// TestUpdateSharesQuietBlocks: trainer-side incremental capture reuses the
// blocks of shards whose version did not advance.
func TestUpdateSharesQuietBlocks(t *testing.T) {
	store, st := testStore(t, 10, 2, 4, 2)
	// Advance shard 1 only.
	store.Ref(5).Update(func(c *engineCoords) bool { c.U[0] = 42; return true })
	next := storeState(t, st, store, Meta{Steps: 11, Tau: 1.5})
	for p := 0; p < 4; p++ {
		shared := &next.blocks[p].u[0] == &st.blocks[p].u[0]
		if p == 1 && shared {
			t.Error("advanced shard 1 shares its block with the base")
		}
		if p != 1 && !shared {
			t.Errorf("quiet shard %d was re-copied", p)
		}
	}
	ru, _ := rowOf(next, 5)
	if ru[0] != 42 {
		t.Error("advanced shard did not pick up the write")
	}
}

// TestDeltaApplyConvergesAndSharesBlocks is the delta-refresh contract: a
// follower state plus a delta of the advanced shards becomes bit-identical
// to the source, and only the advanced shards' blocks are replaced.
func TestDeltaApplyConvergesAndSharesBlocks(t *testing.T) {
	store, trainer := testStore(t, 13, 3, 4, 3)

	// Bootstrap the follower with a full delta (wire round trip included).
	all := make([]uint16, 4)
	for p := range all {
		all[p] = uint16(p)
	}
	buf, err := wire.AppendDelta(nil, deltaFor(t, trainer, 1, all))
	if err != nil {
		t.Fatal(err)
	}
	var boot wire.Delta
	if err := wire.DecodeDelta(buf, &boot); err != nil {
		t.Fatal(err)
	}
	follower, applied, err := Apply(nil, &boot)
	if err != nil || applied != 4 {
		t.Fatalf("bootstrap: applied=%d err=%v", applied, err)
	}
	statesEqual(t, trainer, follower, "bootstrap")

	// Advance shards 0 and 2, recapture, ship only the stale shards.
	store.Ref(0).Update(func(c *engineCoords) bool { c.V[1] = -7; return true })
	store.Ref(2).Update(func(c *engineCoords) bool { c.U[2] = 8; return true })
	trainer = storeState(t, trainer, store, Meta{Steps: 20, Tau: 1.5})

	stale := follower.StaleShards(trainer.VersionVec(0, ""))
	if len(stale) != 2 || stale[0] != 0 || stale[1] != 2 {
		t.Fatalf("stale shards = %v, want [0 2]", stale)
	}
	buf, err = wire.AppendDelta(nil, deltaFor(t, trainer, 1, stale))
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Delta
	if err := wire.DecodeDelta(buf, &d); err != nil {
		t.Fatal(err)
	}
	next, applied, err := Apply(follower, &d)
	if err != nil || applied != 2 {
		t.Fatalf("delta: applied=%d err=%v", applied, err)
	}
	statesEqual(t, trainer, next, "after delta")
	if next.Meta.Steps != 20 {
		t.Errorf("steps = %d, want 20", next.Meta.Steps)
	}
	// Only the advanced shards were replaced; quiet shards share memory
	// with the previous follower state.
	for p := 0; p < 4; p++ {
		shared := &next.blocks[p].u[0] == &follower.blocks[p].u[0]
		if (p == 0 || p == 2) == shared {
			t.Errorf("shard %d sharing = %v", p, shared)
		}
	}

	// Replaying the same delta is a no-op returning the same state.
	buf, _ = wire.AppendDelta(nil, deltaFor(t, trainer, 1, stale))
	var replay wire.Delta
	if err := wire.DecodeDelta(buf, &replay); err != nil {
		t.Fatal(err)
	}
	again, applied, err := Apply(next, &replay)
	if err != nil || applied != 0 || again != next {
		t.Fatalf("replay: applied=%d same=%v err=%v", applied, again == next, err)
	}
}

func TestApplyValidation(t *testing.T) {
	_, trainer := testStore(t, 6, 2, 2, 4)
	// A partial bootstrap materializes an incomplete state: held, not
	// served, until the remaining frames land.
	d := deltaFor(t, trainer, 0, []uint16{0})
	partial, applied, err := Apply(nil, d)
	if err != nil || applied != 1 {
		t.Fatalf("partial bootstrap: applied=%d err=%v", applied, err)
	}
	if partial.Complete() {
		t.Error("one-shard bootstrap of a two-shard state reports complete")
	}
	rest, applied, err := Apply(partial, deltaFor(t, trainer, 0, []uint16{1}))
	if err != nil || applied != 1 || !rest.Complete() {
		t.Fatalf("completing frame: applied=%d complete=%v err=%v", applied, rest.Complete(), err)
	}
	statesEqual(t, trainer, rest, "chunked bootstrap")
	// An empty bootstrap delta yields nothing to hold.
	if _, _, err := Apply(nil, deltaFor(t, trainer, 0, nil)); err == nil {
		t.Error("empty bootstrap accepted")
	}
	// Geometry mismatches are rejected.
	_, other := testStore(t, 8, 2, 2, 5)
	all := []uint16{0, 1}
	if _, _, err := Apply(other, deltaFor(t, trainer, 0, all)); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

// TestDeltasForChunking: a bootstrap whose state exceeds the per-frame
// budget splits at shard granularity into multiple frames that attach in
// any order, holes accepting their block exactly once.
func TestDeltasForChunking(t *testing.T) {
	_, trainer := testStore(t, 16, 2, 8, 11)
	all := make([]uint16, 8)
	for p := range all {
		all[p] = uint16(p)
	}
	// Each shard block is 2 nodes × rank 2 = 4 floats per side; a budget
	// of 10 fits two blocks per frame → 4 frames.
	frames, err := trainer.DeltasFor(1, all, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4", len(frames))
	}
	// Attach in reverse order; completeness flips only on the last frame.
	var follower *State
	for i := len(frames) - 1; i >= 0; i-- {
		buf, err := wire.AppendDelta(nil, frames[i])
		if err != nil {
			t.Fatal(err)
		}
		var d wire.Delta
		if err := wire.DecodeDelta(buf, &d); err != nil {
			t.Fatal(err)
		}
		next, applied, err := Apply(follower, &d)
		if err != nil || applied != 2 {
			t.Fatalf("frame %d: applied=%d err=%v", i, applied, err)
		}
		if complete := next.Complete(); complete != (i == 0) {
			t.Fatalf("frame %d: complete=%v", i, complete)
		}
		follower = next
	}
	statesEqual(t, trainer, follower, "reverse-order chunked bootstrap")
	// A hole-free state re-chunks identically under the default budget.
	refr, err := follower.DeltasFor(2, all, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(refr); got != 1 {
		t.Errorf("full-budget chunking produced %d frames, want 1", got)
	}
	// A budget smaller than a single shard block (4 floats per side) is
	// rejected up front with the typed sentinel instead of emitting a
	// frame doomed to fail at encode.
	if _, err := trainer.DeltasFor(1, all, 3); !errors.Is(err, ErrShardTooLarge) {
		t.Errorf("undersized budget: err=%v, want ErrShardTooLarge", err)
	}
}

// TestPeerPublishGatedOnComplete: a follower fed a multi-frame bootstrap
// publishes OnState exactly once, when the last hole fills.
func TestPeerPublishGatedOnComplete(t *testing.T) {
	_, trainer := testStore(t, 16, 2, 8, 12)
	var published []*State
	follower := NewPeer(Config{
		ID: 2, Transport: recTransport{sent: make(chan []byte, 16)},
		OnState: func(s *State) { published = append(published, s) },
	})
	all := make([]uint16, 8)
	for p := range all {
		all[p] = uint16(p)
	}
	frames, err := trainer.DeltasFor(1, all, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		buf, err := wire.AppendDelta(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		var d wire.Delta
		if err := wire.DecodeDelta(buf, &d); err != nil {
			t.Fatal(err)
		}
		follower.handleDelta(&d)
	}
	if len(published) != 1 {
		t.Fatalf("published %d states, want 1", len(published))
	}
	statesEqual(t, trainer, published[0], "gated publish")
	if lag := follower.Lag(); !lag.HasState {
		t.Error("complete follower reports no state")
	}
}

// TestPeerReadmitsHigherIncarnation models the blackhole fix: a trainer
// that restarts without its old state returns with a bumped incarnation
// and low version counters. The follower must drop the dead lineage and
// re-bootstrap from the returned trainer instead of ignoring it forever
// behind the old high-water mark.
func TestPeerReadmitsHigherIncarnation(t *testing.T) {
	_, oldSt := testStore(t, 8, 2, 2, 13)
	oldSt.Meta.Steps = 1000
	for p := range oldSt.vers {
		oldSt.vers[p] = 500
	}
	sent := make(chan []byte, 16)
	follower := NewPeer(Config{ID: 2, Transport: recTransport{sent: sent}})

	// First life: the follower holds the old lineage's state.
	all := []uint16{0, 1}
	d := deltaFor(t, oldSt, 1, all)
	d.Inc = 1
	follower.handleDelta(d)
	if follower.State() == nil {
		t.Fatal("follower did not bootstrap from the first lineage")
	}

	// A straggler from a dead lineage (lower inc) is dropped.
	follower.handleVersionVec(&wire.VersionVec{From: 1, Inc: 0, Addr: "old"}, "old")
	if follower.State() == nil {
		t.Fatal("a dead lineage's message reset the follower")
	}

	// The trainer returns reincarnated with fresh low-versioned state:
	// the follower drops the old lineage and pulls everything.
	_, freshSt := testStore(t, 8, 2, 2, 14)
	freshSt.Meta.Steps = 5
	vv := freshSt.VersionVec(1, "new")
	vv.Inc = 2
	follower.handleVersionVec(vv, "new")
	if follower.State() != nil {
		t.Fatal("follower kept the dead lineage's state")
	}
	select {
	case data := <-sent:
		typ, _ := wire.PeekType(data)
		if typ != wire.TypeDeltaRequest {
			t.Fatalf("follower sent %v, want a pull", typ)
		}
		var req wire.DeltaRequest
		if err := wire.DecodeDeltaRequest(data, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Shards) != 2 {
			t.Fatalf("pull covers %d shards, want 2 (full re-bootstrap)", len(req.Shards))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower never pulled from the reincarnated trainer")
	}
	fresh := deltaFor(t, freshSt, 1, all)
	fresh.Inc = 2
	follower.handleDelta(fresh)
	if got := follower.State(); got == nil || got.Meta.Steps != 5 {
		t.Fatalf("follower did not adopt the new lineage: %+v", got)
	}
	statesEqual(t, freshSt, follower.State(), "re-admitted lineage")
}

// TestTwoReplicaConvergence runs a trainer peer and a follower peer over
// the in-memory transport: the follower must bootstrap, then converge to
// bit-identical state after each trainer advance, pulling only stale
// shards. Run under -race in CI.
func TestTwoReplicaConvergence(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	trTrainer := net.Attach("trainer")
	trFollower := net.Attach("follower")
	defer trTrainer.Close()
	defer trFollower.Close()

	store, st := testStore(t, 15, 3, 4, 6)

	updates := make(chan *State, 16)
	trainer := NewPeer(Config{
		ID: 1, Transport: trTrainer, Source: true,
		Interval: 5 * time.Millisecond, Seed: 1,
	})
	trainer.SetState(st)
	follower := NewPeer(Config{
		ID: 2, Transport: trFollower,
		Peers:    []string{"trainer"},
		Interval: 5 * time.Millisecond, Seed: 2,
		OnState: func(s *State) {
			select {
			case updates <- s:
			default:
			}
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go trainer.Run(ctx)
	go follower.Run(ctx)

	waitConverged := func(want *State, ctxLabel string) *State {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case got := <-updates:
				match := len(got.Vers()) == len(want.Vers())
				for p := range want.Vers() {
					match = match && got.Vers()[p] == want.Vers()[p]
				}
				if match {
					statesEqual(t, want, got, ctxLabel)
					return got
				}
			case <-deadline:
				t.Fatalf("%s: follower did not converge", ctxLabel)
			}
		}
	}
	first := waitConverged(st, "bootstrap")

	lag := follower.Lag()
	if !lag.HasState || lag.StaleShards != 0 {
		t.Errorf("post-bootstrap lag = %+v", lag)
	}

	// Advance one shard; the follower must converge again, replacing only
	// that shard's block.
	store.Ref(2).Update(func(c *engineCoords) bool { c.U[0] = 123; return true })
	st = storeState(t, st, store, Meta{Steps: 30, Tau: 1.5})
	trainer.SetState(st)

	second := waitConverged(st, "incremental")
	for p := 0; p < 4; p++ {
		shared := &second.blocks[p].u[0] == &first.blocks[p].u[0]
		if (p == 2) == shared {
			t.Errorf("incremental refresh: shard %d sharing = %v", p, shared)
		}
	}
	if got := second.Meta.Steps; got != 30 {
		t.Errorf("follower steps = %d, want 30", got)
	}
}

// TestSourcePeerNeverAdoptsRemoteState models a trainer restart: the
// source's counters restart low while a peer still advertises the old,
// higher-versioned state. The source must neither pull that state nor
// let it veto SetState — its local producer is authoritative.
func TestSourcePeerNeverAdoptsRemoteState(t *testing.T) {
	_, oldSt := testStore(t, 8, 2, 2, 7) // pre-restart state, steps 10
	oldSt.Meta.Steps = 1_000_000
	for p := range oldSt.vers {
		oldSt.vers[p] = 500
	}

	sent := make(chan []byte, 16)
	source := NewPeer(Config{ID: 1, Source: true, Transport: recTransport{sent: sent}, Seed: 1})
	_, freshSt := testStore(t, 8, 2, 2, 8) // post-restart state, low counters
	freshSt.Meta.Steps = 20
	source.SetState(freshSt)

	// An inbound delta carrying the stale high-water state is ignored.
	all := []uint16{0, 1}
	buf, err := wire.AppendDelta(nil, deltaFor(t, oldSt, 2, all))
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Delta
	if err := wire.DecodeDelta(buf, &d); err != nil {
		t.Fatal(err)
	}
	source.handleDelta(&d)
	if source.State() != freshSt {
		t.Fatal("source adopted a remote delta")
	}
	// An inbound version vector advertising newer shards triggers no pull
	// (sends run on goroutines; give a buggy pull time to surface).
	source.handleVersionVec(oldSt.VersionVec(2, "old"), "old")
	select {
	case data := <-sent:
		typ, _ := wire.PeekType(data)
		t.Fatalf("source sent a %v in response to a newer remote vector", typ)
	case <-time.After(100 * time.Millisecond):
	}

	// SetState keeps replacing even though steps went "backwards"
	// relative to the remote high water.
	_, next := testStore(t, 8, 2, 2, 9)
	next.Meta.Steps = 21
	source.SetState(next)
	if source.State() != next {
		t.Fatal("source rejected its own fresh state")
	}
}

// recTransport records sends for peers that need no live network in a
// test, and delivers whatever the test puts on recv (nil: nothing).
type recTransport struct {
	sent chan []byte
	recv chan transport.Packet
}

func (r recTransport) Addr() string { return "rec" }
func (r recTransport) Send(to string, data []byte) error {
	select {
	case r.sent <- data:
	default:
	}
	return nil
}
func (r recTransport) Recv() <-chan transport.Packet { return r.recv }
func (recTransport) Close() error                    { return nil }

// TestBlocksMatchRowsAndShare: Blocks exposes the per-shard layout
// NewSnapshotBlocks serves from — every node's rows are found at block
// i mod P, local row i div P — and blocks of shards a capture did not
// advance stay pointer-shared with the previous state's, which is what
// lets a serving publish skip re-validating them.
func TestBlocksMatchRowsAndShare(t *testing.T) {
	const n, rank, shards = 11, 3, 4
	store, st := testStore(t, n, rank, shards, 5)
	u, v := store.SnapshotFlat()
	bu, bv := st.Blocks()
	if len(bu) != shards || len(bv) != shards {
		t.Fatalf("%d/%d blocks, want %d", len(bu), len(bv), shards)
	}
	for i := 0; i < n; i++ {
		p, li := i%shards, i/shards
		for r := 0; r < rank; r++ {
			if bu[p][li*rank+r] != u[i*rank+r] || bv[p][li*rank+r] != v[i*rank+r] {
				t.Fatalf("node %d: block row differs from the store at %d", i, r)
			}
		}
	}
	// Advance shard 2 only; the other shards' block views must stay
	// pointer-identical across the capture (the skip-validation key).
	store.Ref(2).Update(func(c *engineCoords) bool { c.U[0] = 7; return true })
	next := storeState(t, st, store, Meta{Steps: 11, Tau: 1.5})
	nu, nv := next.Blocks()
	for p := 0; p < shards; p++ {
		shared := &nu[p][0] == &bu[p][0] && &nv[p][0] == &bv[p][0]
		if p == 2 && shared {
			t.Error("advanced shard 2 still shares its block views")
		}
		if p != 2 && !shared {
			t.Errorf("quiet shard %d lost block sharing", p)
		}
	}
}
