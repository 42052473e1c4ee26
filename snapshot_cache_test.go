package dmfsgd

import (
	"bytes"
	"context"
	"testing"

	"dmfsgd/internal/metrics"
)

// TestSnapshotCachedAtQuiescence: with no shard advanced between calls,
// Session.Snapshot must return the previously materialized snapshot — the
// same pointer, hence bit-identical for free — and a later call after more
// training must produce a fresh, correct snapshot. This is the regression
// test for the version-aware materialization path.
func TestSnapshotCachedAtQuiescence(t *testing.T) {
	ds := NewMeridianDataset(60, 5)
	sess, err := NewSession(ds, WithSeed(5), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}

	snap1 := sess.Snapshot()
	snap2 := sess.Snapshot()
	if snap1 != snap2 {
		t.Fatal("quiescent Snapshot() materialized a new copy")
	}
	if snap1.StoreShards() != 4 {
		t.Fatalf("StoreShards = %d, want 4", snap1.StoreShards())
	}
	vers := snap1.Versions()
	if len(vers) != 4 {
		t.Fatalf("version vector length %d, want 4", len(vers))
	}

	// More training invalidates the cache; the delta-refreshed snapshot
	// must be a new object, bit-identical to the live coordinates.
	if err := sess.Run(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	snap3 := sess.Snapshot()
	if snap3 == snap1 {
		t.Fatal("Snapshot() returned a stale cache after training")
	}
	for i := 0; i < ds.N(); i++ {
		for j := 0; j < ds.N(); j++ {
			if i == j {
				continue
			}
			if got, want := snap3.Predict(i, j), sess.Predict(i, j); got != want {
				t.Fatalf("delta-refreshed Predict(%d,%d) = %v, live = %v", i, j, got, want)
			}
		}
	}
	// The older snapshot is untouched by the refresh (immutability).
	if snap1.Predict(0, 1) == 0 && snap3.Predict(0, 1) == 0 {
		t.Log("zero predictions; topology degenerate?") // not fatal, just loud
	}

	// Version vectors advance monotonically.
	vers3 := snap3.Versions()
	newer := false
	for p := range vers {
		if vers3[p] < vers[p] {
			t.Fatalf("shard %d version went backwards: %d → %d", p, vers[p], vers3[p])
		}
		if vers3[p] > vers[p] {
			newer = true
		}
	}
	if !newer {
		t.Fatal("training advanced no shard version")
	}
}

// TestSnapshotCacheEpochAndFlatRoundTrip: the epoch scheduler invalidates
// the cache through the barrier bump, and a snapshot's blocks round-trip
// bit-exactly through NewSnapshotBlocks (the follower serving path).
func TestSnapshotCacheEpochAndFlatRoundTrip(t *testing.T) {
	ds := NewMeridianDataset(50, 9)
	sess, err := NewSession(ds, WithSeed(9), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunEpochs(context.Background(), 2, 8); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	if _, err := sess.RunEpochs(context.Background(), 1, 8); err != nil {
		t.Fatal(err)
	}
	snap2 := sess.Snapshot()
	if snap2 == snap {
		t.Fatal("epoch training did not invalidate the snapshot cache")
	}

	u, v := snap2.Flat()
	bu, bv := blocksOf(u, v, snap2.N(), snap2.Dim(), snap2.StoreShards())
	clone, err := NewSnapshotBlocks(snap2.Metric(), snap2.Tau(), snap2.Steps(), snap2.Dim(), snap2.N(),
		snap2.StoreShards(), bu, bv, snap2.Versions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if clone.N() != snap2.N() || clone.Steps() != snap2.Steps() || clone.Tau() != snap2.Tau() {
		t.Fatalf("block round trip metadata: %d/%d/%v", clone.N(), clone.Steps(), clone.Tau())
	}
	for i := 0; i < snap2.N(); i++ {
		for j := 0; j < snap2.N(); j++ {
			if clone.Predict(i, j) != snap2.Predict(i, j) {
				t.Fatalf("block round trip Predict(%d,%d) differs", i, j)
			}
		}
	}
}

// TestSnapshotSharesQuietBlocks: after training that writes one shard
// only (every measurement's endpoints lie in shard 1), the next snapshot
// shares every other shard's block with the previous snapshot — the same
// backing arrays — and copies exactly one shard out of the store.
func TestSnapshotSharesQuietBlocks(t *testing.T) {
	const shards, hot = 4, 1
	ds := NewMeridianDataset(60, 4)
	var stream bytes.Buffer
	sess, err := NewSessionFromSource(ds, NewStreamSource(&stream), WithSeed(4), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var ms []Measurement
	for i := hot; i < ds.N() && len(ms) < 6; i += shards {
		for _, j := range sess.Neighbors(i) {
			if j%shards == hot {
				ms = append(ms, Measurement{T: float64(len(ms)), I: i, J: j, Value: 20})
			}
		}
	}
	if len(ms) == 0 {
		t.Fatal("no neighbor pair inside one shard")
	}
	if err := WriteMeasurements(&stream, ms); err != nil {
		t.Fatal(err)
	}

	prev := sess.Snapshot()
	copied := metrics.Default().Counter("dmf_engine_snapshot_shards_copied_total", "")
	before := copied.Value()
	if err := sess.Run(context.Background(), len(ms)); err != nil {
		t.Fatal(err)
	}
	next := sess.Snapshot()
	if next == prev || sess.Steps() == 0 {
		t.Fatalf("training applied %d updates and left the snapshot cached", sess.Steps())
	}
	for p := 0; p < shards; p++ {
		shared := &next.bu[p][0] == &prev.bu[p][0] && &next.bv[p][0] == &prev.bv[p][0]
		if shared != (p != hot) {
			t.Errorf("shard %d: block shared = %v, want %v", p, shared, p != hot)
		}
	}
	if got := copied.Value() - before; got != 1 {
		t.Errorf("refresh copied %d shards, want 1", got)
	}
}

func inf() float64 { return 1 / zero }

var zero float64
