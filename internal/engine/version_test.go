package engine

import (
	"math/rand"
	"testing"

	"dmfsgd/internal/sgd"
)

func TestStoreVersionCounters(t *testing.T) {
	s := NewStore(8, 2, 4)
	for p := 0; p < 4; p++ {
		if v := s.ShardVersion(p); v != 0 {
			t.Fatalf("fresh shard %d at version %d", p, v)
		}
	}
	s.InitUniform(rand.New(rand.NewSource(1)))
	vers := s.Versions(nil)
	for p, v := range vers {
		if v != 1 {
			t.Fatalf("shard %d at version %d after init, want 1", p, v)
		}
	}
	if !s.VersionsEqual(vers) {
		t.Fatal("VersionsEqual false on its own vector")
	}

	// A successful Ref.Update bumps exactly the owning shard.
	s.Ref(2).Update(func(c *sgd.Coordinates) bool { c.U[0] = 7; return true })
	if v := s.ShardVersion(2); v != 2 {
		t.Fatalf("shard 2 at version %d after update, want 2", v)
	}
	if s.VersionsEqual(vers) {
		t.Fatal("VersionsEqual true after a write")
	}
	for _, p := range []int{0, 1, 3} {
		if v := s.ShardVersion(p); v != 1 {
			t.Fatalf("untouched shard %d at version %d", p, v)
		}
	}

	// A rejected update (fn returns false) does not bump.
	s.Ref(3).Update(func(c *sgd.Coordinates) bool { return false })
	if v := s.ShardVersion(3); v != 1 {
		t.Fatalf("shard 3 at version %d after rejected update, want 1", v)
	}

	// Ref.Set is a write.
	s.Ref(1).Set(&sgd.Coordinates{U: []float64{1, 2}, V: []float64{3, 4}})
	if v := s.ShardVersion(1); v != 2 {
		t.Fatalf("shard 1 at version %d after Set, want 2", v)
	}
}

// TestSnapshotDeltaIntoCopiesOnlyAdvancedShards fills the target buffers
// with garbage and verifies the delta refresh overwrites exactly the rows
// of the shards whose version moved.
func TestSnapshotDeltaIntoCopiesOnlyAdvancedShards(t *testing.T) {
	const n, rank, shards = 10, 3, 4
	s := NewStore(n, rank, shards)
	s.InitUniform(rand.New(rand.NewSource(2)))

	u, v := s.SnapshotFlat()
	vers := s.Versions(nil)
	if copied := s.SnapshotDeltaInto(u, v, vers); copied != 0 {
		t.Fatalf("quiescent delta copied %d shards, want 0", copied)
	}

	// Advance shard 1 (node 5) only.
	s.Ref(5).Update(func(c *sgd.Coordinates) bool { c.V[2] = -9; return true })

	for k := range u {
		u[k], v[k] = 1e99, 1e99
	}
	if copied := s.SnapshotDeltaInto(u, v, vers); copied != 1 {
		t.Fatalf("delta copied %d shards, want 1", copied)
	}
	wantU, wantV := s.SnapshotFlat()
	for i := 0; i < n; i++ {
		fresh := i%shards == 1
		for r := 0; r < rank; r++ {
			gu, gv := u[i*rank+r], v[i*rank+r]
			if fresh {
				if gu != wantU[i*rank+r] || gv != wantV[i*rank+r] {
					t.Fatalf("advanced node %d row not refreshed", i)
				}
			} else if gu != 1e99 || gv != 1e99 {
				t.Fatalf("untouched node %d row was re-copied", i)
			}
		}
	}
	if !s.VersionsEqual(vers) {
		t.Fatal("delta refresh did not advance the version vector")
	}
}

// TestSequentialApplyBumpsVersions: the sequential scheduler's writes
// advance the versions of exactly the shards it touches.
func TestSequentialApplyBumpsVersions(t *testing.T) {
	e := testEngine(t, 12, 4, 3, 1, true, 7)
	base := e.Store().Versions(nil)
	// Symmetric apply writes only node i's shard.
	e.ApplyLabel(4, 5, 1)
	after := e.Store().Versions(nil)
	for p := range base {
		want := base[p]
		if p == 4%3 {
			want++
		}
		if after[p] != want {
			t.Fatalf("shard %d version %d, want %d", p, after[p], want)
		}
	}
}

// TestEpochBarrierBumpsVersions: a parallel epoch advances every shard
// that received updates by exactly one, at the barrier.
func TestEpochBarrierBumpsVersions(t *testing.T) {
	for _, symmetric := range []bool{true, false} {
		e := testEngine(t, 24, 6, 4, 2, symmetric, 11)
		base := e.Store().Versions(nil)
		if n := e.RunEpoch(4); n == 0 {
			t.Fatalf("symmetric=%v: epoch applied no updates", symmetric)
		}
		after := e.Store().Versions(nil)
		for p := range after {
			// With k=6 probes-per-node=4 on a dense ±1 matrix every shard
			// gets updates; each dirty shard advances exactly once.
			if after[p] != base[p]+1 {
				t.Fatalf("symmetric=%v: shard %d went %d → %d, want +1",
					symmetric, p, base[p], after[p])
			}
		}
	}
}
