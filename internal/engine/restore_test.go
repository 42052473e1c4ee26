package engine

import (
	"math/rand"
	"testing"

	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
)

// TestCountingSourceTransparent: wrapping must not change the stream,
// and fast-forwarding a fresh source must continue it bit-identically.
func TestCountingSourceTransparent(t *testing.T) {
	ref := rand.New(rand.NewSource(99))
	cs := NewCountingSource(99)
	counted := rand.New(cs)
	for i := 0; i < 1000; i++ {
		if a, b := ref.Int63(), counted.Int63(); a != b {
			t.Fatalf("draw %d: %d != %d", i, a, b)
		}
	}
	// Mixed-method consumption (rejection loops burn variable draws).
	for i := 0; i < 500; i++ {
		if a, b := ref.Intn(7), counted.Intn(7); a != b {
			t.Fatalf("Intn draw %d: %d != %d", i, a, b)
		}
		if a, b := ref.NormFloat64(), counted.NormFloat64(); a != b {
			t.Fatalf("NormFloat64 draw %d: %v != %v", i, a, b)
		}
	}

	mark := cs.Draws()
	want := make([]int64, 64)
	for i := range want {
		want[i] = counted.Int63()
	}

	resumed := NewCountingSource(99)
	if err := resumed.FastForward(mark); err != nil {
		t.Fatal(err)
	}
	r2 := rand.New(resumed)
	for i := range want {
		if got := r2.Int63(); got != want[i] {
			t.Fatalf("resumed draw %d: %d != %d", i, got, want[i])
		}
	}

	if err := resumed.FastForward(0); err == nil {
		t.Error("rewind accepted; want error")
	}
}

// copyShardBlocks moves every shard of src into dst the way a checkpoint
// does: SnapshotShardBlock out of src, SetShardBlock into dst.
func copyShardBlocks(dst, src *Store) {
	for p := 0; p < src.Shards(); p++ {
		u := make([]float64, src.ShardNodeCount(p)*src.Rank())
		v := make([]float64, len(u))
		ver := src.SnapshotShardBlock(p, u, v)
		dst.SetShardBlock(p, u, v, ver)
	}
}

// TestStoreRestoreShardBlocks: SetShardBlock over every shard is the
// exact inverse of SnapshotShardBlock, including the version vector.
func TestStoreRestoreShardBlocks(t *testing.T) {
	src := NewStore(11, 3, 4)
	src.InitUniform(rand.New(rand.NewSource(5)))
	src.Ref(6).Update(func(c *sgd.Coordinates) bool { c.U[0] = 42; return true })
	u, v := src.SnapshotFlat()
	vers := src.Versions(nil)

	dst := NewStore(11, 3, 4)
	copyShardBlocks(dst, src)
	du, dv := dst.SnapshotFlat()
	for k := range u {
		if du[k] != u[k] || dv[k] != v[k] {
			t.Fatalf("coordinate %d drifted: %v/%v vs %v/%v", k, du[k], dv[k], u[k], v[k])
		}
	}
	if !dst.VersionsEqual(vers) {
		t.Errorf("restored versions %v, want %v", dst.Versions(nil), vers)
	}
}

// epochEngine builds a small engine with a fully observed label matrix.
func epochEngine(t *testing.T, n, shards int, seed int64) *Engine {
	t.Helper()
	labels := mat.NewDense(n, n)
	nbrs := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				labels.Set(i, j, float64((i+j)%5)-2)
				nbrs[i] = append(nbrs[i], j)
			}
		}
	}
	e, err := New(labels.At, nbrs, rand.New(rand.NewSource(seed+1)), Config{
		SGD:    sgd.Config{Rank: 4, LearningRate: 0.1, Lambda: 0.1, Loss: sgd.Defaults().Loss},
		Shards: shards,
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEpochResumeBitIdentical: restoring shard blocks + steps + node
// draw counts into a fresh engine continues parallel epoch training
// exactly where the captured engine stopped.
func TestEpochResumeBitIdentical(t *testing.T) {
	const n, probes = 17, 3
	for _, shards := range []int{1, 4} {
		full := epochEngine(t, n, shards, 7)
		full.RunEpochs(6, probes)
		wantU, wantV := full.Store().SnapshotFlat()
		wantVers := full.Store().Versions(nil)

		half := epochEngine(t, n, shards, 7)
		half.RunEpochs(4, probes)
		steps := half.Steps()
		draws := half.NodeDraws()

		resumed := epochEngine(t, n, shards, 7)
		copyShardBlocks(resumed.Store(), half.Store())
		resumed.SetSteps(steps)
		if err := resumed.RestoreNodeDraws(draws); err != nil {
			t.Fatal(err)
		}
		resumed.RunEpochs(2, probes)

		gotU, gotV := resumed.Store().SnapshotFlat()
		for k := range wantU {
			if gotU[k] != wantU[k] || gotV[k] != wantV[k] {
				t.Fatalf("shards=%d: coordinate %d drifted after resume", shards, k)
			}
		}
		if !resumed.Store().VersionsEqual(wantVers) {
			t.Errorf("shards=%d: versions %v, want %v", shards, resumed.Store().Versions(nil), wantVers)
		}
		if resumed.Steps() != full.Steps() {
			t.Errorf("shards=%d: steps %d, want %d", shards, resumed.Steps(), full.Steps())
		}
	}
}
