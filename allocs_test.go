package dmfsgd

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// Allocation regression tests for the zero-alloc serving contract: the
// snapshot hot paths must not allocate in steady state. These pin the
// behavior the dmfserve handlers rely on — a regression here shows up as
// GC pressure scaling with serving throughput.

// allocSnapshot trains a small session once and freezes it.
func allocSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	ds := NewMeridianDataset(80, 31)
	sess, err := NewSession(ds, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 4000); err != nil {
		t.Fatal(err)
	}
	return sess.Snapshot()
}

// TestPredictBatchZeroAllocs: scoring into a caller-owned buffer must
// not allocate.
func TestPredictBatchZeroAllocs(t *testing.T) {
	snap := allocSnapshot(t)
	pairs := make([]PathPair, 64)
	for k := range pairs {
		pairs[k] = PathPair{I: k % snap.N(), J: (k*7 + 1) % snap.N()}
	}
	scores := make([]float64, len(pairs))
	avg := testing.AllocsPerRun(200, func() {
		snap.PredictBatch(pairs, scores)
	})
	if avg != 0 {
		t.Errorf("PredictBatch with caller buffer: %v allocs/op, want 0", avg)
	}
}

// TestRankIntoZeroAllocs: ranking through the pooled keyed scratch must
// not allocate in steady state.
func TestRankIntoZeroAllocs(t *testing.T) {
	snap := allocSnapshot(t)
	candidates := make([]int, 48)
	for k := range candidates {
		candidates[k] = (k*3 + 1) % snap.N()
	}
	out := make([]int, len(candidates))
	snap.RankInto(0, candidates, out) // warm the pool outside the measurement
	avg := testing.AllocsPerRun(200, func() {
		snap.RankInto(1, candidates, out)
	})
	if avg != 0 {
		t.Errorf("RankInto: %v allocs/op, want 0", avg)
	}
}

// TestWALMetricObservationZeroAllocs: the metric observations riding
// the WAL append/commit path (and by extension every hot-path
// observation in the tree — same Counter/Histogram cells) must be
// allocation-free; internal/metrics pins the primitives, this pins the
// wired-up instances.
func TestWALMetricObservationZeroAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(200, func() {
		mWALRecords.Add(3)
		mWALCommits.Inc()
		mWALReplayed.Add(1)
	})
	if avg != 0 {
		t.Errorf("WAL metric observation: %v allocs/op, want 0", avg)
	}
}

// TestSessionSnapshotQuiescentZeroAllocs: with no training in flight,
// Session.Snapshot returns the memoized snapshot without copying —
// which is what makes per-request snapshotting viable in serving loops.
func TestSessionSnapshotQuiescentZeroAllocs(t *testing.T) {
	ds := NewMeridianDataset(80, 32)
	sess, err := NewSession(ds, WithSeed(32))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 4000); err != nil {
		t.Fatal(err)
	}
	sess.Snapshot() // materialize once
	avg := testing.AllocsPerRun(200, func() {
		if sess.Snapshot() == nil {
			t.Fatal("nil snapshot")
		}
	})
	if avg != 0 {
		t.Errorf("quiescent Session.Snapshot: %v allocs/op, want 0", avg)
	}
}

// blocksOf slices flat row-major arrays into per-shard blocks with the
// store's node partition (node i → shard i mod P, ascending).
func blocksOf(u, v []float64, n, rank, shards int) (bu, bv [][]float64) {
	bu = make([][]float64, shards)
	bv = make([][]float64, shards)
	for p := 0; p < shards; p++ {
		rows := (n - p + shards - 1) / shards
		bu[p] = make([]float64, 0, rows*rank)
		bv[p] = make([]float64, 0, rows*rank)
		for li := 0; li < rows; li++ {
			i := p + li*shards
			bu[p] = append(bu[p], u[i*rank:(i+1)*rank]...)
			bv[p] = append(bv[p], v[i*rank:(i+1)*rank]...)
		}
	}
	return bu, bv
}

// TestSnapshotBlocksEquivalence: a block-backed snapshot must answer
// every query bit-identically to a flat snapshot over the same
// coordinates — Predict, PredictBatch, Rank and Flat.
func TestSnapshotBlocksEquivalence(t *testing.T) {
	flat := allocSnapshot(t)
	n, rank := flat.N(), flat.Dim()
	fu, fv := flat.Flat()
	for _, shards := range []int{1, 3, 8} {
		bu, bv := blocksOf(fu, fv, n, rank, shards)
		vers := make([]uint64, shards)
		for p := range vers {
			vers[p] = uint64(p + 1)
		}
		blk, err := NewSnapshotBlocks(flat.Metric(), flat.Tau(), flat.Steps(), rank, n, shards, bu, bv, vers, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if blk.N() != n || blk.Dim() != rank || blk.StoreShards() != shards || blk.Steps() != flat.Steps() {
			t.Fatalf("shards=%d: metadata n=%d dim=%d shards=%d", shards, blk.N(), blk.Dim(), blk.StoreShards())
		}
		gv := blk.Versions()
		if len(gv) != shards || gv[0] != 1 {
			t.Fatalf("shards=%d: versions %v", shards, gv)
		}
		var pairs []PathPair
		for i := 0; i < n; i += 7 {
			for j := 0; j < n; j += 5 {
				pairs = append(pairs, PathPair{I: i, J: j})
			}
		}
		want := flat.PredictBatch(pairs, nil)
		got := blk.PredictBatch(pairs, nil)
		for k := range pairs {
			if got[k] != want[k] {
				t.Fatalf("shards=%d: PredictBatch(%v) = %v, flat %v", shards, pairs[k], got[k], want[k])
			}
			if blk.Predict(pairs[k].I, pairs[k].J) != want[k] {
				t.Fatalf("shards=%d: Predict(%v) differs from flat", shards, pairs[k])
			}
		}
		cands := []int{5, 17, 31, 42, 60, 79, 2, 11}
		fr := flat.Rank(3, cands)
		br := blk.Rank(3, cands)
		for k := range fr {
			if fr[k] != br[k] {
				t.Fatalf("shards=%d: Rank = %v, flat %v", shards, br, fr)
			}
		}
		gu, gvv := blk.Flat()
		for k := range fu {
			if gu[k] != fu[k] || gvv[k] != fv[k] {
				t.Fatalf("shards=%d: Flat differs at %d", shards, k)
			}
		}
	}
}

// TestNewSnapshotBlocksValidation: geometry, block lengths, version
// vector length and non-finite values are all rejected.
func TestNewSnapshotBlocksValidation(t *testing.T) {
	const n, rank, shards = 5, 2, 2
	u := make([]float64, n*rank)
	v := make([]float64, n*rank)
	bu, bv := blocksOf(u, v, n, rank, shards)

	if _, err := NewSnapshotBlocks(RTT, 50, 0, 0, n, shards, bu, bv, nil, nil); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, err := NewSnapshotBlocks(RTT, 50, 0, rank, n, n+1, bu, bv, nil, nil); err == nil {
		t.Error("shards > n accepted")
	}
	if _, err := NewSnapshotBlocks(RTT, 50, 0, rank, n, shards, bu[:1], bv, nil, nil); err == nil {
		t.Error("missing block accepted")
	}
	if _, err := NewSnapshotBlocks(RTT, 50, 0, rank, n, shards, bu, bv, []uint64{1}, nil); err == nil {
		t.Error("short version vector accepted")
	}
	short := [][]float64{bu[0][:2], bu[1]}
	if _, err := NewSnapshotBlocks(RTT, 50, 0, rank, n, shards, short, bv, nil, nil); err == nil {
		t.Error("short block accepted")
	}
	bad := blocksCopy(bu)
	bad[1][0] = math.NaN()
	if _, err := NewSnapshotBlocks(RTT, 50, 0, rank, n, shards, bad, bv, nil, nil); err == nil {
		t.Error("NaN accepted")
	}
}

func blocksCopy(b [][]float64) [][]float64 {
	out := make([][]float64, len(b))
	for p := range b {
		out[p] = append([]float64(nil), b[p]...)
	}
	return out
}

// TestNewSnapshotBlocksPrevSkipsValidation: blocks pointer-shared with
// the previously published snapshot skip the finiteness re-scan — the
// property that makes per-delta publishing O(advanced shards). Verified
// observably: a NaN smuggled into a shared block is accepted (skip
// happened), while the same NaN in a fresh block is rejected.
func TestNewSnapshotBlocksPrevSkipsValidation(t *testing.T) {
	const n, rank, shards = 6, 2, 2
	u := make([]float64, n*rank)
	v := make([]float64, n*rank)
	bu, bv := blocksOf(u, v, n, rank, shards)
	prev, err := NewSnapshotBlocks(RTT, 50, 1, rank, n, shards, bu, bv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Violate the immutability contract deliberately: the NaN must be
	// invisible to the prev-sharing fast path.
	bu[1][0] = math.NaN()
	if _, err := NewSnapshotBlocks(RTT, 50, 2, rank, n, shards, bu, bv, nil, prev); err != nil {
		t.Errorf("shared block re-validated: %v", err)
	}
	if _, err := NewSnapshotBlocks(RTT, 50, 2, rank, n, shards, bu, bv, nil, nil); err == nil {
		t.Error("fresh block with NaN accepted")
	}
	// A geometry mismatch must disable the fast path entirely.
	if _, err := NewSnapshotBlocks(RTT, 50, 2, rank, n, shards, bu, bv, nil, allocSnapshotOtherGeometry(n, rank)); err == nil {
		t.Error("NaN accepted with a prev of another geometry")
	}
	bu[1][0] = 0
}

// allocSnapshotOtherGeometry builds a minimal assembled snapshot of n
// zero rows in one block — the same n and rank as the two-shard test
// state but another block geometry — to exercise the prev-compatibility
// check.
func allocSnapshotOtherGeometry(n, rank int) *Snapshot {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, rank)
	}
	sn, err := NewSnapshot(RTT, 50, rows, rows)
	if err != nil {
		panic(err)
	}
	return sn
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestSessionAllocsBelowMatrix: a session keeps the paper's per-node
// state, not n×n copies. Building one on a Meridian-like n=1000 dataset
// (τ, the neighbor-slot label table) and a 10k-pair AUC (a subsample
// drawn without the pair list) each allocate less than one n×n float64
// matrix.
func TestSessionAllocsBelowMatrix(t *testing.T) {
	const n = 1000
	limit := uint64(8 * n * n)
	ds := NewMeridianDataset(n, 5)
	var sess *Session
	var err error
	if got := bytesAllocated(func() { sess, err = NewSession(ds, WithSeed(5)) }); got >= limit {
		t.Errorf("NewSession allocated %d bytes, want < %d", got, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 20000); err != nil {
		t.Fatal(err)
	}
	var auc float64
	if got := bytesAllocated(func() { auc, err = sess.AUC(context.Background(), 10000) }); got >= limit {
		t.Errorf("AUC(ctx, 10000) allocated %d bytes, want < %d", got, limit)
	}
	if err != nil || !(auc > 0.5) {
		t.Fatalf("AUC = %v, %v", auc, err)
	}
}

// TestConfusionAllocatesOnlyResults: a full-set evaluation labels and
// scores every evaluation pair in place, so a Confusion on a
// Meridian-like n=1000 session allocates its two 8-byte-per-pair result
// arrays and little else — under 1.5 × 16 bytes per evaluated pair, where
// listing the pairs first would cost another 16.
func TestConfusionAllocatesOnlyResults(t *testing.T) {
	ds := NewMeridianDataset(1000, 5)
	sess, err := NewSession(ds, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 20000); err != nil {
		t.Fatal(err)
	}
	var conf Confusion
	got := bytesAllocated(func() { conf, err = sess.Confusion(context.Background()) })
	if err != nil {
		t.Fatal(err)
	}
	pairs := conf.TP + conf.FN + conf.FP + conf.TN
	if limit := uint64(24 * pairs); pairs == 0 || got >= limit {
		t.Errorf("full-set Confusion over %d pairs allocated %d bytes, want < %d", pairs, got, limit)
	}
}
