package dmfsgd

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/vec"
)

// PathPair identifies a directed node pair: the path I → J.
type PathPair struct {
	I, J int
}

// Snapshot is an immutable copy of every node's coordinates, materialized
// from the session's shard store (Session.Snapshot), received from a
// replica (NewSnapshotBlocks) or assembled from application-gathered
// Node coordinates (NewSnapshot). Every snapshot holds the same layout:
// one contiguous block per shard, node i's rows in block i mod P at
// local row i div P — the layout of the store, the replication tier and
// the checkpoint file, so no path between them re-strides rows. After
// materialization it involves no locks, no atomics and no shared
// mutable state, so any number of goroutines may serve Predict,
// PredictBatch, Rank and Classify from one Snapshot concurrently at
// memory bandwidth — this is the serving surface for heavy prediction
// traffic. A snapshot costs 2·n·r float64s (~160KB at Meridian 2500,
// rank 10), less the blocks it shares with its predecessor.
//
// Training that continues after materialization does not affect a
// snapshot; take a fresh one (and atomically swap a shared pointer, as
// cmd/dmfserve does) to publish newer coordinates.
type Snapshot struct {
	n, rank int
	// bu and bv hold one block of U and V rows per shard; blocks are
	// immutable and may be shared between snapshots.
	bu, bv [][]float64
	tau    float64
	metric Metric
	steps  int

	// Store-materialized and replicated snapshots carry the shard count
	// and the version vector their blocks were copied at, which is what
	// lets Session.Snapshot return the same snapshot at quiescence, share
	// quiet shards' blocks, and lets the replication tier and checkpoints
	// capture per-shard state. Assembled snapshots (NewSnapshot) hold one
	// block, have no store, and leave these zero.
	shards int
	vers   []uint64
}

// NewSnapshot assembles a snapshot from per-node coordinate rows — the
// serving path for applications that run embeddable Nodes and gather
// (U, V) pairs themselves. u[i] and v[i] are node i's out- and
// in-coordinates (Node.U, Node.V); all rows must share one length r ≥ 1
// and hold finite values. tau and metric describe the classification
// threshold the coordinates were trained against. The rows are copied
// into one block; the snapshot reports no store (StoreShards 0,
// Versions nil).
func NewSnapshot(metric Metric, tau float64, u, v [][]float64) (*Snapshot, error) {
	n := len(u)
	if n == 0 || len(v) != n {
		return nil, fmt.Errorf("%w: need equal non-empty U and V row sets, got %d and %d",
			ErrInvalidConfig, len(u), len(v))
	}
	rank := len(u[0])
	if rank == 0 {
		return nil, fmt.Errorf("%w: empty coordinate rows", ErrInvalidConfig)
	}
	bu := make([]float64, n*rank)
	bv := make([]float64, n*rank)
	for i := 0; i < n; i++ {
		if len(u[i]) != rank || len(v[i]) != rank {
			return nil, fmt.Errorf("%w: node %d has rows of length %d/%d, want %d",
				ErrInvalidConfig, i, len(u[i]), len(v[i]), rank)
		}
		for r := 0; r < rank; r++ {
			if !finite(u[i][r]) || !finite(v[i][r]) {
				return nil, fmt.Errorf("%w: node %d has non-finite coordinates", ErrInvalidConfig, i)
			}
		}
		copy(bu[i*rank:(i+1)*rank], u[i])
		copy(bv[i*rank:(i+1)*rank], v[i])
	}
	return &Snapshot{
		n:      n,
		rank:   rank,
		bu:     [][]float64{bu},
		bv:     [][]float64{bv},
		tau:    tau,
		metric: metric,
	}, nil
}

// NewSnapshotBlocks assembles a snapshot directly over per-shard
// coordinate blocks — the allocation-free serving path for replicated
// state (internal/replica, cmd/dmfserve -peer), whose gossip deltas
// arrive as immutable per-shard blocks. Block p holds the rows of nodes
// p, p+shards, p+2·shards, … ascending (the store's partition), rank
// values per row; u and v must each carry exactly `shards` blocks of the
// right length. vers, when non-nil, stamps the per-shard version vector
// the state was captured at (copied).
//
// The blocks are NOT copied: the snapshot aliases them, and the caller
// must treat them as immutable afterwards — exactly the contract
// replica.State already maintains, which is what lets a follower publish
// a fresh snapshot per applied delta without flattening the full 2·n·r
// state.
//
// prev, when non-nil and of identical geometry, skips re-validating
// blocks shared with it by identity: a block whose backing array already
// passed a previous call's finiteness scan cannot have changed. Passing
// the previously published snapshot makes the per-delta publish cost
// proportional to the shards that advanced, not to n.
func NewSnapshotBlocks(metric Metric, tau float64, steps, rank, n, shards int, u, v [][]float64, vers []uint64, prev *Snapshot) (*Snapshot, error) {
	if rank <= 0 || n <= 0 || shards <= 0 || shards > n {
		return nil, fmt.Errorf("%w: block snapshot geometry n=%d rank=%d shards=%d",
			ErrInvalidConfig, n, rank, shards)
	}
	if len(u) != shards || len(v) != shards {
		return nil, fmt.Errorf("%w: %d/%d coordinate blocks, want %d",
			ErrInvalidConfig, len(u), len(v), shards)
	}
	if vers != nil && len(vers) != shards {
		return nil, fmt.Errorf("%w: version vector length %d, want %d",
			ErrInvalidConfig, len(vers), shards)
	}
	if prev != nil && (prev.n != n || prev.rank != rank || len(prev.bu) != shards) {
		prev = nil // geometry changed: validate everything
	}
	for p := 0; p < shards; p++ {
		rows := (n - p + shards - 1) / shards
		if len(u[p]) != rows*rank || len(v[p]) != rows*rank {
			return nil, fmt.Errorf("%w: shard %d blocks of %d/%d values, want %d",
				ErrInvalidConfig, p, len(u[p]), len(v[p]), rows*rank)
		}
		if prev != nil && rows > 0 && &u[p][0] == &prev.bu[p][0] && &v[p][0] == &prev.bv[p][0] {
			continue // shared with an already-validated snapshot
		}
		for k := range u[p] {
			if !finite(u[p][k]) || !finite(v[p][k]) {
				return nil, fmt.Errorf("%w: shard %d has non-finite coordinates", ErrInvalidConfig, p)
			}
		}
	}
	sn := &Snapshot{
		n:      n,
		rank:   rank,
		bu:     u,
		bv:     v,
		tau:    tau,
		metric: metric,
		steps:  steps,
		shards: shards,
	}
	if vers != nil {
		sn.vers = append([]uint64(nil), vers...)
	}
	return sn, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// N returns the node count.
func (sn *Snapshot) N() int { return sn.n }

// Dim returns r, the coordinate dimensionality.
func (sn *Snapshot) Dim() int { return sn.rank }

// Tau returns the classification threshold the coordinates were trained
// against.
func (sn *Snapshot) Tau() float64 { return sn.tau }

// Metric returns the measured quantity.
func (sn *Snapshot) Metric() Metric { return sn.metric }

// Steps returns the session's cumulative update count at materialization
// (0 for snapshots assembled with NewSnapshot) — a freshness stamp for
// serving loops that swap snapshots.
func (sn *Snapshot) Steps() int { return sn.steps }

// StoreShards returns the shard count P of the store this snapshot was
// materialized from (or, for snapshots from NewSnapshotBlocks, of the
// replicated state's partition), or 0 for assembled snapshots
// (NewSnapshot), which have no store.
func (sn *Snapshot) StoreShards() int { return sn.shards }

// Versions returns a copy of the per-shard store version vector this
// snapshot was materialized at (nil for assembled snapshots). Together
// with Flat it is the input the replication tier captures its versioned
// state from.
func (sn *Snapshot) Versions() []uint64 {
	if sn.vers == nil {
		return nil
	}
	return append([]uint64(nil), sn.vers...)
}

// Flat returns flat row-major copies of the coordinates (node i's rows
// at [i·rank, (i+1)·rank)), gathered from the blocks row by row — for
// callers that want the dense layout, such as the trainer's replica
// capture (replica.Update).
func (sn *Snapshot) Flat() (u, v []float64) {
	r := sn.rank
	u = make([]float64, sn.n*r)
	v = make([]float64, sn.n*r)
	for i := 0; i < sn.n; i++ {
		copy(u[i*r:(i+1)*r], sn.rowU(i))
		copy(v[i*r:(i+1)*r], sn.rowV(i))
	}
	return u, v
}

// rowU returns node i's out-coordinates (a view; callers must not modify).
func (sn *Snapshot) rowU(i int) []float64 {
	r, p := sn.rank, len(sn.bu)
	li := i / p
	return sn.bu[i%p][li*r : li*r+r]
}

// rowV returns node i's in-coordinates (a view; callers must not modify).
func (sn *Snapshot) rowV(i int) []float64 {
	r, p := sn.rank, len(sn.bv)
	li := i / p
	return sn.bv[i%p][li*r : li*r+r]
}

func (sn *Snapshot) check(i, j int) {
	if uint(i) >= uint(sn.n) || uint(j) >= uint(sn.n) {
		panic(fmt.Sprintf("dmfsgd: snapshot pair (%d,%d) out of range [0,%d)", i, j, sn.n))
	}
}

// Predict returns x̂ᵢⱼ = uᵢ·vⱼᵀ, the estimate of the path i → j. Larger
// means more likely good. Bit-identical to Session.Predict at the moment
// of materialization.
func (sn *Snapshot) Predict(i, j int) float64 {
	sn.check(i, j)
	return vec.Dot(sn.rowU(i), sn.rowV(j))
}

// Classify returns the predicted class of the path i → j: the sign of
// Predict.
func (sn *Snapshot) Classify(i, j int) Class {
	return classify.FromValue(sn.Predict(i, j))
}

// PredictBatch fills scores[k] with the prediction for pairs[k]. scores
// may be nil (a new slice is allocated) or a caller-owned buffer of
// len(pairs) for allocation-free serving loops; it is returned either
// way. The batch is scored on the calling goroutine with zero
// synchronization — parallelism comes from calling PredictBatch on many
// goroutines, which scale linearly until memory bandwidth.
func (sn *Snapshot) PredictBatch(pairs []PathPair, scores []float64) []float64 {
	if scores == nil {
		scores = make([]float64, len(pairs))
	}
	if len(scores) != len(pairs) {
		panic(fmt.Sprintf("dmfsgd: PredictBatch scores length %d, want %d", len(scores), len(pairs)))
	}
	for k, p := range pairs {
		sn.check(p.I, p.J)
		scores[k] = vec.Dot(sn.rowU(p.I), sn.rowV(p.J))
	}
	return scores
}

// rankEntry keys one candidate for sorting: its node id and score.
type rankEntry struct {
	j int
	x float64
}

// rankScratch is the reusable keyed slice behind Rank/RankInto; pooled so
// steady-state ranking performs no allocations.
type rankScratch struct{ entries []rankEntry }

var rankPool = sync.Pool{New: func() any { return new(rankScratch) }}

// Rank orders candidate peers of node i from most to least likely good —
// the §6.4 peer-selection primitive ("rank candidates by x̂ and pick the
// best"). It returns a new slice sorted by descending predicted score,
// ties broken by ascending node id so the order is deterministic.
// candidates is not modified.
func (sn *Snapshot) Rank(i int, candidates []int) []int {
	return sn.RankInto(i, candidates, make([]int, len(candidates)))
}

// RankInto is Rank with a caller-owned output buffer: out must have
// len(candidates) and receives the ranked node ids (it is also returned).
// Scoring and sorting use a pooled keyed scratch slice, so steady-state
// serving loops rank without allocating. candidates and out may alias.
//
//dmf:zeroalloc
func (sn *Snapshot) RankInto(i int, candidates, out []int) []int {
	sn.check(i, i)
	if len(out) != len(candidates) {
		//dmf:allow zeroalloc panic path: the caller violated the API contract, allocation cost is moot
		panic(fmt.Sprintf("dmfsgd: RankInto out length %d, want %d", len(out), len(candidates)))
	}
	sc := rankPool.Get().(*rankScratch)
	entries := sc.entries[:0]
	if cap(entries) < len(candidates) {
		entries = make([]rankEntry, 0, len(candidates))
	}
	ui := sn.rowU(i)
	for _, j := range candidates {
		sn.check(i, j)
		entries = append(entries, rankEntry{j: j, x: vec.Dot(ui, sn.rowV(j))})
	}
	slices.SortFunc(entries, func(a, b rankEntry) int {
		if a.x != b.x {
			if a.x > b.x {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.j, b.j)
	})
	for k := range entries {
		out[k] = entries[k].j
	}
	sc.entries = entries
	rankPool.Put(sc)
	return out
}
