package engine

import (
	"fmt"
	"math/rand"
	"sync"

	"dmfsgd/internal/sgd"
	"dmfsgd/internal/vec"
)

// Store holds the coordinates of n nodes partitioned across P shards.
// Node i belongs to shard i mod P; within a shard, nodes are stored in
// ascending global order in one contiguous backing array (U row then V row
// per node), which keeps a shard's epoch sweep cache-friendly.
//
// Two access disciplines coexist:
//
//   - exclusive: a single goroutine (the sequential driver, or the epoch
//     scheduler's per-shard workers) addresses coordinates directly via
//     Coord — no locking;
//   - shared: concurrent callers (runtime nodes, live evaluation) go
//     through Ref handles, which take the owning shard's RWMutex.
//
// Every shard carries a monotonic version counter bumped by every write
// discipline (sequential applies, the epoch barrier, Ref updates), so
// snapshot consumers can detect — and skip copying — shards that have not
// moved since their last materialization.
type Store struct {
	n, rank, shards int
	sh              []shard
}

type shard struct {
	mu     sync.RWMutex
	ver    uint64             // bumped on every coordinate write
	nodes  []int              // global ids owned by this shard, ascending
	coords []*sgd.Coordinates // parallel to nodes; slices alias back
	back   []float64          // [u₀ v₀ u₁ v₁ …] of the owned nodes
}

// NewStore allocates a store for n nodes of the given rank across shards
// partitions (clamped to [1, n]). Coordinates start at zero; fill them with
// InitUniform or per-node Ref.Set.
func NewStore(n, rank, shards int) *Store {
	if n <= 0 || rank <= 0 {
		panic(fmt.Sprintf("engine: store needs n>0, rank>0; got n=%d rank=%d", n, rank))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	s := &Store{n: n, rank: rank, shards: shards, sh: make([]shard, shards)}
	for p := range s.sh {
		count := (n - p + shards - 1) / shards
		sh := &s.sh[p]
		sh.nodes = make([]int, 0, count)
		sh.coords = make([]*sgd.Coordinates, 0, count)
		sh.back = make([]float64, count*2*rank)
		off := 0
		for i := p; i < n; i += shards {
			sh.nodes = append(sh.nodes, i)
			sh.coords = append(sh.coords, &sgd.Coordinates{
				U: sh.back[off : off+rank : off+rank],
				V: sh.back[off+rank : off+2*rank : off+2*rank],
			})
			off += 2 * rank
		}
	}
	return s
}

// NewSoloStore is the single-node store used by standalone runtime nodes
// (UDP deployments) that are not part of a swarm-wide store.
func NewSoloStore(rank int) *Store { return NewStore(1, rank, 1) }

// N returns the node count.
func (s *Store) N() int { return s.n }

// Rank returns the coordinate dimensionality.
func (s *Store) Rank() int { return s.rank }

// Shards returns the partition count P.
func (s *Store) Shards() int { return s.shards }

// ShardOf returns the shard owning node i.
func (s *Store) ShardOf(i int) int { return i % s.shards }

// Coord returns node i's live coordinates with no synchronization. Only for
// exclusive-access contexts (the sequential driver, epoch workers on their
// own shard, quiescent evaluation).
func (s *Store) Coord(i int) *sgd.Coordinates {
	return s.sh[i%s.shards].coords[i/s.shards]
}

// InitUniform draws every node's coordinates from Uniform[0,1) in ascending
// node order (U row then V row per node), consuming rng exactly as a loop
// of sgd.NewCoordinates calls would — this is what keeps fixed-seed runs of
// the sequential driver bit-compatible across shard counts.
func (s *Store) InitUniform(rng *rand.Rand) {
	for i := 0; i < s.n; i++ {
		c := s.Coord(i)
		vec.RandUniform(rng, c.U)
		vec.RandUniform(rng, c.V)
	}
	for p := range s.sh {
		s.sh[p].ver++
	}
}

// bump advances the version of node i's shard. Exclusive contexts only
// (the sequential driver, epoch barrier); shared writers bump under the
// shard lock inside Ref.Update.
func (s *Store) bump(i int) { s.sh[i%s.shards].ver++ }

// bumpShard advances shard p's version. Exclusive contexts only.
func (s *Store) bumpShard(p int) { s.sh[p].ver++ }

// ShardVersion returns shard p's current version.
func (s *Store) ShardVersion(p int) uint64 {
	sh := &s.sh[p]
	sh.mu.RLock()
	v := sh.ver
	sh.mu.RUnlock()
	return v
}

// Versions fills dst (allocating when nil or mis-sized) with the per-shard
// version vector, reading each shard's counter under its lock.
func (s *Store) Versions(dst []uint64) []uint64 {
	if len(dst) != s.shards {
		dst = make([]uint64, s.shards)
	}
	for p := range s.sh {
		dst[p] = s.ShardVersion(p)
	}
	return dst
}

// VersionsEqual reports whether the store's current version vector equals
// vers. A false result means at least one shard has been written since
// vers was captured; a true result is point-in-time per shard, like any
// snapshot of a live store.
func (s *Store) VersionsEqual(vers []uint64) bool {
	if len(vers) != s.shards {
		return false
	}
	for p := range s.sh {
		if s.ShardVersion(p) != vers[p] {
			return false
		}
	}
	return true
}

// SnapshotInto copies every node's coordinates into flat row-major arrays
// (node i's rows at [i*rank, (i+1)*rank)), taking each shard's read lock
// once. u and v must have length n*rank.
func (s *Store) SnapshotInto(u, v []float64) {
	if len(u) != s.n*s.rank || len(v) != s.n*s.rank {
		panic(fmt.Sprintf("engine: snapshot buffers %d/%d, want %d", len(u), len(v), s.n*s.rank))
	}
	for p := range s.sh {
		sh := &s.sh[p]
		sh.mu.RLock()
		for li, i := range sh.nodes {
			copy(u[i*s.rank:(i+1)*s.rank], sh.coords[li].U)
			copy(v[i*s.rank:(i+1)*s.rank], sh.coords[li].V)
		}
		sh.mu.RUnlock()
	}
}

// SnapshotFlat allocates and returns flat row-major copies of U and V.
func (s *Store) SnapshotFlat() (u, v []float64) {
	u = make([]float64, s.n*s.rank)
	v = make([]float64, s.n*s.rank)
	s.SnapshotInto(u, v)
	return u, v
}

// SnapshotDeltaInto refreshes a previously materialized snapshot in place:
// it re-copies only the shards whose version differs from vers[p], updates
// vers to the versions actually copied, and returns the number of shards
// copied. u and v must hold the rows materialized at vers (length n·rank
// each) — rows of skipped shards are left untouched, which is what makes
// the refresh cheaper than SnapshotInto when most shards are quiet. The
// version read and the row copy happen under one shard read-lock, so each
// shard's rows and version stay mutually consistent even under live
// writers.
func (s *Store) SnapshotDeltaInto(u, v []float64, vers []uint64) int {
	if len(u) != s.n*s.rank || len(v) != s.n*s.rank {
		panic(fmt.Sprintf("engine: snapshot buffers %d/%d, want %d", len(u), len(v), s.n*s.rank))
	}
	if len(vers) != s.shards {
		panic(fmt.Sprintf("engine: version vector length %d, want %d", len(vers), s.shards))
	}
	copied := 0
	for p := range s.sh {
		sh := &s.sh[p]
		sh.mu.RLock()
		if sh.ver == vers[p] {
			sh.mu.RUnlock()
			continue
		}
		for li, i := range sh.nodes {
			copy(u[i*s.rank:(i+1)*s.rank], sh.coords[li].U)
			copy(v[i*s.rank:(i+1)*s.rank], sh.coords[li].V)
		}
		vers[p] = sh.ver
		sh.mu.RUnlock()
		copied++
	}
	mSnapshotShards.Add(uint64(copied))
	return copied
}

// RestoreFlat overwrites every node's coordinates from flat row-major
// arrays (node i's rows at [i·rank, (i+1)·rank)) and sets the per-shard
// version counters to vers — the checkpoint-restore inverse of
// SnapshotInto + Versions. Versions are set, not bumped: a restored
// store reports exactly the vector the state was captured at, so delta
// consumers (snapshot refresh, replication) resume from the right
// point. Each shard's rows and version are written under its lock.
func (s *Store) RestoreFlat(u, v []float64, vers []uint64) {
	if len(u) != s.n*s.rank || len(v) != s.n*s.rank {
		panic(fmt.Sprintf("engine: restore buffers %d/%d, want %d", len(u), len(v), s.n*s.rank))
	}
	if len(vers) != s.shards {
		panic(fmt.Sprintf("engine: restore version vector length %d, want %d", len(vers), s.shards))
	}
	for p := range s.sh {
		sh := &s.sh[p]
		sh.mu.Lock()
		for li, i := range sh.nodes {
			copy(sh.coords[li].U, u[i*s.rank:(i+1)*s.rank])
			copy(sh.coords[li].V, v[i*s.rank:(i+1)*s.rank])
		}
		sh.ver = vers[p]
		sh.mu.Unlock()
	}
}

// SetShardBlock overwrites shard p's rows from packed row-major arrays
// (the shard's nodes in ascending global order, one rank-length U row and
// V row per node — the layout replication and cluster mirror frames use)
// and sets the shard's version to ver. Like RestoreFlat, the version is
// set rather than bumped: a mirrored shard reports the version its owner
// assigned, so version vectors stay comparable across trainers. Rows and
// version are written under the shard lock.
func (s *Store) SetShardBlock(p int, u, v []float64, ver uint64) {
	if p < 0 || p >= s.shards {
		panic(fmt.Sprintf("engine: shard %d out of [0,%d)", p, s.shards))
	}
	sh := &s.sh[p]
	want := len(sh.nodes) * s.rank
	if len(u) != want || len(v) != want {
		panic(fmt.Sprintf("engine: shard block %d/%d floats, want %d", len(u), len(v), want))
	}
	sh.mu.Lock()
	for li := range sh.nodes {
		copy(sh.coords[li].U, u[li*s.rank:(li+1)*s.rank])
		copy(sh.coords[li].V, v[li*s.rank:(li+1)*s.rank])
	}
	sh.ver = ver
	sh.mu.Unlock()
}

// SnapshotShardBlock copies shard p's rows into packed row-major arrays
// (the SetShardBlock layout) under the shard read-lock and returns the
// version the rows were copied at. u and v must each hold
// ShardNodeCount(p)·rank floats.
func (s *Store) SnapshotShardBlock(p int, u, v []float64) uint64 {
	if p < 0 || p >= s.shards {
		panic(fmt.Sprintf("engine: shard %d out of [0,%d)", p, s.shards))
	}
	sh := &s.sh[p]
	want := len(sh.nodes) * s.rank
	if len(u) != want || len(v) != want {
		panic(fmt.Sprintf("engine: shard block %d/%d floats, want %d", len(u), len(v), want))
	}
	sh.mu.RLock()
	for li := range sh.nodes {
		copy(u[li*s.rank:(li+1)*s.rank], sh.coords[li].U)
		copy(v[li*s.rank:(li+1)*s.rank], sh.coords[li].V)
	}
	ver := sh.ver
	sh.mu.RUnlock()
	return ver
}

// ShardNodeCount returns the number of nodes shard p owns.
func (s *Store) ShardNodeCount(p int) int { return len(s.sh[p].nodes) }

// Ref returns a locked handle to node i's coordinates.
func (s *Store) Ref(i int) Ref {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("engine: ref index %d out of [0,%d)", i, s.n))
	}
	return Ref{s: s, id: i}
}

// Ref is a handle to one node's slot in a Store. All methods synchronize on
// the owning shard's lock, so any number of runtime nodes and evaluators
// may use refs concurrently. The zero Ref is invalid.
type Ref struct {
	s  *Store
	id int
}

// Valid reports whether the ref points at a store slot.
func (r Ref) Valid() bool { return r.s != nil }

// ID returns the node index within the store.
func (r Ref) ID() int { return r.id }

// View runs fn with read access to the coordinates. fn must not retain or
// mutate them.
func (r Ref) View(fn func(c *sgd.Coordinates)) {
	sh := &r.s.sh[r.id%r.s.shards]
	sh.mu.RLock()
	fn(sh.coords[r.id/r.s.shards])
	sh.mu.RUnlock()
}

// Update runs fn with exclusive access to the coordinates and returns fn's
// result (conventionally: whether an update was applied). A true result
// bumps the owning shard's version.
func (r Ref) Update(fn func(c *sgd.Coordinates) bool) bool {
	sh := &r.s.sh[r.id%r.s.shards]
	t0 := startTimer()
	sh.mu.Lock()
	observeSince(mLockWait, t0)
	ok := fn(sh.coords[r.id/r.s.shards])
	if ok {
		sh.ver++
		mSteps.Inc()
	}
	sh.mu.Unlock()
	return ok
}

// Snapshot returns an independent copy of the coordinates.
func (r Ref) Snapshot() *sgd.Coordinates {
	var out *sgd.Coordinates
	r.View(func(c *sgd.Coordinates) { out = c.Clone() })
	return out
}

// Set copies the values of c into the slot.
func (r Ref) Set(c *sgd.Coordinates) {
	r.Update(func(dst *sgd.Coordinates) bool {
		copy(dst.U, c.U)
		copy(dst.V, c.V)
		return true
	})
}
