// Package replica turns the single-process serving tier into a cluster of
// eventually-consistent read replicas. It builds on three pieces:
//
//   - versioned state: State is an immutable snapshot of every node's
//     coordinates, structured as one contiguous block per shard with the
//     store's per-shard version counters attached;
//   - snapshot deltas: a State diffs against a remote version vector and
//     ships only the shards that advanced (wire.Delta); Apply materializes
//     a fresh State from a base plus a delta, sharing the blocks of
//     untouched shards instead of re-copying them;
//   - gossip anti-entropy: Peer exchanges version vectors with random
//     peers over any transport.Transport and pulls only stale shards.
//
// The consistency model is eventual with a single writer: one trainer
// replica advances the versions, any number of serving replicas converge
// to it. Reads never block — replicas serve whatever immutable State they
// hold while newer shards stream in.
//
// Trust model: inbound messages are untrusted for safety (the wire layer
// bounds every allocation) but trusted for authenticity, like the probe
// protocol — run the gossip tier on a private network. See DESIGN.md §7.
package replica

import (
	"errors"
	"fmt"

	"dmfsgd/internal/wire"
)

// ErrShardTooLarge marks a chunked-bootstrap request whose per-frame
// budget cannot fit even one shard block: shard granularity is the
// chunking floor, so the state must be sharded finer (or the budget
// raised) before it can be served.
var ErrShardTooLarge = errors.New("replica: shard block exceeds the per-frame budget")

// Meta is the serving metadata replicated alongside the coordinates.
type Meta struct {
	// Steps is the trainer's cumulative update counter at capture.
	Steps uint64
	// Tau is the classification threshold the coordinates were trained
	// against; Metric the measured quantity (dataset.Metric).
	Tau    float64
	Metric uint8
}

// State is one immutable versioned coordinate snapshot. Shard p owns nodes
// p, p+P, p+2P, … (the store's assignment); each shard's U and V rows live
// in one contiguous block, ascending by global node id. Immutability is
// what makes block sharing across states safe: Apply and Update reuse the
// blocks of shards whose version did not advance.
type State struct {
	// N, Rank and Shards fix the geometry.
	N, Rank, Shards int
	// Meta carries steps, τ and the metric.
	Meta Meta

	vers   []uint64
	blocks []coordBlock
}

type coordBlock struct{ u, v []float64 }

// Vers returns the per-shard version vector (shared; do not modify).
func (st *State) Vers() []uint64 { return st.vers }

// Update materializes a state from flat row-major coordinate arrays (node
// i's rows at [i·rank, (i+1)·rank), as Snapshot.Flat returns them) and
// the store's per-shard version vector. When base has the same geometry,
// the blocks of shards whose version is unchanged are shared from base
// instead of re-copied — the trainer-side delta capture; the others are
// packed into fresh blocks. vers, u and v are copied as needed and may be
// reused by the caller.
func Update(base *State, n, rank, shards int, meta Meta, vers []uint64, u, v []float64) (*State, error) {
	if n < 1 || rank < 1 || shards < 1 || shards > n {
		return nil, fmt.Errorf("replica: bad geometry n=%d rank=%d shards=%d", n, rank, shards)
	}
	if len(vers) != shards {
		return nil, fmt.Errorf("replica: version vector length %d, want %d", len(vers), shards)
	}
	if len(u) != n*rank || len(v) != n*rank {
		return nil, fmt.Errorf("replica: flat arrays %d/%d, want %d", len(u), len(v), n*rank)
	}
	if base != nil && (base.N != n || base.Rank != rank || base.Shards != shards) {
		base = nil // geometry changed: full rebuild
	}
	st := &State{
		N: n, Rank: rank, Shards: shards,
		Meta:   meta,
		vers:   append([]uint64(nil), vers...),
		blocks: make([]coordBlock, shards),
	}
	for p := 0; p < shards; p++ {
		if base != nil && base.vers[p] == vers[p] {
			st.blocks[p] = base.blocks[p]
			continue
		}
		st.blocks[p] = packShard(n, rank, shards, p, u, v)
	}
	return st, nil
}

// packShard copies shard p's rows out of flat row-major arrays into one
// contiguous block.
func packShard(n, rank, shards, p int, u, v []float64) coordBlock {
	rows := wire.ShardNodes(n, p, shards)
	b := coordBlock{
		u: make([]float64, rows*rank),
		v: make([]float64, rows*rank),
	}
	for li := 0; li < rows; li++ {
		i := p + li*shards
		copy(b.u[li*rank:(li+1)*rank], u[i*rank:(i+1)*rank])
		copy(b.v[li*rank:(li+1)*rank], v[i*rank:(i+1)*rank])
	}
	return b
}

// Blocks returns the per-shard coordinate blocks: block p holds the rows
// of nodes p, p+P, 2P+p, … ascending, Rank values per row — the layout
// NewSnapshotBlocks serves from directly. The returned outer slices are
// freshly allocated; the blocks themselves are views into the immutable
// state and must not be modified. Blocks of shards a delta did not
// advance are shared (pointer-identical) with the previous state's, which
// is what lets a serving-snapshot publish skip re-validating them.
func (st *State) Blocks() (u, v [][]float64) {
	u = make([][]float64, st.Shards)
	v = make([][]float64, st.Shards)
	for p := range st.blocks {
		u[p] = st.blocks[p].u
		v[p] = st.blocks[p].v
	}
	return u, v
}

// VersionVec builds the anti-entropy announcement for this state.
func (st *State) VersionVec(from uint32, addr string) *wire.VersionVec {
	return &wire.VersionVec{
		From: from, Addr: addr,
		N: uint32(st.N), Rank: uint16(st.Rank), Shards: uint16(st.Shards),
		Steps: st.Meta.Steps,
		Vers:  st.vers,
	}
}

func (st *State) deltaHeader(from uint32) *wire.Delta {
	return &wire.Delta{
		From: from,
		N:    uint32(st.N), Rank: uint16(st.Rank), Shards: uint16(st.Shards),
		Steps:  st.Meta.Steps,
		Tau:    st.Meta.Tau,
		Metric: st.Meta.Metric,
	}
}

// DeltasFor builds the requested shards' blocks chunked greedily into
// frames of at most budget floats per coordinate side (0 means
// wire.MaxStateFloats) — the chunked bootstrap path for states whose
// full geometry exceeds one frame. Unknown shard ids and holes are
// skipped. A single shard block larger than the budget is detected up
// front and returns ErrShardTooLarge — shard granularity is the
// chunking floor, so no frame the budget permits could carry it, and
// failing here beats emitting a frame that dies at encode. Each frame
// repeats the header; Apply attaches frames in any order, so losing
// one frame costs one re-pull, not the bootstrap.
func (st *State) DeltasFor(from uint32, shards []uint16, budget int) ([]*wire.Delta, error) {
	if budget <= 0 {
		budget = wire.MaxStateFloats
	}
	var out []*wire.Delta
	cur := st.deltaHeader(from)
	total := 0
	for _, s := range shards {
		p := int(s)
		if p < 0 || p >= st.Shards || st.blocks[p].u == nil {
			continue
		}
		want := len(st.blocks[p].u)
		if want > budget {
			return nil, fmt.Errorf("%w: shard %d carries %d floats per side, budget %d (shard the state finer)",
				ErrShardTooLarge, p, want, budget)
		}
		if len(cur.Blocks) > 0 && total+want > budget {
			out = append(out, cur)
			cur = st.deltaHeader(from)
			total = 0
		}
		cur.Blocks = append(cur.Blocks, wire.DeltaBlock{
			Shard: s,
			Ver:   st.vers[p],
			U:     st.blocks[p].u,
			V:     st.blocks[p].v,
		})
		total += want
	}
	if len(cur.Blocks) > 0 {
		out = append(out, cur)
	}
	return out, nil
}

// Complete reports whether every shard's block has landed. States built
// by Update are always complete; states materialized by Apply from a
// partial bootstrap have holes until every shard's frame arrives. An
// incomplete state advertises version 0 for its holes (so anti-entropy
// keeps pulling them) and must not be served or checkpointed (its holes
// have no blocks).
func (st *State) Complete() bool {
	if st == nil {
		return false
	}
	for p := range st.blocks {
		if st.blocks[p].u == nil {
			return false
		}
	}
	return true
}

// StaleShards returns the shard ids where the remote vector is newer than
// this state — the shards to pull. A nil receiver (no local state yet) is
// stale on every remote shard. A remote vector with mismatched geometry
// yields nil: it describes an incompatible snapshot.
func (st *State) StaleShards(vv *wire.VersionVec) []uint16 {
	if vv.N == 0 {
		return nil
	}
	if st == nil {
		out := make([]uint16, vv.Shards)
		for p := range out {
			out[p] = uint16(p)
		}
		return out
	}
	if int(vv.N) != st.N || int(vv.Rank) != st.Rank || int(vv.Shards) != st.Shards {
		return nil
	}
	var out []uint16
	for p := 0; p < st.Shards; p++ {
		if vv.Vers[p] > st.vers[p] {
			out = append(out, uint16(p))
		}
	}
	return out
}

// NewerThan reports whether this state holds at least one shard strictly
// newer than the remote vector (or the remote has no state at all) —
// the "you should pull from me" half of the exchange. A nil receiver is
// never newer.
func (st *State) NewerThan(vv *wire.VersionVec) bool {
	if st == nil {
		return false
	}
	if vv.N == 0 {
		return true
	}
	if int(vv.N) != st.N || int(vv.Rank) != st.Rank || int(vv.Shards) != st.Shards {
		return false
	}
	for p := 0; p < st.Shards; p++ {
		if st.vers[p] > vv.Vers[p] {
			return true
		}
	}
	return false
}

// Apply materializes a fresh state from base plus a delta, sharing the
// blocks of every shard the delta does not advance — only shards whose
// version moved are (re)attached, and those alias the delta's decoded
// blocks, so nothing is re-copied. Blocks whose version is not newer than
// base's are skipped (stale gossip); a hole — a shard a partial bootstrap
// has not filled yet — accepts any version. A nil base materializes an
// incomplete state holding whatever shards the delta carries (the
// chunked bootstrap: frames attach in any order, Complete reports when
// the last hole fills). Returns the new state (base itself when nothing
// applied) and the number of blocks applied.
//
// Apply takes ownership of the delta's block slices; do not reuse d after
// a successful call.
func Apply(base *State, d *wire.Delta) (*State, int, error) {
	n, rank, shards := int(d.N), int(d.Rank), int(d.Shards)
	if base != nil && (base.N != n || base.Rank != rank || base.Shards != shards) {
		return base, 0, fmt.Errorf("replica: delta geometry %d/%d/%d against state %d/%d/%d",
			n, rank, shards, base.N, base.Rank, base.Shards)
	}
	applied := 0
	for _, b := range d.Blocks {
		p := int(b.Shard)
		if base == nil || base.blocks[p].u == nil || b.Ver > base.vers[p] {
			applied++
		}
	}
	if applied == 0 {
		if base == nil {
			return nil, 0, fmt.Errorf("replica: bootstrap delta carries no blocks")
		}
		return base, 0, nil
	}
	st := &State{
		N: n, Rank: rank, Shards: shards,
		Meta:   Meta{Tau: d.Tau, Metric: d.Metric, Steps: d.Steps},
		vers:   make([]uint64, shards),
		blocks: make([]coordBlock, shards),
	}
	if base != nil {
		copy(st.vers, base.vers)
		copy(st.blocks, base.blocks)
		if base.Meta.Steps > st.Meta.Steps {
			st.Meta = base.Meta // the delta was older than what we hold
		}
	}
	for _, b := range d.Blocks {
		p := int(b.Shard)
		if st.blocks[p].u != nil && b.Ver <= st.vers[p] {
			continue
		}
		st.vers[p] = b.Ver
		st.blocks[p] = coordBlock{u: b.U, v: b.V}
	}
	return st, applied, nil
}
