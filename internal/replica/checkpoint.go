package replica

import (
	"fmt"

	"dmfsgd/internal/ckpt"
)

// FromCheckpoint materializes a replica State from a decoded checkpoint
// — the follower bootstrap path: a serving replica that saved its state
// before a restart starts from the local file instead of a full remote
// pull, and the restored version vector makes the anti-entropy exchange
// ship only the shards that advanced while the replica was down.
// Works with any checkpoint (a trainer session's or a follower's own):
// only the coordinates, version vector and serving metadata are used.
// The state adopts the checkpoint's blocks without copying them; the
// caller must not modify them afterwards.
func FromCheckpoint(c *ckpt.Checkpoint) (*State, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	st := &State{
		N: c.N, Rank: c.Rank, Shards: c.Shards,
		Meta:   Meta{Steps: c.Steps, Tau: c.Tau, Metric: c.Metric},
		vers:   append([]uint64(nil), c.Vers...),
		blocks: make([]coordBlock, c.Shards),
	}
	for p := range st.blocks {
		st.blocks[p] = coordBlock{u: c.U[p], v: c.V[p]}
	}
	return st, nil
}

// Checkpoint captures the state in the durable checkpoint format. A
// replica state carries no topology or RNG streams, so the counters a
// trainer session records are zero: the resulting file bootstraps
// serving replicas (FromCheckpoint) but is not a training resume point
// (ResumeSession rejects its k=0 topology). The capture shares the
// state's immutable blocks; writing it copies nothing but the bytes.
func (st *State) Checkpoint() *ckpt.Checkpoint {
	u, v := st.Blocks()
	return &ckpt.Checkpoint{
		N: st.N, Rank: st.Rank, Shards: st.Shards,
		Steps:  st.Meta.Steps,
		Tau:    st.Meta.Tau,
		Metric: st.Meta.Metric,
		Vers:   append([]uint64(nil), st.vers...),
		U:      u, V: v,
	}
}
