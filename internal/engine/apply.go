package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// Sample is one externally supplied labeled measurement for the batch
// apply path: node I consumed training label Label (a class ±1 or a
// scaled quantity, in the same units as the label matrix) for the path
// I → J. Batches of samples come from the ingestion layer — trace
// replay, NDJSON streams, scenario-decorated sources — rather than from
// the engine's own probe sampling.
type Sample struct {
	// I is the observing node, J the probed node.
	I, J int
	// Label is the training label the measurement yielded.
	Label float64
}

// RoutedTarget is one cross-shard ABW target update leaving the local
// partition: node Target's vⱼ must move against Sender's batch-start uᵢ
// with scaled label X. K is the sample's batch index — the deterministic
// (target, sender, k) apply-order tie-break — so a remote owner merging
// routed updates from several trainers applies them in the same total
// order a single engine would have, whatever order the tuples arrive in
// (see CommitBatchTargets).
type RoutedTarget struct {
	Target, Sender, K int32
	X                 float64
}

// ApplyBatch applies one epoch-style batch of externally supplied
// samples; see ApplyBatchCtx.
func (e *Engine) ApplyBatch(batch []Sample) int {
	n, _ := e.ApplyBatchCtx(context.Background(), batch)
	return n
}

// ApplyBatchCtx trains on one batch of externally supplied measurements
// through the sharded epoch path: peer coordinates are read from a
// batch-start snapshot, each shard's samples are applied by a worker in
// batch order, and (in asymmetric mode) the cross-shard target updates
// are routed through the epoch mailboxes and applied in
// (target, sender, batch index) order at the barrier, by the same drain
// as an epoch's. This is the epoch analogue of ApplyLabel: where
// ApplyLabel streams Gauss-Seidel updates one at a time, ApplyBatchCtx
// treats the batch as one synchronous training epoch over whatever
// measurements the ingestion layer grouped together.
//
// For a fixed batch the resulting coordinates are bit-identical for
// every shard and worker count: a sample only writes its observing
// node's vectors (all of one node's samples live in one shard and apply
// in batch order), peer reads come from the immutable batch-start
// snapshot, and the mailbox apply order is independent of the shard
// partition. Like RunEpochCtx, a cancelled call leaves the store valid
// but incomplete and returns the context's error; the cross-shard
// determinism contract holds for batches that complete.
//
// ApplyBatchCtx requires exclusive use of the store (do not run it
// concurrently with itself, Run, RunEpoch or Ref access). Samples with
// out-of-range node ids or a non-finite label are rejected with an
// error before anything is applied.
func (e *Engine) ApplyBatchCtx(ctx context.Context, batch []Sample) (int, error) {
	total, _, err := e.ApplyBatchOwned(ctx, batch, nil)
	if err != nil {
		return 0, err
	}
	if err := e.CommitBatchTargets(ctx, nil, nil); err != nil {
		return total, err
	}
	e.steps += total
	return total, ctx.Err()
}

// ApplyBatchOwned is the sender half of ApplyBatchCtx restricted to a
// shard-ownership mask: it refreshes the batch-start snapshot, then
// applies the sender updates of every sample whose observing node lives
// in an owned shard (owned == nil means all shards are owned — the
// single-trainer case). Cross-shard target updates destined to owned
// shards stay queued in the epoch mailboxes for CommitBatchTargets;
// updates destined to shards owned elsewhere are returned as routed
// tuples for the cluster layer to ship to their owners.
//
// The batch must be the same on every trainer of a lockstep round: each
// trainer applies its owned slice against the identical batch-start
// snapshot, and the union of all trainers' work equals one
// ApplyBatchCtx on a single engine (pinned by the cluster tests).
// Returns the sender updates applied; validation errors reject the
// whole batch before anything is applied. ApplyBatchOwned does not
// advance the step counter or shard versions — that is
// CommitBatchTargets' barrier.
func (e *Engine) ApplyBatchOwned(ctx context.Context, batch []Sample, owned []bool) (int, []RoutedTarget, error) {
	start := startTimer()
	defer func() {
		observeSince(mBatchSec, start)
	}()
	if len(batch) > math.MaxInt32 {
		return 0, nil, fmt.Errorf("engine: batch of %d samples exceeds the %d limit", len(batch), math.MaxInt32)
	}
	n := e.store.n
	p := e.store.shards
	if owned != nil && len(owned) != p {
		return 0, nil, fmt.Errorf("engine: ownership mask over %d shards, store has %d", len(owned), p)
	}
	for idx, sm := range batch {
		if sm.I < 0 || sm.I >= n || sm.J < 0 || sm.J >= n || sm.I == sm.J {
			return 0, nil, fmt.Errorf("engine: batch sample %d has invalid pair (%d,%d) for %d nodes", idx, sm.I, sm.J, n)
		}
		if math.IsNaN(sm.Label) || math.IsInf(sm.Label, 0) {
			return 0, nil, fmt.Errorf("engine: batch sample %d has non-finite label %v", idx, sm.Label)
		}
	}
	e.beginRound()
	// Group sample indices by the observing node's shard, preserving
	// batch order within each shard (so each outbox holds every sender's
	// deliveries in batch-index order, as the drain needs); samples
	// observed by nodes in shards owned elsewhere are that owner's work.
	for s := 0; s < p; s++ {
		e.groups[s] = e.groups[s][:0]
	}
	for idx, sm := range batch {
		s := e.store.ShardOf(sm.I)
		if owned == nil || owned[s] {
			e.groups[s] = append(e.groups[s], int32(idx))
		}
	}

	e.forEachShard(ctx, sweep{kind: sweepBatch, batch: batch})

	// Extract the deliveries addressed to shards owned elsewhere: they
	// are routed over the wire instead of drained locally.
	var routed []RoutedTarget
	if owned != nil && !e.cfg.Symmetric {
		for s := 0; s < p; s++ {
			for d := 0; d < p; d++ {
				if owned[d] {
					continue
				}
				for _, dv := range e.out[s][d] {
					routed = append(routed, RoutedTarget{Target: dv.target, Sender: dv.sender, K: dv.k, X: dv.x})
				}
				e.out[s][d] = e.out[s][d][:0]
			}
		}
	}

	total := 0
	for _, c := range e.counts {
		total += c
	}
	mSteps.Add(uint64(total))
	return total, routed, nil
}

// CommitBatchTargets is the barrier half of ApplyBatchCtx: it merges the
// queued local mailbox deliveries with inbound routed tuples from remote
// trainers, applies each owned shard's target updates in
// (target, sender, batch index) order against the batch-start snapshot,
// and advances the version of every shard written this batch. owned and
// inbound follow ApplyBatchOwned: nil owned means all shards, and
// inbound tuples must address owned shards (anything else — or a
// non-finite X — rejects the whole inbound set before any update is
// applied, since routed tuples cross a process boundary).
//
// For the same reason their order is not trusted: the inbound tuples are
// sorted by (sender, batch index) once, keeping arrival order among
// equal keys, and join the drain as one more sender-ordered list beside
// the local outboxes (a sender found in both merges by batch index, local
// first on a tie). The result does not depend on the order inbound
// arrives in. A cancelled context applies nothing more and queues
// nothing: the next epoch or batch starts from empty mailboxes.
func (e *Engine) CommitBatchTargets(ctx context.Context, inbound []RoutedTarget, owned []bool) error {
	n := e.store.n
	p := e.store.shards
	if owned != nil && len(owned) != p {
		return fmt.Errorf("engine: ownership mask over %d shards, store has %d", len(owned), p)
	}
	e.ensureEpochState()
	if e.cfg.Symmetric && len(inbound) > 0 {
		return fmt.Errorf("engine: routed updates are asymmetric-only, engine is symmetric")
	}
	for idx, rt := range inbound {
		if rt.Target < 0 || int(rt.Target) >= n || rt.Sender < 0 || int(rt.Sender) >= n {
			return fmt.Errorf("engine: routed update %d has invalid pair (%d,%d) for %d nodes", idx, rt.Sender, rt.Target, n)
		}
		if s := e.store.ShardOf(int(rt.Target)); owned != nil && !owned[s] {
			return fmt.Errorf("engine: routed update %d targets shard %d, which is not owned here", idx, s)
		}
		if math.IsNaN(rt.X) || math.IsInf(rt.X, 0) {
			return fmt.Errorf("engine: routed update %d has non-finite label %v", idx, rt.X)
		}
	}
	if !e.cfg.Symmetric && ctx.Err() == nil {
		for _, rt := range inbound {
			s := e.store.ShardOf(int(rt.Target))
			e.inmail[s] = append(e.inmail[s], abwDelivery{target: rt.Target, sender: rt.Sender, k: rt.K, x: rt.X})
		}
		for s := range e.inmail {
			slices.SortStableFunc(e.inmail[s], cmpSenderK)
		}
		e.forEachShard(ctx, sweep{kind: sweepDrain, owned: owned})
	}

	// The epoch barrier: advance every written shard's version once.
	for s := 0; s < p; s++ {
		if e.dirty[s] {
			e.store.bumpShard(s)
		}
	}
	return nil
}

// applyBatchShard applies shard s's samples in batch order. Each sample
// updates only the observing node's vectors (which live in this shard);
// peer reads come from the batch-start snapshot, so no locking is
// needed anywhere on this path.
func (e *Engine) applyBatchShard(s int, batch []Sample) int {
	rank := e.store.rank
	applied := 0
	for _, idx := range e.groups[s] {
		sm := batch[idx]
		x := sm.Label / e.scale
		c := e.store.Coord(sm.I)
		ju := e.snapU[sm.J*rank : (sm.J+1)*rank]
		jv := e.snapV[sm.J*rank : (sm.J+1)*rank]
		if e.cfg.Symmetric {
			// Algorithm 1: both of the observer's vectors move against
			// the peer's batch-start coordinates.
			e.cfg.SGD.UpdateRTT(c, ju, jv, x)
		} else {
			// Algorithm 2: the sender update fires here against the
			// batch-start vⱼ; the target update is routed to j's shard
			// with the batch index as the tie-break sequence.
			d := e.store.ShardOf(sm.J)
			e.cfg.SGD.UpdateABWSender(c, jv, x)
			e.out[s][d] = append(e.out[s][d], abwDelivery{
				target: int32(sm.J), sender: int32(sm.I), k: idx, x: x,
			})
		}
		applied++
	}
	if applied > 0 {
		e.dirty[s] = true
	}
	return applied
}
