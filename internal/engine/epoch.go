package engine

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"

	"dmfsgd/internal/metrics"
)

// abwDelivery is one routed cross-shard update: the Algorithm-2 target
// update (eq. 13) of node target, triggered by sender's k-th probe of the
// epoch. The sender's uᵢ is looked up in the epoch snapshot at apply time,
// so the delivery itself stays three words.
type abwDelivery struct {
	target, sender int32
	k              int32
	x              float64
}

// cmpSenderK orders deliveries by (sender, k): the order drainShard
// merges the outboxes into, and the one CommitBatchTargets puts inbound
// mail in.
func cmpSenderK(a, b abwDelivery) int {
	if c := cmp.Compare(a.sender, b.sender); c != 0 {
		return c
	}
	return cmp.Compare(a.k, b.k)
}

// DeriveSeed derives the i-th private stream from a master seed with a
// splitmix64 finalizer — the engine uses it for the per-node RNG
// streams of the parallel scheduler (streams are per node, not per
// shard: the node→shard assignment changes with P, and epoch results
// must not), and the ingestion layer's scenario decorators use the
// same construction for their per-node schedules.
func DeriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// ensureEpochState lazily builds the per-node RNG streams, the snapshot
// buffers, the shard mailboxes and the drain scratch.
func (e *Engine) ensureEpochState() {
	if e.nodeRNG != nil {
		return
	}
	n, rank, p := e.store.n, e.store.rank, e.store.shards
	e.nodeRNG = make([]*rand.Rand, n)
	e.nodeSrc = make([]*CountingSource, n)
	for i := range e.nodeRNG {
		// Counting sources so the stream positions are checkpointable;
		// value-transparent, so epoch results are unchanged.
		e.nodeSrc[i] = NewCountingSource(DeriveSeed(e.cfg.Seed, i))
		e.nodeRNG[i] = rand.New(e.nodeSrc[i])
	}
	e.snapU = make([]float64, n*rank)
	e.snapV = make([]float64, n*rank)
	e.snapVers = make([]uint64, p)
	e.counts = make([]int, p)
	e.dirty = make([]bool, p)
	e.out = make([][][]abwDelivery, p)
	for s := range e.out {
		e.out[s] = make([][]abwDelivery, p)
	}
	e.inmail = make([][]abwDelivery, p)
	e.merged = make([][]abwDelivery, p)
	e.inbox = make([][]abwDelivery, p)
	// The drain's counting passes key on a node's row i / P: sender rows
	// span ⌈n/P⌉ values, a shard's own (target) rows no more.
	rows := (n + p - 1) / p
	e.off = make([][]int, p)
	for s := range e.off {
		e.off[s] = make([]int, rows+1)
	}
	e.groups = make([][]int32, p)
}

// beginRound opens an epoch or a batch: it refreshes the epoch-start
// snapshot via the version vector (shards that have not moved since the
// last materialization — missing-data shards, or quiet stretches between
// training bursts — are skipped) and resets the per-shard counters and
// every mailbox, inbound included. Each round starts empty, so updates a
// cancelled round left undelivered drop like lost probes.
func (e *Engine) beginRound() {
	e.ensureEpochState()
	e.store.SnapshotDeltaInto(e.snapU, e.snapV, e.snapVers)
	p := e.store.shards
	for s := 0; s < p; s++ {
		e.counts[s] = 0
		e.dirty[s] = false
		e.inmail[s] = e.inmail[s][:0]
		for d := 0; d < p; d++ {
			e.out[s][d] = e.out[s][d][:0]
		}
	}
}

// RunEpoch executes one parallel training epoch: every node issues
// probesPerNode probes at its neighbors, reading peer coordinates from an
// epoch-start snapshot and updating its own vectors in place. Shards are
// swept concurrently by a worker pool; the cross-shard ABW target updates
// are routed through mailboxes and applied at the epoch barrier in
// (target, sender, probe) order, which the drain gets from how the
// mailboxes are filled rather than by sorting them (see drainShard). For
// a fixed seed the resulting coordinates are bit-identical for every
// shard count (see package doc), and after the first epoch an epoch
// allocates the same small constant for every shard count.
//
// Returns the number of successful updates (probes of missing pairs fail
// and are not retried — an epoch is a fixed probing schedule, not a
// budget). RunEpoch requires exclusive use of the store: do not run it
// concurrently with Ref access or with itself.
func (e *Engine) RunEpoch(probesPerNode int) int {
	total, _ := e.RunEpochCtx(context.Background(), probesPerNode)
	return total
}

// RunEpochCtx is RunEpoch with cancellation at shard granularity: workers
// poll ctx before claiming the next shard sweep, so a cancelled epoch
// returns after at most one in-flight sweep per worker and leaks no
// goroutines. An interrupted epoch leaves the store valid but incomplete —
// the shards already swept keep their updates (and, in asymmetric mode,
// undelivered mailbox updates are dropped like lost probes); the
// cross-shard determinism contract holds only for epochs that complete.
// Returns the successful updates applied and, when interrupted, the
// context's error.
func (e *Engine) RunEpochCtx(ctx context.Context, probesPerNode int) (int, error) {
	if probesPerNode <= 0 {
		panic("engine: probesPerNode must be positive")
	}
	start := startTimer()
	// The pprof label attributes the epoch's samples, worker pool
	// included (goroutines inherit labels when they start), to the epoch
	// scheduler in -pprof profiles. The labels are set from a context
	// built once, rather than by pprof.Do, so an epoch allocates nothing
	// for them; the caller's labels are restored on return.
	pprof.SetGoroutineLabels(epochLabels)
	defer pprof.SetGoroutineLabels(ctx)
	total := e.runEpochLabeled(ctx, probesPerNode)
	dur := sinceDur(start)
	mEpochSec.Observe(dur.Seconds())
	mSteps.Add(uint64(total))
	metrics.Emit("epoch", dur,
		metrics.KV{K: "updates", V: int64(total)},
		metrics.KV{K: "steps", V: int64(e.steps)})
	return total, ctx.Err()
}

// epochLabels carries the profiler label of an epoch, dmf_phase=epoch.
var epochLabels = pprof.WithLabels(context.Background(), pprof.Labels("dmf_phase", "epoch"))

// runEpochLabeled is the epoch body; RunEpochCtx wraps it with
// profiling labels and epoch metrics.
func (e *Engine) runEpochLabeled(ctx context.Context, probesPerNode int) int {
	e.beginRound()
	p := e.store.shards
	e.forEachShard(ctx, sweep{kind: sweepProbe, probes: probesPerNode})
	if !e.cfg.Symmetric && ctx.Err() == nil {
		e.forEachShard(ctx, sweep{kind: sweepDrain})
	}

	// The epoch barrier: advance the version of every shard that was
	// written (its own nodes probed successfully, or routed target updates
	// were applied to it). Exclusive discipline — no locks needed.
	for s := 0; s < p; s++ {
		if e.dirty[s] {
			e.store.bumpShard(s)
		}
	}

	total := 0
	for _, c := range e.counts {
		total += c
	}
	e.steps += total
	return total
}

// RunEpochs runs a fixed number of epochs and returns the cumulative
// successful updates.
func (e *Engine) RunEpochs(epochs, probesPerNode int) int {
	total, _ := e.RunEpochsCtx(context.Background(), epochs, probesPerNode)
	return total
}

// RunEpochsCtx runs up to epochs epochs, checking ctx between epochs and at
// shard granularity within one (see RunEpochCtx). Returns the cumulative
// successful updates and, when interrupted, the context's error.
func (e *Engine) RunEpochsCtx(ctx context.Context, epochs, probesPerNode int) (int, error) {
	total := 0
	for ep := 0; ep < epochs; ep++ {
		n, err := e.RunEpochCtx(ctx, probesPerNode)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// RunEpochBudget runs epochs until at least total successful updates have
// accumulated (the epoch analogue of Run's retry-to-budget semantics) and
// returns the updates performed.
func (e *Engine) RunEpochBudget(total, probesPerNode int) int {
	done := 0
	for done < total {
		got := e.RunEpoch(probesPerNode)
		done += got
		if got == 0 {
			// Nothing measurable anywhere: avoid spinning forever.
			break
		}
	}
	return done
}

// sweep is one per-shard pass of an epoch or a batch, with its
// arguments. forEachShard takes it by value and dispatches on kind, so
// running a pass allocates no closure.
type sweep struct {
	kind   sweepKind
	probes int      // sweepProbe: probes per node
	batch  []Sample // sweepBatch: the batch whose per-shard groups apply
	owned  []bool   // sweepDrain: shards to drain (nil = every shard)
}

type sweepKind uint8

const (
	sweepProbe sweepKind = iota // probeShard: an epoch's probes
	sweepBatch                  // applyBatchShard: a batch's sender updates
	sweepDrain                  // drainShard: the routed target updates
)

// run executes the sweep over shard s.
func (w sweep) run(e *Engine, s int) {
	switch w.kind {
	case sweepProbe:
		e.counts[s] = e.probeShard(s, w.probes)
	case sweepBatch:
		e.counts[s] = e.applyBatchShard(s, w.batch)
	case sweepDrain:
		if w.owned == nil || w.owned[s] {
			e.drainShard(s)
		}
	}
}

// forEachShard runs the sweep over every shard on the worker pool.
// Workers poll ctx before claiming a shard and stop claiming once it is
// cancelled; all spawned goroutines are joined before returning.
func (e *Engine) forEachShard(ctx context.Context, w sweep) {
	p := e.store.shards
	workers := min(e.workers(), p)
	if workers <= 1 {
		for s := 0; s < p; s++ {
			if ctx.Err() != nil {
				return
			}
			w.run(e, s)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				s := int(next.Add(1))
				if s >= p {
					return
				}
				w.run(e, s)
			}
		}()
	}
	wg.Wait()
}

// probeShard sweeps one shard's nodes in ascending order. Each node draws
// its probe slots from its private stream, reads their labels from its
// row of the slot table and updates only its own coordinates; peer reads
// come from the epoch snapshot, so no lock is needed anywhere on this
// path. Each node's deliveries enter its outboxes in k order, which
// drainShard relies on.
func (e *Engine) probeShard(s, probesPerNode int) int {
	sh := &e.store.sh[s]
	rank := e.store.rank
	success := 0
	for li, i := range sh.nodes {
		c := sh.coords[li]
		rng := e.nodeRNG[i]
		nb, lab := e.neighbors[i], e.lab[i]
		for k := 0; k < probesPerNode; k++ {
			slot := rng.Intn(len(nb))
			x := lab[slot]
			if math.IsNaN(x) {
				continue // failed probe; epochs do not retry
			}
			j := nb[slot]
			x /= e.scale
			ju := e.snapU[j*rank : (j+1)*rank]
			jv := e.snapV[j*rank : (j+1)*rank]
			if e.cfg.Symmetric {
				// Algorithm 1: both of i's vectors move against j's
				// epoch-start coordinates.
				e.cfg.SGD.UpdateRTT(c, ju, jv, x)
			} else {
				// Algorithm 2: the sender update (eq. 12) fires here
				// against the pre-epoch vⱼ (the reply carries pre-update
				// coordinates); the target update (eq. 13) is routed to
				// j's shard.
				d := e.store.ShardOf(j)
				e.cfg.SGD.UpdateABWSender(c, jv, x)
				e.out[s][d] = append(e.out[s][d], abwDelivery{
					target: int32(j), sender: int32(i), k: int32(k), x: x,
				})
			}
			success++
		}
	}
	if success > 0 {
		e.dirty[s] = true // workers write only their own shard's slot
	}
	return success
}

// drainShard applies every routed target update addressed to shard s in
// (target, sender, k) order — a total order that does not depend on which
// source shard a delivery came from, so the apply sequence, and therefore
// the floating-point result, is identical for every P. The order comes
// from how the deliveries are built, not from comparing them: every
// outbox holds each sender's deliveries in k order (probeShard sweeps
// each node's probes in k order, and a batch keeps batch order within a
// shard), and CommitBatchTargets puts the inbound mail in (sender, k)
// order. Two stable counting passes, each O(n/P + m), then produce the
// apply order:
//
//   - the first buckets the P outboxes by sender row (sender / P). Node i
//     lives in shard i mod P, so a row holds one sender per source shard,
//     in shard order — which is sender order — and the result is the
//     outboxes merged in (sender, k) order;
//   - the second buckets that merge, with the inbound mail merged in by
//     (sender, k) on the fly (local first on a tie), by target row
//     (target / P), so each target's bucket comes out in (sender, k)
//     order and is applied against the shard's local coordinate slot.
//
// Once the scratch has grown, the drain allocates nothing. Only the
// worker draining s touches s's outboxes, inbound mail and scratch.
func (e *Engine) drainShard(s int) {
	p := e.store.shards
	off := e.off[s]

	clear(off)
	for src := 0; src < p; src++ {
		for _, d := range e.out[src][s] {
			off[int(d.sender)/p+1]++
		}
	}
	m := startOffsets(off)
	merged := slices.Grow(e.merged[s][:0], m)[:m]
	for src := 0; src < p; src++ {
		for _, d := range e.out[src][s] {
			r := int(d.sender) / p
			merged[off[r]] = d
			off[r]++
		}
	}

	clear(off)
	mail := e.inmail[s]
	for _, d := range merged {
		off[int(d.target)/p+1]++
	}
	for _, d := range mail {
		off[int(d.target)/p+1]++
	}
	m = startOffsets(off)
	in := slices.Grow(e.inbox[s][:0], m)[:m]
	for a := merged; len(a)+len(mail) > 0; {
		var d abwDelivery
		if len(mail) == 0 || len(a) > 0 && cmpSenderK(mail[0], a[0]) >= 0 {
			d, a = a[0], a[1:]
		} else {
			d, mail = mail[0], mail[1:]
		}
		r := int(d.target) / p
		in[off[r]] = d
		off[r]++
	}

	// off[li] now ends local node li's bucket.
	rank := e.store.rank
	lo := 0
	for li, c := range e.store.sh[s].coords {
		for _, d := range in[lo:off[li]] {
			su := e.snapU[int(d.sender)*rank : (int(d.sender)+1)*rank]
			e.cfg.SGD.UpdateABWTarget(c, su, d.x)
		}
		lo = off[li]
	}
	if len(in) > 0 {
		e.dirty[s] = true
	}
	e.merged[s], e.inbox[s] = merged[:0], in[:0]
	e.inmail[s] = e.inmail[s][:0]
}

// startOffsets turns the bucket counts of a counting pass, held one slot
// to the right (off[key+1]), into each bucket's start offset, and returns
// the total count.
func startOffsets(off []int) int {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	return off[len(off)-1]
}
