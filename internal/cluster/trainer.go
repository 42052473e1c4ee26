package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"dmfsgd/internal/engine"
	"dmfsgd/internal/metrics"
	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// Sentinel errors Step can return. A caller should treat ErrRoundAborted
// as a lost measurement round (skip the batch, call Step again) and
// ErrEvicted as fatal: the surviving cluster has declared this trainer
// dead and reassigned its shards, so continuing would split the brain.
var (
	ErrRoundAborted = errors.New("cluster: round aborted by ownership change")
	ErrEvicted      = errors.New("cluster: evicted from the ownership map")
)

// rosterPoll is how often WaitRoster rechecks the address book.
const rosterPoll = 20 * time.Millisecond

// defaultTimeout is the barrier timeout when Config.Timeout is zero.
const defaultTimeout = 5 * time.Second

// Config describes one trainer's place in the cluster.
type Config struct {
	// ID is this trainer's stable identity (flag-assigned, not a pid: it
	// must survive restarts so the incarnation lineage stays attached).
	ID uint32
	// Incarnation numbers this process lifetime of ID; a restart from a
	// checkpoint must bump it past the persisted value so the new
	// lineage's clock entries dominate every shard the old life wrote.
	Incarnation uint32
	// Trainers is the full initial roster, self included. At most
	// wire.MaxTrainers entries and no more trainers than shards (every
	// roster member must own at least one shard — eviction is detected
	// by absence from the ownership map).
	Trainers []uint32
	// Transport is the cluster lane. It must be FIFO per peer pair
	// (transport.ListenTCP, or an in-memory Network without reordering
	// delays) and must not be shared with another consumer: Step drains
	// Recv directly.
	Transport transport.Transport
	// Engine is the local training engine. The cluster's step accounting
	// (every trainer advances by the full batch length each round)
	// requires the engine's MailboxCap to be 0 — unbounded — so that the
	// cluster-wide sum of per-trainer applies equals the batch length.
	Engine *engine.Engine
	// Timeout bounds each barrier wait; a peer that misses it is
	// declared dead and failed over. 0 means defaultTimeout.
	Timeout time.Duration
	// Logf, when set, receives protocol diagnostics.
	Logf func(format string, args ...any)
}

// Status is a point-in-time snapshot of the trainer's cluster view,
// the source for dmfserve's /healthz ownership and clock-lag fields.
type Status struct {
	ID          uint32
	Incarnation uint32
	Epoch       uint64
	Round       uint64
	Shards      int
	OwnedShards int
	Owners      []uint32
	Live        []uint32
	// ClockLag sums, over all shards, how far the largest clock weight
	// any peer has advertised runs ahead of the local clock. Zero at
	// quiescence: every broadcast has been merged.
	ClockLag uint64
}

// Trainer runs one member of the lockstep trainer cluster. All methods
// are safe for concurrent use, but Step itself must be called from a
// single goroutine — it is the protocol's main loop.
type Trainer struct {
	cfg     Config
	eng     *engine.Engine
	tp      transport.Transport
	timeout time.Duration

	mu      sync.Mutex
	addrs   map[uint32]string
	live    map[uint32]bool
	owners  []uint32
	mask    []bool
	epoch   uint64
	round   uint64
	clocks  []Clock
	remoteW []uint64
	evicted bool

	prevVers []uint64
	versBuf  []uint64
	// early holds routed frames for the round after the one in flight. A
	// peer that has finished round r (it holds every round-r clock
	// terminator, ours included) may send its round-r+1 routed frames
	// while this trainer still waits for a third trainer's round-r clock
	// frames; per-pair FIFO does not order frames from different senders.
	// No peer can be further ahead. Only the Step goroutine touches it.
	early []wire.RoutedUpdate
}

// New validates cfg and builds the trainer with the epoch-0 ownership
// map computed from the full roster. The local clock starts with one
// entry per owned shard at the store's current version, so a trainer
// restored from a checkpoint announces its resumed lineage immediately.
func New(cfg Config) (*Trainer, error) {
	if cfg.Engine == nil || cfg.Transport == nil {
		return nil, errors.New("cluster: Engine and Transport are required")
	}
	shards := cfg.Engine.Store().Shards()
	if len(cfg.Trainers) == 0 || len(cfg.Trainers) > wire.MaxTrainers {
		return nil, fmt.Errorf("cluster: roster of %d trainers, want [1,%d]",
			len(cfg.Trainers), wire.MaxTrainers)
	}
	if len(cfg.Trainers) > shards {
		return nil, fmt.Errorf("cluster: %d trainers over %d shards; every trainer must own a shard",
			len(cfg.Trainers), shards)
	}
	seen := make(map[uint32]bool, len(cfg.Trainers))
	for _, id := range cfg.Trainers {
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate trainer id %d", id)
		}
		seen[id] = true
	}
	if !seen[cfg.ID] {
		return nil, fmt.Errorf("cluster: own id %d missing from roster %v", cfg.ID, cfg.Trainers)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	t := &Trainer{
		cfg:     cfg,
		eng:     cfg.Engine,
		tp:      cfg.Transport,
		timeout: timeout,
		addrs:   make(map[uint32]string),
		live:    seen,
		owners:  Assign(shards, cfg.Trainers),
		clocks:  make([]Clock, shards),
		remoteW: make([]uint64, shards),
	}
	t.mask = OwnedMask(t.owners, cfg.ID)
	t.prevVers = t.eng.Store().Versions(nil)
	for s, owned := range t.mask {
		if owned {
			t.clocks[s] = t.clocks[s].Tick(cfg.ID, cfg.Incarnation, t.prevVers[s])
		}
	}
	return t, nil
}

func (t *Trainer) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// AddPeer records a roster member's transport address (wired from
// member discovery, or statically from flags). Later addresses win.
func (t *Trainer) AddPeer(id uint32, addr string) {
	if id == t.cfg.ID {
		return
	}
	t.mu.Lock()
	t.addrs[id] = addr
	t.mu.Unlock()
}

// WaitRoster blocks until every live roster member has a known address.
func (t *Trainer) WaitRoster(ctx context.Context) error {
	for {
		t.mu.Lock()
		ready := true
		//dmf:allow detorder readiness is an order-independent conjunction over the roster
		for id := range t.live {
			if id != t.cfg.ID && t.addrs[id] == "" {
				ready = false
				break
			}
		}
		t.mu.Unlock()
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(rosterPoll):
		}
	}
}

// Status snapshots the trainer's cluster view.
func (t *Trainer) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		ID:          t.cfg.ID,
		Incarnation: t.cfg.Incarnation,
		Epoch:       t.epoch,
		Round:       t.round,
		Shards:      len(t.owners),
		OwnedShards: ownedShards(t.mask),
		Owners:      append([]uint32(nil), t.owners...),
	}
	for id := range t.live {
		st.Live = append(st.Live, id)
	}
	sort.Slice(st.Live, func(i, j int) bool { return st.Live[i] < st.Live[j] })
	for s, c := range t.clocks {
		if w := c.Weight(); t.remoteW[s] > w {
			st.ClockLag += t.remoteW[s] - w
		}
	}
	return st
}

// OwnedMask returns a copy of the current ownership mask for this
// trainer (shard → owned here).
func (t *Trainer) OwnedMask() []bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]bool(nil), t.mask...)
}

// roundState accumulates one round's inbound barrier traffic.
type roundState struct {
	epoch      uint64
	round      uint64
	inbound    []engine.RoutedTarget
	routedDone map[uint32]bool
	clockDone  map[uint32]bool
}

// Step runs one lockstep round over batch. Every live trainer must call
// Step with the same round's batch (identical sessions seeded alike
// guarantee this); a nil batch is a heartbeat round — a pure barrier
// exchange that keeps failure detection live while no measurements
// arrive. On success the whole batch has been applied cluster-wide and
// the local engine's step counter advanced by len(batch).
//
// On a barrier timeout the trainer declares the silent peers dead,
// recomputes the ownership map from the survivors (deterministically,
// so concurrent detectors agree), broadcasts it, and returns
// ErrRoundAborted: the round's batch is partially applied, like a lossy
// measurement round. Receiving a higher-epoch ownership map likewise
// aborts the round in flight; ErrEvicted means this trainer was
// declared dead and must stop training.
func (t *Trainer) Step(ctx context.Context, batch []engine.Sample) (n int, err error) {
	start := startTimer()
	// The pprof label attributes profile samples taken anywhere under the
	// round — engine apply, wire encode, barrier wait — to the round loop.
	pprof.Do(ctx, pprof.Labels("dmf_phase", "cluster_round"), func(ctx context.Context) {
		n, err = t.step(ctx, batch)
	})
	dur := sinceDur(start)
	t.mu.Lock()
	round := t.round
	t.updateClockLagLocked()
	t.mu.Unlock()
	switch {
	case err == nil:
		mRounds.Inc()
		mRoundSec.Observe(dur.Seconds())
		metrics.Emit("round", dur,
			metrics.KV{K: "round", V: int64(round)},
			metrics.KV{K: "batch", V: int64(len(batch))})
	case errors.Is(err, ErrRoundAborted), errors.Is(err, ErrEvicted):
		mRoundsAborted.Inc()
		metrics.Emit("round_aborted", dur,
			metrics.KV{K: "round", V: int64(round)})
	}
	return n, err
}

// updateClockLagLocked refreshes the clock-lag gauge from the same
// comparison Status reports. Callers hold t.mu.
func (t *Trainer) updateClockLagLocked() {
	var lag uint64
	for s, c := range t.clocks {
		if w := c.Weight(); t.remoteW[s] > w {
			lag += t.remoteW[s] - w
		}
	}
	mClockLag.SetInt(int64(lag))
}

// step is the round body; Step wraps it with profiling labels, round
// metrics, and tracing.
func (t *Trainer) step(ctx context.Context, batch []engine.Sample) (int, error) {
	t.mu.Lock()
	if t.evicted {
		t.mu.Unlock()
		return 0, ErrEvicted
	}
	st := &roundState{
		epoch:      t.epoch,
		round:      t.round,
		routedDone: make(map[uint32]bool),
		clockDone:  make(map[uint32]bool),
	}
	mask := t.mask
	owners := t.owners
	peers := t.peerIDsLocked()
	t.mu.Unlock()
	held := t.early
	t.early = nil
	for i := range held {
		t.applyRouted(st, &held[i])
	}

	stepsBefore := t.eng.Steps()
	_, routed, err := t.eng.ApplyBatchOwned(ctx, batch, mask)
	if err != nil {
		return 0, err
	}

	// Exchange routed cross-shard target updates; an empty Last frame is
	// the barrier marker when nothing crossed a boundary.
	outbound := make(map[uint32][]wire.Routed)
	for _, r := range routed {
		dst := owners[int(r.Target)%len(owners)]
		outbound[dst] = append(outbound[dst], wire.Routed{
			Target: uint32(r.Target),
			Sender: uint32(r.Sender),
			K:      uint32(r.K),
			X:      r.X,
		})
	}
	for _, id := range peers {
		if err := t.sendRouted(id, st, outbound[id]); err != nil {
			t.logf("cluster: routed send to %d: %v", id, err)
		}
	}
	if err := t.await(ctx, st, false); err != nil {
		return 0, err
	}

	if err := t.eng.CommitBatchTargets(ctx, st.inbound, mask); err != nil {
		return 0, err
	}
	// Valid because MailboxCap is 0 in cluster mode: the sender-shard
	// partition applies every sample exactly once cluster-wide, so each
	// trainer's counter tracks the cluster-wide sample count — the same
	// trajectory a single engine's counter follows.
	t.eng.SetSteps(stepsBefore + len(batch))

	// Tick the clock of every owned shard the round dirtied and
	// broadcast the refreshed blocks; an empty frame terminates the
	// stream and doubles as the barrier marker.
	dirty := t.tickDirty(mask)
	for _, id := range peers {
		if err := t.sendClock(id, st, dirty); err != nil {
			t.logf("cluster: clock send to %d: %v", id, err)
		}
	}
	if err := t.await(ctx, st, true); err != nil {
		return 0, err
	}

	t.mu.Lock()
	t.round = st.round + 1
	t.mu.Unlock()
	return len(batch), nil
}

// peerIDsLocked returns the live roster minus self, sorted.
func (t *Trainer) peerIDsLocked() []uint32 {
	ids := make([]uint32, 0, len(t.live))
	for id := range t.live {
		if id != t.cfg.ID {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// tickDirty advances the local clock of every owned shard whose store
// version moved since the last round and returns those shard indices.
func (t *Trainer) tickDirty(mask []bool) []int {
	store := t.eng.Store()
	t.versBuf = store.Versions(t.versBuf)
	var dirty []int
	t.mu.Lock()
	for s, ver := range t.versBuf {
		if mask[s] && ver != t.prevVers[s] {
			t.clocks[s] = t.clocks[s].Tick(t.cfg.ID, t.cfg.Incarnation, ver)
			dirty = append(dirty, s)
		}
	}
	t.mu.Unlock()
	t.prevVers = append(t.prevVers[:0], t.versBuf...)
	return dirty
}

// send resolves id's address and ships one frame.
func (t *Trainer) send(id uint32, data []byte) error {
	t.mu.Lock()
	addr := t.addrs[id]
	t.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("no address for trainer %d", id)
	}
	return t.tp.Send(addr, data)
}

// sendRouted ships id's routed updates, fragmented to the wire limit,
// with Last marking the final frame (always sent, even empty).
func (t *Trainer) sendRouted(id uint32, st *roundState, ups []wire.Routed) error {
	for {
		frame := ups
		if len(frame) > wire.MaxRoutedUpdates {
			frame = frame[:wire.MaxRoutedUpdates]
		}
		ups = ups[len(frame):]
		m := wire.RoutedUpdate{
			From:    t.cfg.ID,
			Epoch:   st.epoch,
			Round:   st.round,
			Last:    len(ups) == 0,
			Updates: frame,
		}
		buf, err := wire.AppendRoutedUpdate(nil, &m)
		if err != nil {
			return err
		}
		if err := t.send(id, buf); err != nil {
			return err
		}
		mRoutedFrames.Inc()
		mRoutedUpdates.Add(uint64(len(frame)))
		mRoutedBytes.Add(uint64(len(buf)))
		if m.Last {
			return nil
		}
	}
}

// sendClock ships the dirty owned shard blocks to id, greedily packed
// under the per-frame float budget, then an empty terminator frame.
func (t *Trainer) sendClock(id uint32, st *roundState, dirty []int) error {
	store := t.eng.Store()
	head := wire.ClockDelta{
		From:   t.cfg.ID,
		Epoch:  st.epoch,
		Round:  st.round,
		N:      uint32(store.N()),
		Rank:   uint16(store.Rank()),
		Shards: uint16(store.Shards()),
		Steps:  uint64(t.eng.Steps()),
	}
	flush := func(blocks []wire.ClockBlock) error {
		m := head
		m.Blocks = blocks
		buf, err := wire.AppendClockDelta(nil, &m)
		if err != nil {
			return err
		}
		if err := t.send(id, buf); err != nil {
			return err
		}
		mClockFrames.Inc()
		mClockBytes.Add(uint64(len(buf)))
		return nil
	}
	var blocks []wire.ClockBlock
	budget := 0
	for _, s := range dirty {
		rows := store.ShardNodeCount(s) * store.Rank()
		if len(blocks) > 0 && budget+rows > wire.MaxStateFloats {
			if err := flush(blocks); err != nil {
				return err
			}
			blocks, budget = nil, 0
		}
		u := make([]float64, rows)
		v := make([]float64, rows)
		store.SnapshotShardBlock(s, u, v)
		t.mu.Lock()
		clock := t.clocks[s].ToWire()
		t.mu.Unlock()
		blocks = append(blocks, wire.ClockBlock{Shard: uint16(s), Clock: clock, U: u, V: v})
		budget += rows
	}
	if len(blocks) > 0 {
		if err := flush(blocks); err != nil {
			return err
		}
	}
	return flush(nil) // terminator = barrier marker
}

// await drains the transport until every live peer has delivered its
// round barrier (routed frames, or clock frames when clockPhase), a
// peer misses the timeout (failover, ErrRoundAborted), or an ownership
// change aborts the round.
func (t *Trainer) await(ctx context.Context, st *roundState, clockPhase bool) error {
	waitStart := startTimer()
	barrier := mBarrierRouted
	if clockPhase {
		barrier = mBarrierClock
	}
	defer func() { observeSince(barrier, waitStart) }()
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	for {
		t.mu.Lock()
		peers := t.peerIDsLocked()
		t.mu.Unlock()
		done := true
		for _, id := range peers {
			ok := st.routedDone[id]
			if clockPhase {
				ok = st.clockDone[id]
			}
			if !ok {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case pkt, ok := <-t.tp.Recv():
			if !ok {
				return errors.New("cluster: transport closed")
			}
			if err := t.handleFrame(st, pkt.Data); err != nil {
				return err
			}
		case <-timer.C:
			var missing []uint32
			for _, id := range peers {
				ok := st.routedDone[id]
				if clockPhase {
					ok = st.clockDone[id]
				}
				if !ok {
					missing = append(missing, id)
				}
			}
			t.failover(missing, st.round)
			return ErrRoundAborted
		}
	}
}

// handleFrame dispatches one inbound cluster frame. Malformed or stale
// frames are logged and dropped; only an ownership change returns an
// error (ErrRoundAborted or ErrEvicted), aborting the round in flight.
func (t *Trainer) handleFrame(st *roundState, data []byte) error {
	typ, err := wire.PeekType(data)
	if err != nil {
		t.logf("cluster: bad frame: %v", err)
		return nil
	}
	switch typ {
	case wire.TypeOwnershipMap:
		var m wire.OwnershipMap
		if err := wire.DecodeOwnershipMap(data, &m); err != nil {
			t.logf("cluster: bad ownership map: %v", err)
			return nil
		}
		return t.adoptMap(&m)
	case wire.TypeRoutedUpdate:
		var m wire.RoutedUpdate
		if err := wire.DecodeRoutedUpdate(data, &m); err != nil {
			t.logf("cluster: bad routed update: %v", err)
			return nil
		}
		t.applyRouted(st, &m)
	case wire.TypeClockDelta:
		var m wire.ClockDelta
		if err := wire.DecodeClockDelta(data, &m); err != nil {
			t.logf("cluster: bad clock delta: %v", err)
			return nil
		}
		t.applyClockDelta(st, &m)
	default:
		t.logf("cluster: unexpected %v frame on cluster lane", typ)
	}
	return nil
}

// applyRouted folds one routed-update frame into the round state, or
// holds it for the next round when it is exactly one round early.
func (t *Trainer) applyRouted(st *roundState, m *wire.RoutedUpdate) {
	if m.Epoch == st.epoch && m.Round == st.round+1 {
		t.early = append(t.early, *m)
		return
	}
	if m.Epoch != st.epoch || m.Round != st.round {
		t.logf("cluster: dropping routed frame from %d at epoch %d round %d (at %d/%d)",
			m.From, m.Epoch, m.Round, st.epoch, st.round)
		return
	}
	t.mu.Lock()
	live := t.live[m.From]
	mask := t.mask
	t.mu.Unlock()
	if !live {
		return
	}
	n := t.eng.Store().N()
	for _, u := range m.Updates {
		// Re-validate against local geometry and ownership: a confused
		// peer must not be able to fail the whole round downstream in
		// CommitBatchTargets.
		if int(u.Target) >= n || int(u.Sender) >= n || !mask[int(u.Target)%len(mask)] ||
			math.IsNaN(u.X) || math.IsInf(u.X, 0) {
			t.logf("cluster: dropping invalid routed update %+v from %d", u, m.From)
			continue
		}
		st.inbound = append(st.inbound, engine.RoutedTarget{
			Target: int32(u.Target),
			Sender: int32(u.Sender),
			K:      int32(u.K),
			X:      u.X,
		})
	}
	if m.Last {
		st.routedDone[m.From] = true
	}
}

// applyClockDelta merges a peer's shard clocks and installs the blocks
// that advance them into the local read-only mirror. The empty
// terminator frame marks the peer's clock barrier.
func (t *Trainer) applyClockDelta(st *roundState, m *wire.ClockDelta) {
	if m.Epoch != st.epoch || m.Round != st.round {
		t.logf("cluster: dropping clock frame from %d at epoch %d round %d (at %d/%d)",
			m.From, m.Epoch, m.Round, st.epoch, st.round)
		return
	}
	store := t.eng.Store()
	if int(m.N) != store.N() || int(m.Rank) != store.Rank() || int(m.Shards) != store.Shards() {
		t.logf("cluster: dropping clock frame from %d with foreign geometry %dx%d/%d",
			m.From, m.N, m.Rank, m.Shards)
		return
	}
	t.mu.Lock()
	live := t.live[m.From]
	t.mu.Unlock()
	if !live {
		return
	}
	for i := range m.Blocks {
		b := &m.Blocks[i]
		s := int(b.Shard)
		in := ClockFromWire(b.Clock)
		t.mu.Lock()
		install := !t.clocks[s].Dominates(in) && !t.mask[s]
		t.clocks[s] = Merge(t.clocks[s], in)
		if w := in.Weight(); w > t.remoteW[s] {
			t.remoteW[s] = w
		}
		t.mu.Unlock()
		if !install {
			continue
		}
		// Mirror the block under the owner's own counter so the store's
		// scalar version vector converges across trainers — that is what
		// keeps the legacy follower anti-entropy protocol working
		// unchanged against any cluster member.
		ver := uint64(0)
		if e, ok := in.Get(m.From); ok {
			ver = e.Counter
		}
		store.SetShardBlock(s, b.U, b.V, ver)
	}
	if len(m.Blocks) == 0 {
		st.clockDone[m.From] = true
	}
}

// adoptMap applies an inbound ownership map. Higher epochs win; the
// current round aborts and the next Step resumes one round past the
// announcement so survivors re-enter lockstep at the same round.
func (t *Trainer) adoptMap(m *wire.OwnershipMap) error {
	t.mu.Lock()
	if m.Epoch <= t.epoch || len(m.Owners) != len(t.owners) {
		stale := m.Epoch <= t.epoch
		t.mu.Unlock()
		if !stale {
			t.logf("cluster: dropping ownership map with %d shards, have %d", len(m.Owners), len(t.owners))
		}
		return nil
	}
	t.installOwnersLocked(m.Epoch, m.Round+1, m.Owners)
	evicted := t.evicted
	t.mu.Unlock()
	t.logf("cluster: adopted ownership epoch %d from trainer %d (round %d)", m.Epoch, m.From, m.Round)
	if evicted {
		return ErrEvicted
	}
	return ErrRoundAborted
}

// installOwnersLocked swaps in a new ownership map: the live set is the
// map's owner set, the mask is recomputed, and shards newly owned here
// join the local clock lineage at their current store version.
func (t *Trainer) installOwnersLocked(epoch, round uint64, owners []uint32) {
	t.epoch = epoch
	t.round = round
	t.owners = append([]uint32(nil), owners...)
	t.live = make(map[uint32]bool)
	for _, id := range owners {
		t.live[id] = true
	}
	t.evicted = !t.live[t.cfg.ID]
	prev := t.mask
	t.mask = OwnedMask(t.owners, t.cfg.ID)
	store := t.eng.Store()
	for s, owned := range t.mask {
		if owned && !prev[s] {
			t.clocks[s] = t.clocks[s].Tick(t.cfg.ID, t.cfg.Incarnation, store.ShardVersion(s))
		}
	}
}

// failover declares missing dead, recomputes ownership from the
// survivors and broadcasts the new map — including to the suspects, so
// a merely-slow peer learns it was evicted and stops. Assign is a pure
// function of the surviving roster, so concurrent detectors that agree
// on the failure agree on the whole map without coordinating.
func (t *Trainer) failover(missing []uint32, round uint64) {
	t.mu.Lock()
	dead := make(map[uint32]bool, len(missing))
	for _, id := range missing {
		dead[id] = true
	}
	var survivors []uint32
	//dmf:allow detorder Assign sorts the survivor set before computing ownership
	for id := range t.live {
		if !dead[id] {
			survivors = append(survivors, id)
		}
	}
	epoch := t.epoch + 1
	owners := Assign(len(t.owners), survivors)
	t.installOwnersLocked(epoch, round+1, owners)
	notify := make([]uint32, 0, len(t.addrs))
	//dmf:allow detorder one fire-and-forget send per peer; delivery order is not part of the protocol
	for id := range t.addrs {
		if id != t.cfg.ID {
			notify = append(notify, id)
		}
	}
	t.mu.Unlock()
	mFailovers.Inc()
	mEvicted.Add(uint64(len(missing)))
	metrics.Emit("failover", 0,
		metrics.KV{K: "round", V: int64(round)},
		metrics.KV{K: "epoch", V: int64(epoch)},
		metrics.KV{K: "evicted", V: int64(len(missing))})
	t.logf("cluster: trainer(s) %v missed the round-%d barrier; epoch %d owners %v",
		missing, round, epoch, owners)
	m := wire.OwnershipMap{From: t.cfg.ID, Epoch: epoch, Round: round, Owners: owners}
	buf, err := wire.AppendOwnershipMap(nil, &m)
	if err != nil {
		t.logf("cluster: encoding ownership map: %v", err)
		return
	}
	for _, id := range notify {
		if err := t.send(id, buf); err != nil {
			t.logf("cluster: ownership broadcast to %d: %v", id, err)
		}
	}
}
