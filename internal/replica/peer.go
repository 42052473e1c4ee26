package replica

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dmfsgd/internal/metrics"
	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// Config parameterizes a gossip Peer.
type Config struct {
	// ID identifies this replica in replication messages.
	ID uint32
	// Transport carries the gossip traffic (in-memory Network in tests,
	// transport.TCP in real deployments — replication deltas exceed UDP
	// datagram limits).
	Transport transport.Transport
	// Peers are bootstrap gossip addresses; more are learned from inbound
	// messages (push/pull anti-entropy, like internal/member). Bootstrap
	// addresses are permanent; learned ones are evicted when a send to
	// them fails (they are re-learned from their next inbound message).
	Peers []string
	// Source marks the tier's writer: a source peer never pulls remote
	// state (its local state is authoritative, fed through SetState,
	// which replaces unconditionally) and ignores inbound deltas. This is
	// what keeps a restarted trainer — whose counters restart low — from
	// adopting a follower's stale pre-restart state and then refusing its
	// own fresh snapshots.
	Source bool
	// Incarnation is this replica's lineage counter, stamped on outgoing
	// version vectors and deltas. A source that restarts from a
	// checkpoint bumps it past the checkpoint's recorded incarnation;
	// followers that see a known sender return with a higher incarnation
	// drop the old lineage's state and re-bootstrap instead of
	// blackholing the sender behind a stale version high-water mark.
	Incarnation uint32
	// Interval is the anti-entropy period (default 500ms): every tick the
	// peer announces its version vector to one random known peer. A
	// SetState does not wait for it: it announces the new state to every
	// known peer at once, and the tick repairs whatever that push missed.
	Interval time.Duration
	// Seed drives peer selection.
	Seed int64
	// OnState, when set, is invoked (outside the peer's lock, on the Run
	// goroutine) every time the local state advances by an applied delta —
	// the hook serving replicas use to publish a fresh Snapshot.
	OnState func(*State)
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// Lag describes how far the local state trails the newest remote state
// this replica has heard of — the replication lag a serving replica
// publishes on /healthz.
type Lag struct {
	// HasState is false until the first state lands (bootstrap).
	HasState bool
	// StepsBehind is the newest advertised training step counter minus the
	// local one.
	StepsBehind uint64
	// StaleShards counts shards the newest advertised vector has ahead of
	// the local one.
	StaleShards int
	// LastAdvance is when the local state last moved (zero before the
	// first delta).
	LastAdvance time.Time
}

// Peer is one replication endpoint: it gossips its version vector,
// answers pulls from its state, and pulls stale shards from newer peers.
// A trainer replica feeds it through SetState; serving replicas receive
// through OnState. All exported methods are safe for concurrent use with
// a running Run loop.
type Peer struct {
	cfg Config

	mu          sync.Mutex
	st          *State
	peers       map[string]struct{}
	seeds       map[string]struct{} // configured bootstrap addresses, never evicted
	incs        map[uint32]uint32   // newest incarnation seen per sender id
	remoteSteps uint64              // newest advertised step counter
	remoteVers  []uint64            // element-wise max of advertised vectors
	lastAdvance time.Time           // when the local state last moved
	rng         *rand.Rand

	// outbox holds one entry per destination with a send in flight: the
	// newest message queued behind it, or nil. Guarded by mu.
	outbox map[string]*queued

	// wake is SetState's one-slot signal to Run: the send never blocks,
	// so SetState works before Run starts and after it returns, and the
	// calls made before one wake coalesce into one announcement.
	wake chan struct{}

	// deltaSem caps concurrent delta encodes: a delta response copies
	// megabytes, and inbound DeltaRequests are unauthenticated, so
	// excess requests are dropped (the requester's anti-entropy loop
	// retries) instead of amplified into unbounded allocation.
	deltaSem chan struct{}
}

// queued is a message waiting for its destination's in-flight send.
type queued struct {
	buf  []byte
	what string
}

// NewPeer builds a peer (does not start it — call Run).
func NewPeer(cfg Config) *Peer {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	p := &Peer{
		cfg:      cfg,
		peers:    make(map[string]struct{}),
		seeds:    make(map[string]struct{}),
		incs:     make(map[uint32]uint32),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		outbox:   make(map[string]*queued),
		wake:     make(chan struct{}, 1),
		deltaSem: make(chan struct{}, 4),
	}
	for _, a := range cfg.Peers {
		if a != "" && a != cfg.Transport.Addr() {
			p.peers[a] = struct{}{}
			p.seeds[a] = struct{}{}
		}
	}
	return p
}

func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// SetState publishes a locally produced state (the trainer path) and
// wakes Run to announce it to every known peer. On a Source peer the new
// state always replaces the old (the local producer is authoritative);
// otherwise SetState never goes backwards in steps. It never blocks.
func (p *Peer) SetState(st *State) {
	p.mu.Lock()
	advanced := p.cfg.Source || p.st == nil || st.Meta.Steps >= p.st.Meta.Steps
	if advanced {
		p.st = st
		//dmf:allow noclock liveness bookkeeping is inherently wall-clock and never feeds training state
		p.lastAdvance = time.Now()
	}
	p.mu.Unlock()
	if advanced {
		select {
		case p.wake <- struct{}{}:
		default: // a wake is already pending; it will announce this state
		}
	}
}

// State returns the current local state (nil before bootstrap).
func (p *Peer) State() *State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Lag reports the current replication lag.
func (p *Peer) Lag() Lag {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := Lag{HasState: p.st.Complete(), LastAdvance: p.lastAdvance}
	if p.st == nil {
		l.StepsBehind = p.remoteSteps
		l.StaleShards = len(p.remoteVers)
		return l
	}
	if p.remoteSteps > p.st.Meta.Steps {
		l.StepsBehind = p.remoteSteps - p.st.Meta.Steps
	}
	if len(p.remoteVers) == p.st.Shards {
		for i, rv := range p.remoteVers {
			if rv > p.st.vers[i] {
				l.StaleShards++
			}
		}
	}
	return l
}

// Run processes gossip until ctx is done or the transport closes. After
// a SetState the peer announces its version vector to every known peer;
// every Interval it announces it to one random known peer, as
// anti-entropy. Inbound vectors trigger pulls for stale shards, inbound
// pulls are answered from the local state, and inbound deltas advance
// it.
func (p *Peer) Run(ctx context.Context) {
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	p.gossip() // announce immediately so followers bootstrap fast
	for {
		select {
		case <-ctx.Done():
			return
		case pkt, ok := <-p.cfg.Transport.Recv():
			if !ok {
				return
			}
			p.handle(pkt)
		case <-tick.C:
			p.gossip()
		case <-p.wake:
			p.announce()
		}
	}
}

// announce pushes the local version vector to every known peer, in
// address order: push on publish, so a follower pulls a new state one
// round trip after SetState instead of on someone's next tick.
func (p *Peer) announce() {
	p.mu.Lock()
	targets := make([]string, 0, len(p.peers))
	for a := range p.peers {
		targets = append(targets, a)
	}
	vv := p.versionVecLocked()
	p.mu.Unlock()
	slices.Sort(targets)
	for _, to := range targets {
		p.sendVersionVec(to, vv)
	}
}

// gossip announces the local version vector to one random known peer.
func (p *Peer) gossip() {
	p.mu.Lock()
	var target string
	if len(p.peers) > 0 {
		k := p.rng.Intn(len(p.peers))
		//dmf:allow detorder target choice is already randomized by the seeded rng; map order only permutes which peer k lands on
		for a := range p.peers {
			if k == 0 {
				target = a
				break
			}
			k--
		}
	}
	vv := p.versionVecLocked()
	p.mu.Unlock()
	if target == "" {
		return
	}
	p.sendVersionVec(target, vv)
}

// versionVecLocked builds the announcement for the current state (an
// empty-state hello when there is none). Callers hold p.mu.
func (p *Peer) versionVecLocked() *wire.VersionVec {
	vv := &wire.VersionVec{From: p.cfg.ID, Inc: p.cfg.Incarnation, Addr: p.cfg.Transport.Addr()}
	if p.st != nil {
		sv := p.st.VersionVec(p.cfg.ID, vv.Addr)
		sv.Inc = p.cfg.Incarnation
		return sv
	}
	return vv
}

// admitLocked reconciles an inbound message's lineage with what is known
// about its sender. A higher incarnation than recorded starts a new
// lineage: on a non-source peer the held state — built from the old
// lineage — is dropped along with the remote high-water marks, so the
// returned sender is re-admitted and re-bootstrapped instead of being
// blackholed behind versions its restart can never outrun. A lower
// incarnation is a straggler from a dead lineage and its message is
// dropped (returns false). Pre-incarnation senders always stamp 0, which
// degenerates to today's behavior. Callers hold p.mu.
func (p *Peer) admitLocked(from, inc uint32) bool {
	known, seen := p.incs[from]
	if inc < known {
		return false
	}
	if seen && inc > known && !p.cfg.Source && p.st != nil {
		p.logf("replica: peer %d returned with incarnation %d (had %d): dropping old lineage", from, inc, known)
		p.st = nil
		p.remoteVers = nil
		p.remoteSteps = 0
	}
	p.incs[from] = inc
	return true
}

// send ships one encoded message off the Run loop: a Transport.Send can
// block for seconds (TCP dial timeout to a blackholed peer), and the Run
// loop must keep serving other peers meanwhile. Each destination has at
// most one send in flight. A message for a busy destination waits behind
// it and replaces any message already waiting there: gossip messages are
// idempotent, and the next tick repairs what a replaced one carried. So
// a peer that never answers holds one goroutine and one message, however
// often the loop sends to it. Encoded buffers are never reused, so the
// sending goroutine owns buf outright. A failed send to a learned
// (non-seed) address evicts it, so churned-away followers on ephemeral
// ports stop soaking up gossip ticks; live peers re-learn themselves
// with their next inbound message.
func (p *Peer) send(to string, buf []byte, what string) {
	p.mu.Lock()
	if q, busy := p.outbox[to]; busy {
		if q != nil {
			mSendsReplaced.Inc()
		}
		p.outbox[to] = &queued{buf, what}
		p.mu.Unlock()
		return
	}
	p.outbox[to] = nil
	p.mu.Unlock()
	go p.drain(to, queued{buf, what})
}

// drain sends m to its destination, then whatever queued behind it,
// until the destination's queue is empty.
func (p *Peer) drain(to string, m queued) {
	for {
		if err := p.cfg.Transport.Send(to, m.buf); err != nil {
			p.logf("replica: %s to %s: %v", m.what, to, err)
			p.forget(to)
		}
		p.mu.Lock()
		next := p.outbox[to]
		if next == nil {
			delete(p.outbox, to)
			p.mu.Unlock()
			return
		}
		p.outbox[to] = nil
		p.mu.Unlock()
		m = *next
	}
}

// forget evicts a learned peer address; configured seeds are kept.
func (p *Peer) forget(addr string) {
	p.mu.Lock()
	if _, seed := p.seeds[addr]; !seed {
		if _, known := p.peers[addr]; known {
			mEvictions.Inc()
		}
		delete(p.peers, addr)
	}
	p.mu.Unlock()
}

// updateLagLocked refreshes the replication-lag gauges from the same
// comparison Lag() reports — /healthz and /metrics read one source.
// Callers hold p.mu.
func (p *Peer) updateLagLocked() {
	if p.st == nil {
		mLagSteps.SetInt(int64(p.remoteSteps))
		mStaleShards.SetInt(int64(len(p.remoteVers)))
		return
	}
	var behind uint64
	if p.remoteSteps > p.st.Meta.Steps {
		behind = p.remoteSteps - p.st.Meta.Steps
	}
	stale := 0
	if len(p.remoteVers) == p.st.Shards {
		for i, rv := range p.remoteVers {
			if rv > p.st.vers[i] {
				stale++
			}
		}
	}
	mLagSteps.SetInt(int64(behind))
	mStaleShards.SetInt(int64(stale))
}

func (p *Peer) sendVersionVec(to string, vv *wire.VersionVec) {
	buf, err := wire.AppendVersionVec(nil, vv)
	if err != nil {
		p.logf("replica: encode version vec: %v", err)
		return
	}
	mPushes.Inc()
	mGossipBytesSent.Add(uint64(len(buf)))
	p.send(to, buf, "push")
}

// learn records a peer address discovered from inbound traffic.
func (p *Peer) learn(addr string) {
	if addr == "" || addr == p.cfg.Transport.Addr() {
		return
	}
	p.mu.Lock()
	p.peers[addr] = struct{}{}
	p.mu.Unlock()
}

// replyAddr resolves where to answer a message: the advertised listen
// address when present, else the observed source (in-memory transports
// observe listen addresses; TCP does not).
func replyAddr(advertised, observed string) string {
	if advertised != "" {
		return advertised
	}
	return observed
}

func (p *Peer) handle(pkt transport.Packet) {
	typ, err := wire.PeekType(pkt.Data)
	if err != nil {
		return
	}
	mGossipBytesRecv.Add(uint64(len(pkt.Data)))
	switch typ {
	case wire.TypeVersionVec:
		var vv wire.VersionVec
		if err := wire.DecodeVersionVec(pkt.Data, &vv); err != nil {
			return
		}
		p.handleVersionVec(&vv, replyAddr(vv.Addr, pkt.From))
	case wire.TypeDeltaRequest:
		var req wire.DeltaRequest
		if err := wire.DecodeDeltaRequest(pkt.Data, &req); err != nil {
			return
		}
		p.handleDeltaRequest(&req, replyAddr(req.Addr, pkt.From))
	case wire.TypeDelta:
		var d wire.Delta
		if err := wire.DecodeDelta(pkt.Data, &d); err != nil {
			return
		}
		p.handleDelta(&d)
	}
}

// handleVersionVec is the anti-entropy comparison: pull what the remote
// has newer, and push our own vector back when we are the newer side (the
// remote will pull in turn).
func (p *Peer) handleVersionVec(vv *wire.VersionVec, from string) {
	p.learn(from)
	p.mu.Lock()
	if !p.admitLocked(vv.From, vv.Inc) {
		p.mu.Unlock()
		return
	}
	if vv.Steps > p.remoteSteps {
		p.remoteSteps = vv.Steps
	}
	if vv.N > 0 {
		if len(p.remoteVers) != int(vv.Shards) {
			p.remoteVers = append([]uint64(nil), vv.Vers...)
		} else {
			for i, rv := range vv.Vers {
				if rv > p.remoteVers[i] {
					p.remoteVers[i] = rv
				}
			}
		}
	}
	st := p.st
	stale := st.StaleShards(vv)
	if p.cfg.Source {
		stale = nil // the writer never pulls: its own state is the truth
	}
	newer := st.NewerThan(vv)
	reply := p.versionVecLocked()
	p.updateLagLocked()
	p.mu.Unlock()

	if len(stale) > 0 {
		req := &wire.DeltaRequest{From: p.cfg.ID, Addr: p.cfg.Transport.Addr(), Shards: stale}
		if buf, err := wire.AppendDeltaRequest(nil, req); err == nil {
			mPulls.Inc()
			mGossipBytesSent.Add(uint64(len(buf)))
			p.send(from, buf, "pull")
		}
		return
	}
	if newer {
		// Strictly newer somewhere and nothing to pull: advertise back so
		// the remote pulls from us. The exchange terminates once vectors
		// match (neither side is newer).
		p.sendVersionVec(from, reply)
	}
}

// handleDeltaRequest answers a pull from the local state. Encoding a
// multi-shard delta copies megabytes, so it runs on a send goroutine —
// DeltasFor only aliases the immutable state, which makes that safe — and
// deltaSem caps how many encodes run at once; beyond the cap the request
// is dropped and the puller's next anti-entropy round retries.
func (p *Peer) handleDeltaRequest(req *wire.DeltaRequest, from string) {
	p.learn(from)
	p.mu.Lock()
	st := p.st
	p.mu.Unlock()
	if st == nil {
		return
	}
	frames, err := st.DeltasFor(p.cfg.ID, req.Shards, wire.MaxStateFloats)
	if err != nil {
		p.logf("replica: delta to %s: %v", from, err)
		return
	}
	if len(frames) == 0 {
		return
	}
	select {
	case p.deltaSem <- struct{}{}:
	default:
		p.logf("replica: delta to %s dropped (at concurrency cap)", from)
		return
	}
	go func() {
		defer func() { <-p.deltaSem }()
		for _, d := range frames {
			d.Inc = p.cfg.Incarnation
			buf, err := wire.AppendDelta(nil, d)
			if err != nil {
				p.logf("replica: encode delta: %v", err)
				return
			}
			if err := p.cfg.Transport.Send(from, buf); err != nil {
				p.logf("replica: delta to %s: %v", from, err)
				p.forget(from)
				return
			}
			mDeltaFrames.Inc()
			mGossipBytesSent.Add(uint64(len(buf)))
		}
	}()
}

// handleDelta applies an inbound delta and fires OnState when the state
// advanced to a complete snapshot — a multi-frame bootstrap stays
// unpublished (and unserved) until its last hole fills. Source peers
// ignore deltas outright.
func (p *Peer) handleDelta(d *wire.Delta) {
	if p.cfg.Source {
		return
	}
	p.mu.Lock()
	if !p.admitLocked(d.From, d.Inc) {
		p.mu.Unlock()
		return
	}
	bootstrap := p.st == nil
	next, applied, err := Apply(p.st, d)
	if err == nil && applied > 0 {
		p.st = next
		//dmf:allow noclock liveness bookkeeping is inherently wall-clock and never feeds training state
		p.lastAdvance = time.Now()
		if bootstrap {
			mShardsFull.Add(uint64(applied))
		} else {
			mShardsDelta.Add(uint64(applied))
		}
		p.updateLagLocked()
	}
	p.mu.Unlock()
	if err != nil {
		p.logf("replica: apply delta from %d: %v", d.From, err)
		return
	}
	if applied > 0 {
		metrics.Emit("gossip_delta", 0,
			metrics.KV{K: "from", V: int64(d.From)},
			metrics.KV{K: "shards", V: int64(applied)},
			metrics.KV{K: "steps", V: int64(next.Meta.Steps)})
	}
	if applied > 0 && next.Complete() && p.cfg.OnState != nil {
		p.cfg.OnState(next)
	}
}
