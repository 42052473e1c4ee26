// Package member implements the lightweight membership layer used by UDP
// deployments (cmd/dmfnode, examples/livenet): new nodes announce
// themselves with a Join message to any known peer, receive a Peers list
// back, and gossip onward until their neighbor set reaches the target k.
//
// The DMFSGD protocol itself needs only "a neighbor set of k random
// nodes" (§5.3); this package supplies exactly that and nothing more — no
// failure detector, no ring, no leader. It splits one Transport into a
// membership side and a probe side so runtime.Node stays
// membership-agnostic.
package member

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// Mux splits one Transport's receive stream: membership messages (Join,
// Peers) are consumed by the Directory, everything else flows to the probe
// side returned by Main. Sends pass through unchanged.
type Mux struct {
	inner  transport.Transport
	main   chan transport.Packet
	member chan transport.Packet

	closeOnce sync.Once
}

// NewMux starts the routing goroutine over the inner transport.
func NewMux(inner transport.Transport) *Mux {
	m := &Mux{
		inner:  inner,
		main:   make(chan transport.Packet, 1024),
		member: make(chan transport.Packet, 256),
	}
	go m.route()
	return m
}

func (m *Mux) route() {
	defer close(m.main)
	defer close(m.member)
	for pkt := range m.inner.Recv() {
		typ, err := wire.PeekType(pkt.Data)
		if err == nil && (typ == wire.TypeJoin || typ == wire.TypePeers) {
			select {
			case m.member <- pkt:
			default: // membership overload: drop
			}
			continue
		}
		select {
		case m.main <- pkt:
		default: // probe overload: drop, like a socket buffer
		}
	}
}

// Addr implements transport.Transport.
func (m *Mux) Addr() string { return m.inner.Addr() }

// Send implements transport.Transport.
func (m *Mux) Send(to string, data []byte) error { return m.inner.Send(to, data) }

// Recv implements transport.Transport: the probe-side stream.
func (m *Mux) Recv() <-chan transport.Packet { return m.main }

// Member returns the membership-side stream.
func (m *Mux) Member() <-chan transport.Packet { return m.member }

// Close closes the underlying transport (which ends the router).
func (m *Mux) Close() error { return m.inner.Close() }

var _ transport.Transport = (*Mux)(nil)

// Peer is one known remote node.
type Peer struct {
	ID   uint32
	Addr string
}

// Directory tracks known peers and answers/emits membership traffic.
type Directory struct {
	selfID   uint32
	selfAddr string
	mux      *Mux
	rng      *rand.Rand

	mu    sync.Mutex
	peers map[string]uint32 // addr → id
	// onPeer, when set, is invoked (outside the lock) for each newly
	// discovered peer.
	onPeer func(Peer)
}

// NewDirectory creates a Directory for the node behind mux.
func NewDirectory(selfID uint32, mux *Mux, seed int64) *Directory {
	return &Directory{
		selfID:   selfID,
		selfAddr: mux.Addr(),
		mux:      mux,
		rng:      rand.New(rand.NewSource(seed)),
		peers:    make(map[string]uint32),
	}
}

// OnPeer registers a callback invoked once per newly discovered peer.
// Must be called before Run.
func (d *Directory) OnPeer(fn func(Peer)) { d.onPeer = fn }

// Peers returns a snapshot of known peers.
func (d *Directory) Peers() []Peer {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Peer, 0, len(d.peers))
	for addr, id := range d.peers {
		out = append(out, Peer{ID: id, Addr: addr})
	}
	return out
}

// Join announces this node to a bootstrap address.
func (d *Directory) Join(bootstrap string) error {
	buf, err := wire.AppendJoin(nil, &wire.Join{From: d.selfID, Addr: d.selfAddr})
	if err != nil {
		return err
	}
	return d.mux.Send(bootstrap, buf)
}

// Run processes membership traffic until ctx is done or the mux closes.
// Every reannounceEvery interval the node re-Joins a random known peer, so
// late joiners keep spreading (gossip-style anti-entropy).
func (d *Directory) Run(ctx context.Context, reannounceEvery time.Duration) {
	var tick <-chan time.Time
	if reannounceEvery > 0 {
		t := time.NewTicker(reannounceEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case pkt, ok := <-d.mux.Member():
			if !ok {
				return
			}
			d.handle(pkt)
		case <-tick:
			d.reannounce()
		}
	}
}

func (d *Directory) handle(pkt transport.Packet) {
	typ, err := wire.PeekType(pkt.Data)
	if err != nil {
		return
	}
	switch typ {
	case wire.TypeJoin:
		var j wire.Join
		if err := wire.DecodeJoin(pkt.Data, &j); err != nil {
			return
		}
		addr := j.Addr
		if addr == "" {
			addr = pkt.From // NAT-friendly: trust the observed source
		}
		isNew := d.learn(Peer{ID: j.From, Addr: addr})
		// Answer with a sample of known peers (including ourselves).
		d.sendPeers(addr)
		// Announce back so the joiner learns our ID too. Gated on novelty,
		// which makes the Join exchange terminate: A→B (B learns A, new),
		// B→A (A learns B, new), A→B (B already knows A: no reply).
		if isNew {
			d.announceTo(addr)
		}
	case wire.TypePeers:
		var p wire.Peers
		if err := wire.DecodePeers(pkt.Data, &p); err != nil {
			return
		}
		// Announce ourselves to the addresses we do not know yet; the
		// Join back teaches us their IDs. Announcing to known ones too
		// would answer every Peers list with Joins that each draw another
		// Peers list, a ping-pong that never quiesces.
		d.mu.Lock()
		var unknown []string
		for _, addr := range p.Addrs {
			if _, known := d.peers[addr]; !known && addr != d.selfAddr {
				unknown = append(unknown, addr)
			}
		}
		d.mu.Unlock()
		for _, addr := range unknown {
			d.announceTo(addr)
		}
	}
}

// learn records a peer, fires the callback for new ones, and reports
// whether the peer was previously unknown.
func (d *Directory) learn(p Peer) bool {
	if p.Addr == d.selfAddr || p.ID == d.selfID {
		return false
	}
	d.mu.Lock()
	_, known := d.peers[p.Addr]
	d.peers[p.Addr] = p.ID
	cb := d.onPeer
	d.mu.Unlock()
	if !known && cb != nil {
		cb(p)
	}
	return !known
}

// sendPeers replies with up to wire.MaxPeers known addresses plus our own.
func (d *Directory) sendPeers(to string) {
	d.mu.Lock()
	addrs := make([]string, 0, len(d.peers)+1)
	addrs = append(addrs, d.selfAddr)
	for a := range d.peers {
		if a == to {
			continue
		}
		if len(addrs) >= wire.MaxPeers {
			break
		}
		addrs = append(addrs, a)
	}
	d.mu.Unlock()
	if buf, err := wire.AppendPeers(nil, &wire.Peers{Addrs: addrs}); err == nil {
		_ = d.mux.Send(to, buf)
	}
}

// announceTo sends a Join to a specific address (so the remote learns our
// ID and responds with its peer list).
func (d *Directory) announceTo(addr string) {
	if buf, err := wire.AppendJoin(nil, &wire.Join{From: d.selfID, Addr: d.selfAddr}); err == nil {
		_ = d.mux.Send(addr, buf)
	}
}

// reannounce gossips a Join to one random known peer.
func (d *Directory) reannounce() {
	d.mu.Lock()
	addrs := make([]string, 0, len(d.peers))
	for a := range d.peers {
		addrs = append(addrs, a)
	}
	var target string
	if len(addrs) > 0 {
		target = addrs[d.rng.Intn(len(addrs))]
	}
	d.mu.Unlock()
	if target != "" {
		d.announceTo(target)
	}
}
