package member

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

func TestMuxRouting(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	inner := net.Attach("a")
	other := net.Attach("b")
	defer other.Close()

	mux := NewMux(inner)
	defer mux.Close()

	join, _ := wire.AppendJoin(nil, &wire.Join{From: 1, Addr: "b"})
	probe, _ := wire.AppendProbeRequest(nil, &wire.ProbeRequest{Seq: 1, From: 1})
	garbage := []byte{1, 2, 3}

	for _, msg := range [][]byte{join, probe, garbage} {
		if err := other.Send("a", msg); err != nil {
			t.Fatal(err)
		}
	}

	// Membership side gets the join.
	select {
	case pkt := <-mux.Member():
		if typ, _ := wire.PeekType(pkt.Data); typ != wire.TypeJoin {
			t.Errorf("member side got %v", typ)
		}
	case <-time.After(time.Second):
		t.Fatal("join not routed")
	}
	// Main side gets the probe, then the garbage (undecodable stays main;
	// the node counts it as a decode error).
	select {
	case pkt := <-mux.Recv():
		if typ, _ := wire.PeekType(pkt.Data); typ != wire.TypeProbeRequest {
			t.Errorf("main side got %v", typ)
		}
	case <-time.After(time.Second):
		t.Fatal("probe not routed")
	}
	select {
	case pkt := <-mux.Recv():
		if len(pkt.Data) != 3 {
			t.Errorf("expected garbage on main side")
		}
	case <-time.After(time.Second):
		t.Fatal("garbage not routed")
	}
}

func TestMuxSendPassThrough(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	inner := net.Attach("a")
	other := net.Attach("b")
	defer other.Close()
	mux := NewMux(inner)
	defer mux.Close()

	if mux.Addr() != "a" {
		t.Errorf("Addr = %q", mux.Addr())
	}
	if err := mux.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-other.Recv():
		if string(pkt.Data) != "x" {
			t.Error("payload mangled")
		}
	case <-time.After(time.Second):
		t.Fatal("send did not pass through")
	}
}

func TestJoinHandshake(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	muxA := NewMux(net.Attach("a"))
	muxB := NewMux(net.Attach("b"))
	defer muxA.Close()
	defer muxB.Close()

	dirA := NewDirectory(1, muxA, 1)
	dirB := NewDirectory(2, muxB, 2)

	var gotPeer Peer
	peerSeen := make(chan struct{})
	dirB.OnPeer(func(p Peer) {
		gotPeer = p
		close(peerSeen)
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dirA.Run(ctx, 0)
	go dirB.Run(ctx, 0)

	if err := dirA.Join("b"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-peerSeen:
		if gotPeer.ID != 1 || gotPeer.Addr != "a" {
			t.Errorf("B learned %+v", gotPeer)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B never learned A")
	}
	// A must learn B from the Peers response → Join-back handshake.
	deadline := time.After(2 * time.Second)
	for {
		if ps := dirA.Peers(); len(ps) == 1 && ps[0].ID == 2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("A never learned B: %+v", dirA.Peers())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestGossipSpreadsMembership(t *testing.T) {
	// A chain join: every node bootstraps off node 0; reannouncement
	// spreads knowledge so late nodes learn more than just the bootstrap.
	net := transport.NewNetwork(transport.NetworkConfig{})
	const n = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	dirs := make([]*Directory, n)
	for i := 0; i < n; i++ {
		mux := NewMux(net.Attach(fmt.Sprintf("n%d", i)))
		defer mux.Close()
		dirs[i] = NewDirectory(uint32(i+1), mux, int64(i))
		go dirs[i].Run(ctx, 20*time.Millisecond)
	}
	for i := 1; i < n; i++ {
		if err := dirs[i].Join("n0"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		allConnected := true
		for i := 0; i < n; i++ {
			if len(dirs[i].Peers()) < n-2 { // nearly full knowledge
				allConnected = false
				break
			}
		}
		if allConnected {
			return
		}
		select {
		case <-deadline:
			for i := 0; i < n; i++ {
				t.Logf("node %d knows %d peers", i, len(dirs[i].Peers()))
			}
			t.Fatal("membership did not converge")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// countingTransport counts the frames its node sends.
type countingTransport struct {
	transport.Transport
	sent atomic.Int64
}

func (c *countingTransport) Send(to string, data []byte) error {
	c.sent.Add(1)
	return c.Transport.Send(to, data)
}

// TestMembershipQuiesces: once every node knows every other and nobody
// reannounces, membership traffic stops. Answering Peers lists with Joins
// to known addresses kept a Join/Peers ping-pong going forever; among
// three cluster trainers the storm overflowed the lane's receive queue
// and dropped round frames.
func TestMembershipQuiesces(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 3
	var nodes [n]*countingTransport
	var dirs [n]*Directory
	for i := range dirs {
		nodes[i] = &countingTransport{Transport: net.Attach(fmt.Sprintf("n%d", i))}
		mux := NewMux(nodes[i])
		defer mux.Close()
		dirs[i] = NewDirectory(uint32(i+1), mux, int64(i))
		go dirs[i].Run(ctx, 0)
	}
	for i := 1; i < n; i++ {
		if err := dirs[i].Join("n0"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < n; i++ {
		for len(dirs[i].Peers()) < n-1 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d knows %d peers", i, len(dirs[i].Peers()))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	sent := func() (total int64) {
		for _, c := range nodes {
			total += c.sent.Load()
		}
		return total
	}
	time.Sleep(50 * time.Millisecond) // let the last replies land
	before := sent()
	time.Sleep(200 * time.Millisecond)
	if after := sent(); after != before {
		t.Fatalf("membership traffic did not quiesce: %d frames sent in 200ms", after-before)
	}
}

func TestDirectoryIgnoresSelf(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	mux := NewMux(net.Attach("a"))
	defer mux.Close()
	d := NewDirectory(1, mux, 1)
	d.learn(Peer{ID: 1, Addr: "elsewhere"}) // own ID
	d.learn(Peer{ID: 9, Addr: "a"})         // own addr
	if len(d.Peers()) != 0 {
		t.Errorf("directory learned itself: %+v", d.Peers())
	}
}

func TestDirectoryIgnoresGarbageMembership(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	muxA := NewMux(net.Attach("a"))
	other := net.Attach("b")
	defer muxA.Close()
	defer other.Close()

	d := NewDirectory(1, muxA, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx, 0)

	// Truncated join: header says join, body is cut.
	full, _ := wire.AppendJoin(nil, &wire.Join{From: 2, Addr: "b"})
	if err := other.Send("a", full[:4]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if len(d.Peers()) != 0 {
		t.Error("directory learned from truncated join")
	}
}
