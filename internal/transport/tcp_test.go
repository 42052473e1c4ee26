package transport

import (
	"bytes"
	"testing"
	"time"
)

func TestTCPSendRecv(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := bytes.Repeat([]byte{0xD3, 0x01, 0x07}, 1000) // > one MTU
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-b.Recv():
		if !bytes.Equal(pkt.Data, payload) {
			t.Errorf("payload corrupted: %d bytes, want %d", len(pkt.Data), len(payload))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for frame")
	}
}

// TestTCPStreamFIFO pins the ordering guarantee the trainer-cluster
// protocol and gossip build on: frames to one peer arrive in send order
// even when a large frame is chased by a tiny one. A dial per frame has
// no such guarantee (the tiny frame's fresh connection can win the
// race), which is why every frame to a peer rides one connection.
func TestTCPStreamFIFO(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const frames = 50
	for i := 0; i < frames; i++ {
		size := 1 << 20 // a big frame…
		if i%2 == 1 {
			size = 8 // …chased by a tiny one
		}
		payload := bytes.Repeat([]byte{byte(i)}, size)
		if err := a.Send(b.Addr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		select {
		case pkt := <-b.Recv():
			if pkt.Data[0] != byte(i) {
				t.Fatalf("frame %d arrived where %d belongs: reordered", pkt.Data[0], i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timeout waiting for frame %d", i)
		}
	}
}

// TestTCPStreamRedialAfterPeerRestart: a write error drops the cached
// connection and the next Send redials, so a restarted peer is
// reachable again without any transport-level reset.
func TestTCPStreamRedialAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if pkt := <-b.Recv(); string(pkt.Data) != "one" {
		t.Fatalf("got %q", pkt.Data)
	}
	b.Close()

	// The peer restarts on the same address. The first sends may land in
	// the dead connection's buffer or error; within a few attempts the
	// transport must redial and deliver.
	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		_ = a.Send(addr, []byte("two"))
		select {
		case pkt := <-b2.Recv():
			if string(pkt.Data) != "two" {
				t.Fatalf("got %q", pkt.Data)
			}
			delivered = true
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatal("restarted peer never reachable")
		}
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(addr, []byte("x")); err == nil {
		t.Error("send after close succeeded")
	}
	// Recv must be closed.
	if _, ok := <-a.Recv(); ok {
		t.Error("recv channel still open after close")
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPSendToDownPeer(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := b.Addr()
	b.Close()
	if err := a.Send(dead, []byte("x")); err == nil {
		t.Error("send to closed listener succeeded")
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(a.Addr(), make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}
