package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame is the largest length-prefixed frame the TCP transport accepts.
// Replication deltas are the biggest messages in the protocol; the wire
// layer bounds a full-state delta to 16·wire.MaxStateFloats coordinate
// bytes (~32 MiB) plus small headers, so every valid message fits.
const MaxFrame = 1 << 26 // 64 MiB

// tcpDialTimeout bounds connection establishment and frame writes.
const tcpDialTimeout = 3 * time.Second

// TCP is a Transport over TCP with 4-byte big-endian length-prefixed
// frames — datagram semantics on a stream. It carries the replication
// tier (internal/replica), whose Delta messages exceed UDP datagram
// limits, and the trainer-cluster lane (internal/cluster); probe traffic
// should keep using UDP or the in-memory Network.
//
// Send keeps one persistent connection per destination. Frames to the
// same peer ride one ordered byte stream and are read back by one
// goroutine, so delivery is FIFO per peer pair — the ordering the
// trainer-cluster protocol requires, and which a dial per frame cannot
// give: a small frame on a fresh connection can overtake a large one
// still in flight. Idle connections stay open (no read deadline) until
// either side closes; a write error drops the cached connection, and
// the next Send redials. Delivery is best-effort like the other
// transports: a peer that is down is a returned error the caller may
// ignore.
//
// Because frames arrive over connections the sender dialed, a Packet's
// From field is the remote's ephemeral address, not its listen address;
// replication messages therefore carry the sender's listen address in the
// payload (wire.VersionVec.Addr, wire.DeltaRequest.Addr).
type TCP struct {
	ln   net.Listener
	recv chan Packet

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // open connections, closed by Close
	outs   map[string]*outConn   // cached outbound connections
	wg     sync.WaitGroup
}

// outConn serializes writers on one cached outbound connection.
type outConn struct {
	mu     sync.Mutex
	conn   net.Conn
	dialed bool // a connection was established before (next dial is a redial)
}

var _ Transport = (*TCP)(nil)

// ListenTCP opens a TCP endpoint on addr (e.g. "127.0.0.1:0") and starts
// its accept loop.
func ListenTCP(addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	t := &TCP{
		ln:    ln,
		recv:  make(chan Packet, 256),
		conns: make(map[net.Conn]struct{}),
		outs:  make(map[string]*outConn),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // closed or fatal; Close closes recv after the wait
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readConn(conn)
		}()
	}
}

// readConn reads frames from one inbound connection until EOF or error.
func (t *TCP) readConn(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	from := conn.RemoteAddr().String()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > MaxFrame {
			return // malformed peer: drop the connection
		}
		// Grow the buffer as payload bytes actually arrive rather than
		// trusting the attacker-controlled length prefix: a client
		// claiming MaxFrame and sending nothing pins one chunk, not
		// 64 MiB, per connection.
		const chunk = 1 << 20
		data := make([]byte, 0, min(int(n), chunk))
		for len(data) < int(n) {
			step := min(int(n)-len(data), chunk)
			data = append(data, make([]byte, step)...)
			if _, err := io.ReadFull(conn, data[len(data)-step:]); err != nil {
				return
			}
		}
		mFramesRecv.Inc()
		mBytesRecv.Add(uint64(n))
		t.push(Packet{From: from, Data: data})
	}
}

// push enqueues a packet, dropping on overflow or after close (matching
// the datagram transports).
func (t *TCP) push(pkt Packet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	select {
	case t.recv <- pkt:
	default:
	}
}

// Addr implements Transport.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func writeFrame(conn net.Conn, data []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if _, err := conn.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := conn.Write(data)
	return err
}

// Send implements Transport: it writes one frame to the destination's
// persistent connection, dialing (or redialing after an error) as
// needed. The per-destination mutex both serializes concurrent senders
// (frames must not interleave on the stream) and preserves their order
// end to end.
func (t *TCP) Send(to string, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(data), MaxFrame)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	oc := t.outs[to]
	if oc == nil {
		oc = &outConn{}
		t.outs[to] = oc
	}
	t.mu.Unlock()

	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.conn == nil {
		conn, err := net.DialTimeout("tcp", to, tcpDialTimeout)
		if err != nil {
			mDialErrors.Inc()
			return fmt.Errorf("transport: dial %q: %w", to, err)
		}
		if oc.dialed {
			mRedials.Inc()
		}
		oc.dialed = true
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		oc.conn = conn
	}
	oc.conn.SetWriteDeadline(time.Now().Add(tcpDialTimeout))
	if err := writeFrame(oc.conn, data); err != nil {
		// The stream is corrupt past a partial write: drop the connection
		// and let the next Send redial.
		oc.conn.Close()
		t.mu.Lock()
		delete(t.conns, oc.conn)
		t.mu.Unlock()
		oc.conn = nil
		return err
	}
	mFramesSent.Inc()
	mBytesSent.Add(uint64(len(data)))
	return nil
}

// Recv implements Transport.
func (t *TCP) Recv() <-chan Packet { return t.recv }

// Close implements Transport: stops the accept loop, waits for in-flight
// reader goroutines, and closes the Recv channel.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	close(t.recv)
	return err
}
