package replica

import (
	"context"
	"sync"
	"testing"
	"time"

	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// TestPushOnPublish: with the anti-entropy tick an hour away, a follower
// that has bootstrapped still sees the trainer's next SetState — the
// trainer announces it to every known peer at once, and the follower
// pulls it.
func TestPushOnPublish(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	trTrainer := net.Attach("trainer")
	trFollower := net.Attach("follower")
	defer trTrainer.Close()
	defer trFollower.Close()

	store, st := testStore(t, 15, 3, 4, 31)
	trainer := NewPeer(Config{ID: 1, Transport: trTrainer, Source: true, Interval: time.Hour, Seed: 1})
	trainer.SetState(st)
	published := make(chan *State, 16)
	follower := NewPeer(Config{
		ID: 2, Transport: trFollower, Peers: []string{"trainer"}, Interval: time.Hour, Seed: 2,
		OnState: func(s *State) { published <- s },
	})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); trainer.Run(ctx) }()
	go func() { defer wg.Done(); follower.Run(ctx) }()
	defer func() { cancel(); wg.Wait() }()

	waitSteps := func(want uint64, label string) {
		t.Helper()
		deadline := time.After(2 * time.Second)
		for {
			select {
			case got := <-published:
				if got.Meta.Steps == want {
					return
				}
			case <-deadline:
				t.Fatalf("%s: follower did not publish step %d within 2s", label, want)
			}
		}
	}
	waitSteps(10, "bootstrap") // the follower's hello at Run start

	store.Ref(1).Update(func(c *engineCoords) bool { c.V[0] = 4.5; return true })
	next := storeState(t, st, store, Meta{Steps: 20, Tau: 1.5})
	trainer.SetState(next)
	waitSteps(20, "push on publish")
	statesEqual(t, next, follower.State(), "pushed state")
}

// TestSetStateNeverBlocks: SetState returns at once before Run starts
// and after Run has returned, however often it is called.
func TestSetStateNeverBlocks(t *testing.T) {
	_, st := testStore(t, 8, 2, 2, 32)
	p := NewPeer(Config{ID: 1, Source: true, Transport: recTransport{sent: make(chan []byte, 64)}, Interval: time.Hour})
	setMany := func(label string) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 100; i++ {
				p.SetState(st)
			}
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("SetState blocked %s", label)
		}
	}
	setMany("before Run started")

	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { defer close(stopped); p.Run(ctx) }()
	cancel()
	<-stopped
	setMany("after Run returned")
}

// TestSetStateBurstCoalesces: SetState calls made while Run is busy (here
// inside OnState) coalesce into one announcement, carrying the newest
// state.
func TestSetStateBurstCoalesces(t *testing.T) {
	_, st := testStore(t, 8, 2, 2, 33)
	sent := make(chan []byte, 64)
	recv := make(chan transport.Packet, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	p := NewPeer(Config{
		ID: 2, Transport: recTransport{sent: sent, recv: recv}, Peers: []string{"trainer"}, Interval: time.Hour,
		OnState: func(*State) { close(entered); <-release },
	})
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { defer close(stopped); p.Run(ctx) }()
	defer func() { cancel(); <-stopped }()

	// A bootstrap delta parks Run inside OnState.
	buf, err := wire.AppendDelta(nil, deltaFor(t, st, 1, []uint16{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	recv <- transport.Packet{From: "trainer", Data: buf}
	<-entered
	for _, steps := range []uint64{20, 30, 40} {
		_, burst := testStore(t, 8, 2, 2, int64(steps))
		burst.Meta.Steps = steps
		p.SetState(burst)
	}
	close(release)

	// Collect the version vectors that announce a state, until 200 ms
	// after the first (2 s without one fails): the burst must yield one,
	// for step 40, and nothing else announces (the tick is an hour away).
	var announced []uint64
	wait := time.After(2 * time.Second)
	for waiting := true; waiting; {
		select {
		case data := <-sent:
			if vv, ok := decodeVV(t, data); ok && vv.N > 0 {
				if announced = append(announced, vv.Steps); len(announced) == 1 {
					wait = time.After(200 * time.Millisecond)
				}
			}
		case <-wait:
			waiting = false
		}
	}
	if len(announced) != 1 || announced[0] != 40 {
		t.Fatalf("announced steps %v, want exactly [40]", announced)
	}
}

// decodeVV decodes data when it is a version vector.
func decodeVV(t *testing.T, data []byte) (*wire.VersionVec, bool) {
	t.Helper()
	if typ, _ := wire.PeekType(data); typ != wire.TypeVersionVec {
		return nil, false
	}
	var vv wire.VersionVec
	if err := wire.DecodeVersionVec(data, &vv); err != nil {
		t.Fatal(err)
	}
	return &vv, true
}

// blockTransport blocks every Send until release closes, counting the
// Sends pending per destination and the most ever pending at once.
type blockTransport struct {
	release chan struct{}

	mu      sync.Mutex
	pending map[string]int
	most    map[string]int
}

func (b *blockTransport) Addr() string { return "self" }
func (b *blockTransport) Send(to string, data []byte) error {
	b.mu.Lock()
	b.pending[to]++
	b.most[to] = max(b.most[to], b.pending[to])
	b.mu.Unlock()
	<-b.release
	b.mu.Lock()
	b.pending[to]--
	b.mu.Unlock()
	return nil
}
func (b *blockTransport) Recv() <-chan transport.Packet { return nil }
func (b *blockTransport) Close() error                  { return nil }

// TestSendBoundedPerDestination: seeds whose Send never returns (a
// blackholed TCP dial) hold at most one pending Send each, however many
// ticks and SetState calls pile messages onto them; the messages that
// queue behind a stuck send replace one another and are counted.
func TestSendBoundedPerDestination(t *testing.T) {
	_, st := testStore(t, 8, 2, 2, 34)
	bt := &blockTransport{release: make(chan struct{}), pending: map[string]int{}, most: map[string]int{}}
	p := NewPeer(Config{ID: 1, Source: true, Transport: bt, Peers: []string{"seed-a", "seed-b"}, Interval: time.Millisecond, Seed: 1})
	replaced0 := mSendsReplaced.Value()

	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { defer close(stopped); p.Run(ctx) }()
	for i := 0; i < 300; i++ {
		p.SetState(st)
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-stopped

	bt.mu.Lock()
	for _, to := range []string{"seed-a", "seed-b"} {
		if bt.most[to] != 1 {
			t.Errorf("%s: at most %d Sends pending at once, want 1", to, bt.most[to])
		}
	}
	bt.mu.Unlock()
	if got := mSendsReplaced.Value() - replaced0; got < 100 {
		t.Errorf("%d queued messages replaced, want hundreds", got)
	}

	// Unblock: every destination's queue drains and its goroutine exits.
	close(bt.release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		busy := len(p.outbox)
		p.mu.Unlock()
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d destinations still sending after release", busy)
		}
		time.Sleep(time.Millisecond)
	}
}
