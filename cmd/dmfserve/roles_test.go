package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The role tests start dmfserve roles in process, from the same command
// lines the CI smokes run, each served on its own loopback listener.

// running is one started role.
type running struct {
	*server
	base string       // http://host:port of its listener
	stop func() error // cancels the role and returns serve's error
}

// launch starts the role the command line picks and serves it until stop
// or the end of the test.
func launch(t *testing.T, args ...string) *running {
	t.Helper()
	var cfg config
	fs := flag.NewFlagSet("dmfserve", flag.ContinueOnError)
	cfg.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := start(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		s.close()
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln) }()
	var once sync.Once
	var serveErr error
	r := &running{server: s, base: "http://" + ln.Addr().String()}
	r.stop = func() error {
		once.Do(func() {
			cancel()
			serveErr = <-served
		})
		return serveErr
	}
	t.Cleanup(func() { r.stop() })
	return r
}

func (r *running) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(r.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// waitHealthz polls /healthz until it answers 200 with every want
// fragment, and returns that body.
func (r *running) waitHealthz(t *testing.T, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := r.get(t, "/healthz")
		ok := code == http.StatusOK
		for _, w := range want {
			ok = ok && strings.Contains(body, w)
		}
		if ok {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never matched %q: %d %s", want, code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// grid answers /predict over the CI smokes' grid of pairs.
func (r *running) grid(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, i := range []string{"0", "7", "13", "29", "41"} {
		for _, j := range []string{"3", "11", "26", "42", "59"} {
			code, body := r.get(t, "/predict?i="+i+"&j="+j)
			if code != http.StatusOK {
				t.Fatalf("predict %s,%s: %d %s", i, j, code, body)
			}
			b.WriteString(body)
		}
	}
	return b.String()
}

// syncBuffer is a log sink the test can read while roles still log.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func captureLog(t *testing.T) *syncBuffer {
	buf := new(syncBuffer)
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return buf
}

var trainerArgs = []string{"-dataset", "meridian", "-n", "120", "-budget", "20000"}

func args(base []string, more ...string) []string {
	return append(append([]string(nil), base...), more...)
}

// TestFollowerMirrorsTrainer is the two-replica smoke in process: a
// follower bootstrapped over gossip reports no lag and serves the
// trainer's predictions byte for byte.
func TestFollowerMirrorsTrainer(t *testing.T) {
	tr := launch(t, args(trainerArgs, "-gossip", "127.0.0.1:0", "-gossip-interval", "50ms")...)
	fol := launch(t, "-peer", tr.gossip.Addr(), "-gossip-interval", "50ms")
	fol.waitHealthz(t, `"role":"follower"`, `"lag_steps":0`, `"stale_shards":0`)
	if a, b := tr.grid(t), fol.grid(t); a != b {
		t.Fatalf("follower predictions differ from the trainer's:\n%s\n%s", a, b)
	}
	if _, stats := fol.get(t, "/stats"); !strings.Contains(stats, `"dataset":"replicated"`) {
		t.Errorf("follower stats: %s", stats)
	}
}

// TestDurableTrainerRestart is kill-and-restart round 1 in process: a
// trainer restarted on its checkpoint and WAL retrains nothing, reports
// zero durability lag and serves identical predictions.
func TestDurableTrainerRestart(t *testing.T) {
	dir := t.TempDir()
	durable := args(trainerArgs, "-checkpoint", filepath.Join(dir, "sess.ckpt"), "-wal", filepath.Join(dir, "wal"))
	first := launch(t, durable...)
	pre := first.grid(t)
	if err := first.stop(); err != nil {
		t.Fatal(err)
	}
	logs := captureLog(t)
	second := launch(t, durable...)
	second.waitHealthz(t, `"status":"ok"`, `"steps":20000`, `"wal_lag":0`)
	if !strings.Contains(logs.String(), "nothing to retrain") {
		t.Errorf("restart retrained:\n%s", logs)
	}
	if post := second.grid(t); post != pre {
		t.Fatalf("predictions changed across the restart:\n%s\n%s", pre, post)
	}
}

// TestFollowerRestartServesCheckpoint: a follower with -checkpoint saves
// what gossip converged to at shutdown; restarted after its trainer is
// gone, it serves that state at once — there is no one left to pull from.
func TestFollowerRestartServesCheckpoint(t *testing.T) {
	tr := launch(t, args(trainerArgs, "-gossip", "127.0.0.1:0", "-gossip-interval", "50ms")...)
	follower := []string{"-peer", tr.gossip.Addr(), "-gossip-interval", "50ms",
		"-checkpoint", filepath.Join(t.TempDir(), "replica.ckpt")}
	fol := launch(t, follower...)
	fol.waitHealthz(t, `"lag_steps":0`, `"stale_shards":0`)
	want := tr.grid(t)
	for _, r := range []*running{fol, tr} {
		if err := r.stop(); err != nil {
			t.Fatal(err)
		}
	}
	again := launch(t, follower...)
	code, health := again.get(t, "/healthz")
	if code != http.StatusOK || !strings.Contains(health, `"steps":20000`) || !strings.Contains(health, `"wal_lag":0`) {
		t.Fatalf("restarted follower healthz: %d %s", code, health)
	}
	if got := again.grid(t); got != want {
		t.Fatalf("restarted follower predictions differ from the trainer's:\n%s\n%s", want, got)
	}
}
