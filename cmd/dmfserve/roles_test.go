package main

import (
	"context"
	"flag"
	"fmt"
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

	"dmfsgd/internal/load"
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

// scrape fetches the role's GET /metrics as series id → value.
func (r *running) scrape(t *testing.T) map[string]float64 {
	t.Helper()
	code, body := r.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, body)
	}
	m, err := load.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRequestCountersCoverDrivenRequests: each role's /metrics counts
// every request driven at it, endpoint by endpoint. The roles share the
// process's registry, so the requests go to one role at a time, each
// batch bracketed by that role's own scrapes.
func TestRequestCountersCoverDrivenRequests(t *testing.T) {
	tr := launch(t, args(trainerArgs, "-gossip", "127.0.0.1:0", "-gossip-interval", "50ms")...)
	fol := launch(t, "-peer", tr.gossip.Addr(), "-gossip-interval", "50ms")
	fol.waitHealthz(t, `"role":"follower"`, `"lag_steps":0`, `"stale_shards":0`)
	// Distinct counts, so a request counted under another endpoint shows.
	driven := map[string]int{"GET /predict": 23, "POST /predict": 11, "GET /rank": 7}
	for _, r := range []*running{tr, fol} {
		before := r.scrape(t)
		for k := 0; k < driven["GET /predict"]; k++ {
			if code, body := r.get(t, fmt.Sprintf("/predict?i=%d&j=%d", k, k+1)); code != http.StatusOK {
				t.Fatalf("GET /predict: %d %s", code, body)
			}
		}
		for k := 0; k < driven["POST /predict"]; k++ {
			body := fmt.Sprintf(`{"pairs":[[%d,%d],[%d,%d]]}`, k, k+2, k+3, k)
			resp, err := http.Post(r.base+"/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /predict: status %d", resp.StatusCode)
			}
		}
		for k := 0; k < driven["GET /rank"]; k++ {
			if code, body := r.get(t, fmt.Sprintf("/rank?i=%d&candidates=%d,%d,%d", k, k+1, k+5, k+9)); code != http.StatusOK {
				t.Fatalf("GET /rank: %d %s", code, body)
			}
		}
		after := r.scrape(t)
		for ep, n := range driven {
			id := `dmf_http_requests_total{endpoint="` + ep + `"}`
			if d := after[id] - before[id]; d != float64(n) {
				t.Errorf("%s: %s grew by %v, want %d", r.base, id, d, n)
			}
		}
	}
}
