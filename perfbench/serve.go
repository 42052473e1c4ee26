package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dmfsgd"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/load"
)

// The serve workload drives real dmfserve processes built from this
// checkout: a trainer (-refresh and -gossip at CI's 200ms bench cadence)
// and a follower pulling from it, so follower publishes keep happening
// under the reads. It is the only workload that loads the HTTP handlers
// and the Snapshot read path; it bypasses the epoch scheduler, the WAL and
// checkpoints.
//
// Phase A is an open loop: Poisson arrivals at a fixed rate, each request
// timed from the moment it was due, so a stall is charged to every
// request it delays. The rate is well under capacity: a quiet 2-CPU host,
// whose CPUs both servers and the generator share, completes 12-17k req/s
// in the closed loop, but one whose CPUs the hypervisor lends to others
// drops to 3-4k, and an open loop near capacity then measures its own
// queue instead of the servers.
// Phase B is a closed loop over the same connections and gives the
// throughput. Requests are a seeded mix — 60% GET /predict, 20% POST
// /predict with 32 pairs, 20% GET /rank with 64 candidates — over
// Zipf(1.2) node popularity.

type serveParams struct {
	nodes, shards  int
	rate           float64 // phase A arrivals per second
	phaseA, phaseB time.Duration
	conns          int
	setups         int
	aucPairs       int
	samplePairs    int // pairs compared byte for byte between trainer and follower
}

func serveSizes(cfg config) serveParams {
	conns := min(2, runtime.GOMAXPROCS(0))
	if cfg.toy {
		return serveParams{nodes: 200, shards: 4, rate: 300, phaseA: time.Second, phaseB: 500 * time.Millisecond,
			conns: conns, setups: 1, aucPairs: 1000, samplePairs: 16}
	}
	s := time.Duration(cfg.seconds) * time.Second
	return serveParams{nodes: 2500, shards: 8, rate: 1000, phaseA: s * 6 / 10, phaseB: s * 4 / 10,
		conns: conns, setups: 3, aucPairs: 20000, samplePairs: 64}
}

// Request kinds, in the order of the per-kind metric names.
var kindNames = [3]string{"predict", "batch", "rank"}

// endpointOf maps a request kind to dmfserve's endpoint label.
var endpointOf = [3]string{"GET /predict", "POST /predict", "GET /rank"}

// httpReq is one pre-rendered request of the seeded sequence.
type httpReq struct {
	kind int
	due  time.Duration // phase A: offset from the phase start
	path string        // path and query
	body []byte        // POST only
	src  *load.Request
}

// buildRequests expands the seeded request sequence and renders it.
func buildRequests(seed int64, n int, p serveParams) (phaseA, phaseB []httpReq, err error) {
	mix := load.MixSpec{Predict: 0.6, PredictBatch: 0.2, Rank: 0.2}
	spec := &load.WorkloadSpec{
		Schema: load.SchemaSpec,
		Name:   "perfbench-serve",
		Seed:   seed,
		Phases: []load.PhaseSpec{
			{Name: "open", Requests: int(p.rate * p.phaseA.Seconds()), Arrival: "poisson", Clients: p.conns,
				RateRPS: p.rate, Mix: mix, BatchSize: 32, Candidates: 64, ZipfS: 1.2},
			{Name: "closed", Requests: 20000, Arrival: "closed", Clients: p.conns,
				Mix: mix, BatchSize: 32, Candidates: 64, ZipfS: 1.2},
		},
	}
	w, err := load.Expand(spec, n)
	if err != nil {
		return nil, nil, err
	}
	render := func(reqs []load.Request) []httpReq {
		out := make([]httpReq, len(reqs))
		for k := range reqs {
			r := &reqs[k]
			h := httpReq{due: r.At, src: r}
			switch r.Kind {
			case load.KindPredict:
				h.kind, h.path = 0, fmt.Sprintf("/predict?i=%d&j=%d", r.I, r.J)
			case load.KindPredictBatch:
				h.kind, h.path = 1, "/predict"
				b := []byte(`{"pairs":[`)
				for x, pr := range r.Pairs {
					if x > 0 {
						b = append(b, ',')
					}
					b = fmt.Appendf(b, "[%d,%d]", pr.I, pr.J)
				}
				h.body = append(b, "]}"...)
			default:
				cands := make([]string, len(r.Cands))
				for x, c := range r.Cands {
					cands[x] = strconv.Itoa(c)
				}
				h.kind, h.path = 2, fmt.Sprintf("/rank?i=%d&candidates=%s", r.I, strings.Join(cands, ","))
			}
			out[k] = h
		}
		return out
	}
	return render(w.Phases[0].Requests), render(w.Phases[1].Requests), nil
}

// conn is one keep-alive connection with its response buffer.
type conn struct {
	base string
	cl   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, cl: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// do sends one request and reads the whole response into c.buf.
func (c *conn) do(ctx context.Context, r *httpReq) error {
	method, body := http.MethodGet, io.Reader(nil)
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+r.path, body)
	if err != nil {
		return err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, r.path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

func (c *conn) close() { c.cl.CloseIdleConnections() }

// get fetches path and returns a copy of the body of a 200 response.
func (c *conn) get(ctx context.Context, path string) ([]byte, error) {
	if err := c.do(ctx, &httpReq{path: path}); err != nil {
		return nil, err
	}
	return bytes.Clone(c.buf.Bytes()), nil
}

// checkAnswer checks that a response parses and answers the request.
func checkAnswer(r *httpReq, body []byte) error {
	switch r.kind {
	case 0:
		var v struct {
			Class string   `json:"class"`
			I     int      `json:"i"`
			J     int      `json:"j"`
			Score *float64 `json:"score"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.I != r.src.I || v.J != r.src.J || v.Score == nil || v.Class == "" {
			return fmt.Errorf("predict answer %s does not match (%d,%d)", body, r.src.I, r.src.J)
		}
	case 1:
		var v struct {
			Classes []string  `json:"classes"`
			Scores  []float64 `json:"scores"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Classes) != len(r.src.Pairs) || len(v.Scores) != len(r.src.Pairs) {
			return fmt.Errorf("batch answer has %d/%d entries for %d pairs", len(v.Classes), len(v.Scores), len(r.src.Pairs))
		}
	default:
		var v struct {
			I      int   `json:"i"`
			Ranked []int `json:"ranked"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		got, want := slices.Clone(v.Ranked), slices.Clone(r.src.Cands)
		slices.Sort(got)
		slices.Sort(want)
		if v.I != r.src.I || !slices.Equal(got, want) {
			return fmt.Errorf("rank answer for %d is not a permutation of its candidates", r.src.I)
		}
	}
	return nil
}

// timing is one phase-A request: due, sent and received, as offsets
// from the phase start.
type timing struct {
	due, send, recv time.Duration
	kind            int
}

// openLoop sends each request at its due time over p.conns connections:
// whichever connection is free takes the next request, and a request
// whose connections are all busy waits — which its latency, timed from
// the due time, then includes.
func openLoop(ctx context.Context, base string, reqs []httpReq, conns int, tr *tracer) ([]timing, int64, error) {
	out := make([]timing, len(reqs))
	var next atomic.Int64
	var failed atomic.Int64
	var firstErr error
	var errOnce sync.Once
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		c := newConn(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			// The thread ends with the goroutine, so its timer slack
			// setting goes with it.
			runtime.LockOSThread()
			preciseTimers()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := &reqs[k]
				sleepUntil(start.Add(r.due))
				send := time.Now()
				err := c.do(ctx, r)
				recv := time.Now()
				if err == nil {
					err = checkAnswer(r, c.buf.Bytes())
				}
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { firstErr = err })
				}
				out[k] = timing{due: r.due, send: send.Sub(start), recv: recv.Sub(start), kind: r.kind}
				if tr != nil {
					id := tr.id()
					tr.add("serve.request."+kindNames[r.kind], id, 0, start.Add(r.due), recv, 1)
					tr.add("serve.roundtrip."+kindNames[r.kind], 0, id, send, recv, 1)
				}
			}
		}()
	}
	wg.Wait()
	return out, failed.Load(), firstErr
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// preciseTimers sets the calling thread's timer slack to 1µs, so its
// sleeps end within microseconds of their deadline instead of the
// default 50µs. Best effort: without it the pacing is coarser, and the
// reported generator lateness shows it.
func preciseTimers() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// sleepUntil blocks the calling thread until t. It sleeps in nanosleep
// rather than time.Sleep: the runtime's timers wake through the network
// poller, whose wait rounds sub-millisecond delays up to a millisecond —
// longer than a request takes.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// serveWindow is the window length the serve metrics are taken over.
const serveWindow = 500 * time.Millisecond

// closedLoop keeps every connection busy for d and counts completions,
// in total and per serveWindow (a request finishing after d counts in
// the last window).
func closedLoop(ctx context.Context, base string, reqs []httpReq, conns int, d time.Duration) (perWindow []int64, done, failed int64, err error) {
	var next, bad atomic.Int64
	var firstErr error
	var errOnce sync.Once
	windows := make([]atomic.Int64, max(1, int(d/serveWindow)))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		c := newConn(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := &reqs[int(next.Add(1)-1)%len(reqs)]
				err := c.do(ctx, r)
				if err == nil {
					err = checkAnswer(r, c.buf.Bytes())
				}
				if err != nil {
					bad.Add(1)
					errOnce.Do(func() { firstErr = err })
					continue
				}
				windows[min(len(windows)-1, int(time.Since(start)/serveWindow))].Add(1)
			}
		}()
	}
	wg.Wait()
	perWindow = make([]int64, len(windows))
	for i := range windows {
		perWindow[i] = windows[i].Load()
		done += perWindow[i]
	}
	return perWindow, done, bad.Load(), firstErr
}

// proc is one dmfserve process.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to exit, kills it after 5s, and waits for it.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of the process log, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log) // best effort: the log only decorates an error
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// servePair is one running trainer and follower.
type servePair struct {
	trainer, follower           *proc
	tBase, fBase                string
	setupS, trainerS, followerS float64
}

func (sp *servePair) stop() {
	if sp == nil {
		return
	}
	sp.follower.stop()
	sp.trainer.stop()
}

// startPair starts both processes at once and returns when both answer
// /healthz with 200: the trainer once its budget is trained and it
// serves, the follower once it has bootstrapped over gossip.
func startPair(ctx context.Context, cfg config, p serveParams, i int) (*servePair, error) {
	var addrs [3]string
	for k := range addrs {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[k] = a
	}
	tAddr, gAddr, fAddr := addrs[0], addrs[1], addrs[2]
	interval := gossipInterval.String()
	t0 := time.Now()
	trainer, err := startProc(cfg.dmfserve, filepath.Join(cfg.workdir, fmt.Sprintf("trainer-%d.log", i)),
		"-dataset", "meridian", "-n", strconv.Itoa(p.nodes), "-seed", strconv.FormatInt(cfg.seed, 10),
		"-shards", strconv.Itoa(p.shards), "-refresh", interval, "-gossip", gAddr, "-gossip-interval", interval,
		"-addr", tAddr)
	if err != nil {
		return nil, err
	}
	follower, err := startProc(cfg.dmfserve, filepath.Join(cfg.workdir, fmt.Sprintf("follower-%d.log", i)),
		"-addr", fAddr, "-peer", gAddr, "-gossip-interval", interval)
	if err != nil {
		trainer.stop()
		return nil, err
	}
	sp := &servePair{trainer: trainer, follower: follower, tBase: "http://" + tAddr, fBase: "http://" + fAddr}
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	healthy := func(base string) bool {
		resp, err := poll.Get(base + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	deadline := t0.Add(60 * time.Second)
	for sp.trainerS == 0 || sp.followerS == 0 {
		switch {
		case ctx.Err() != nil:
			sp.stop()
			return nil, ctx.Err()
		case trainer.exited():
			sp.stop()
			return nil, fmt.Errorf("trainer exited during set-up:\n%s", trainer.logTail())
		case follower.exited():
			sp.stop()
			return nil, fmt.Errorf("follower exited during set-up:\n%s", follower.logTail())
		case time.Now().After(deadline):
			sp.stop()
			return nil, fmt.Errorf("trainer and follower not ready within 60s:\n%s\n%s", trainer.logTail(), follower.logTail())
		}
		if sp.trainerS == 0 && healthy(sp.tBase) {
			sp.trainerS = time.Since(t0).Seconds()
		}
		if sp.followerS == 0 && healthy(sp.fBase) {
			sp.followerS = time.Since(t0).Seconds()
		}
		time.Sleep(5 * time.Millisecond)
	}
	sp.setupS = time.Since(t0).Seconds()
	return sp, nil
}

func scrape(ctx context.Context, c *conn) (map[string]float64, error) {
	b, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return load.ParsePrometheus(bytes.NewReader(b))
}

func snapshotSteps(ctx context.Context, c *conn) (int64, error) {
	b, err := c.get(ctx, "/stats")
	if err != nil {
		return 0, err
	}
	var st struct {
		Steps int64 `json:"snapshot_steps"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, err
	}
	return st.Steps, nil
}

// sameAnswers is the follower ≡ trainer check: once both serve the same
// snapshot step count, a fixed sample of /predict answers must be
// byte-identical. The trainer keeps refreshing, so a comparison counts
// only when both step counts held across the whole sample.
func sameAnswers(ctx context.Context, sp *servePair, pairs [][2]int) (bool, int64, error) {
	tc, fc := newConn(sp.tBase), newConn(sp.fBase)
	defer tc.close()
	defer fc.close()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ts, err := snapshotSteps(ctx, tc)
		if err != nil {
			return false, 0, err
		}
		fs, err := snapshotSteps(ctx, fc)
		if err != nil {
			return false, 0, err
		}
		if ts != fs {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		same := true
		for _, pr := range pairs {
			path := fmt.Sprintf("/predict?i=%d&j=%d", pr[0], pr[1])
			a, err := tc.get(ctx, path)
			if err != nil {
				return false, 0, err
			}
			b, err := fc.get(ctx, path)
			if err != nil {
				return false, 0, err
			}
			same = same && bytes.Equal(a, b)
		}
		ts2, err := snapshotSteps(ctx, tc)
		if err != nil {
			return false, 0, err
		}
		fs2, err := snapshotSteps(ctx, fc)
		if err != nil {
			return false, 0, err
		}
		if ts2 == ts && fs2 == fs {
			return same, ts, nil
		}
	}
	return false, 0, errors.New("trainer and follower never held one step count across a comparison in 20s")
}

// heldOut is the evaluation sample: node pairs never measured (neither is
// in the other's neighbor set), with ground-truth labels at τ.
type heldOut struct {
	pairs  []dmfsgd.PathPair
	labels []float64
}

// newHeldOut draws the sample from an in-process session with the
// trainer's dataset and options: same seed, same topology.
func newHeldOut(ds *dmfsgd.Dataset, sess *dmfsgd.Session, seed int64, count int) heldOut {
	n := sess.N()
	nb := make([]map[int]bool, n)
	for i := range nb {
		nb[i] = map[int]bool{}
		for _, j := range sess.Neighbors(i) {
			nb[i][j] = true
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var h heldOut
	for len(h.pairs) < count {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || nb[i][j] || nb[j][i] || ds.Matrix.IsMissing(i, j) {
			continue
		}
		h.pairs = append(h.pairs, dmfsgd.PathPair{I: i, J: j})
		h.labels = append(h.labels, dmfsgd.ClassOf(ds.Metric, ds.Matrix.At(i, j), sess.Tau()).Value())
	}
	return h
}

// servedAUC scores the held-out sample with the follower's answers.
func servedAUC(ctx context.Context, base string, h heldOut) (float64, int64, error) {
	c := newConn(base)
	defer c.close()
	scores := make([]float64, 0, len(h.pairs))
	var requests int64
	for lo := 0; lo < len(h.pairs); lo += 1000 {
		hi := min(lo+1000, len(h.pairs))
		b := []byte(`{"pairs":[`)
		for x, pr := range h.pairs[lo:hi] {
			if x > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, "[%d,%d]", pr.I, pr.J)
		}
		requests++
		if err := c.do(ctx, &httpReq{kind: 1, path: "/predict", body: append(b, "]}"...)}); err != nil {
			return 0, requests, err
		}
		var v struct {
			Scores []float64 `json:"scores"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &v); err != nil {
			return 0, requests, err
		}
		if len(v.Scores) != hi-lo {
			return 0, requests, fmt.Errorf("batch answer has %d scores for %d pairs", len(v.Scores), hi-lo)
		}
		scores = append(scores, v.Scores...)
	}
	return eval.AUC(h.labels, scores), requests, nil
}

// phaseResult is one pass of phase A and phase B.
type phaseResult struct {
	a            []timing
	all          dist
	byKind       [3][]timing
	rps          float64
	completedB   int64
	serverMeanUS [3]float64
	deltas       float64
}

// runPhases runs phase A then phase B against the follower, counting
// every request; with a tracer it scrapes the follower's metrics around
// phase A.
func runPhases(ctx context.Context, sp *servePair, a, b []httpReq, p serveParams, tr *tracer, rep *report) (*phaseResult, error) {
	mc := newConn(sp.fBase)
	defer mc.close()
	// Warm the follower's handler pools and the connection code paths.
	_, warm, warmFailed, err := closedLoop(ctx, sp.fBase, b, p.conns, 200*time.Millisecond)
	rep.attempted += warm + warmFailed
	rep.failed += warmFailed
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var before map[string]float64
	if tr != nil {
		if before, err = scrape(ctx, mc); err != nil {
			return nil, err
		}
	}
	ts, failedA, errA := openLoop(ctx, sp.fBase, a, p.conns, tr)
	rep.attempted += int64(len(a))
	rep.failed += failedA
	rep.check("phase_a_responses", failedA == 0, "%d of %d open-loop responses were 200 and parsed: %v", int64(len(a))-failedA, len(a), errOK(errA))
	res := &phaseResult{a: ts}
	if tr != nil {
		after, err := scrape(ctx, mc)
		if err != nil {
			return nil, err
		}
		for k, ep := range endpointOf {
			lbl := `{endpoint="` + ep + `"}`
			dn := after["dmf_http_request_seconds_count"+lbl] - before["dmf_http_request_seconds_count"+lbl]
			ds := after["dmf_http_request_seconds_sum"+lbl] - before["dmf_http_request_seconds_sum"+lbl]
			res.serverMeanUS[k] = ds / dn * 1e6
		}
		lbl := `dmf_replica_shards_applied_total{kind="delta"}`
		res.deltas = after[lbl] - before[lbl]
	}
	perWindow, done, failedB, errB := closedLoop(ctx, sp.fBase, b, p.conns, p.phaseB)
	rep.attempted += done + failedB
	rep.failed += failedB
	rep.check("phase_b_responses", failedB == 0, "%d of %d closed-loop responses were 200 and parsed: %v", done, done+failedB, errOK(errB))
	rates := make([]float64, len(perWindow))
	for i, c := range perWindow {
		rates[i] = float64(c) / serveWindow.Seconds()
	}
	res.rps = quietRate(rates)
	res.completedB = done
	// Requests due after the last whole window join that window.
	win := make(windowed, max(1, int(p.phaseA/serveWindow)))
	for _, t := range ts {
		w := min(len(win)-1, int(t.due/serveWindow))
		win[w] = append(win[w], wsample{ms(t.recv - t.due), 1})
		res.byKind[t.kind] = append(res.byKind[t.kind], t)
	}
	res.all = win.summary()
	return res, nil
}

// kindDist summarizes one interval of each timing, in µs.
func kindDist(ts []timing, f func(timing) time.Duration) dist {
	return summarize(durationsUS(ts, f))
}

func fromDue(t timing) time.Duration { return t.recv - t.due }
func late(t timing) time.Duration    { return t.send - t.due }
func onWire(t timing) time.Duration  { return t.recv - t.send }

func runServe(ctx context.Context, cfg config, rep *report) error {
	// The generator shares two CPUs with both servers: collecting its
	// garbage a fifth as often keeps its own pauses out of the latencies
	// it records.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	p := serveSizes(cfg)
	a, b, err := buildRequests(cfg.seed, p.nodes, p)
	if err != nil {
		return err
	}
	var setups, trainerS, followerS []float64
	var sp *servePair
	defer func() { sp.stop() }()
	for i := 0; i < p.setups; i++ {
		if sp != nil {
			sp.stop()
			sp = nil
		}
		if sp, err = startPair(ctx, cfg, p, i); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, sp.setupS)
		trainerS = append(trainerS, sp.trainerS)
		followerS = append(followerS, sp.followerS)
	}
	res, err := runPhases(ctx, sp, a, b, p, nil, rep)
	if err != nil {
		return err
	}

	ds := dmfsgd.NewMeridianDataset(p.nodes, cfg.seed)
	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(cfg.seed), dmfsgd.WithRank(10), dmfsgd.WithShards(p.shards))
	if err != nil {
		return err
	}
	defer sess.Close()
	rng := rand.New(rand.NewSource(cfg.seed))
	pairs := make([][2]int, p.samplePairs)
	for k := range pairs {
		i := rng.Intn(p.nodes)
		pairs[k] = [2]int{i, (i + 1 + rng.Intn(p.nodes-1)) % p.nodes}
	}
	same, steps, serr := sameAnswers(ctx, sp, pairs)
	rep.attempted += int64(2 * len(pairs))
	rep.check("follower_equals_trainer", same && serr == nil,
		"%d /predict answers byte-identical at snapshot_steps %d: %v (%v)", len(pairs), steps, same, errOK(serr))
	h := newHeldOut(ds, sess, cfg.seed, p.aucPairs)
	auc, aucReqs, aerr := servedAUC(ctx, sp.fBase, h)
	rep.attempted += aucReqs
	if aerr != nil {
		rep.failed++
	}
	rep.check("served_auc", aerr == nil && auc > 0.5, "auc %.6f of the follower's answers on %d held-out pairs: %v", auc, len(h.pairs), errOK(aerr))
	rss, err := peakRSSMB(sp.follower.cmd.Process.Pid)
	if err != nil {
		return fmt.Errorf("follower peak RSS: %w", err)
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["p50_ms"] = res.all.p50
	rep.e2e["tail_ms"] = res.all.p90
	rep.e2e["throughput"] = res.rps
	rep.e2e["auc"] = auc
	rep.printf("serve: dmfserve trainer (Meridian-%d, %d shards, -refresh %v) and follower (-gossip-interval %v); %d connections",
		p.nodes, p.shards, gossipInterval, gossipInterval, p.conns)
	rep.printf("setup_s %.4f s (median of %d set-ups: %v); trainer ready %.4f s, follower ready %.4f s",
		median(setups), len(setups), setups, median(trainerS), median(followerS))
	rep.printf("phase A: open loop, Poisson %.0f req/s for %v; latency from due time, all requests, lower quartile over %v windows: %s ms", p.rate, p.phaseA, serveWindow, res.all)
	printKinds(rep, res)
	rep.printf("serve_rps %.6g req/s (phase B: closed loop, %d connections, upper quartile over %v windows; %d requests in %v)",
		res.rps, p.conns, serveWindow, res.completedB, p.phaseB)
	rep.printf("auc %.6f (follower's answers, %d held-out pairs)", auc, len(h.pairs))
	rep.printf("peak_rss_mb %.4g MB (follower process VmHWM)", rss)

	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	tres, err := runPhases(ctx, sp, a, b, p, tr, rep)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	trss, err := peakRSSMB(sp.follower.cmd.Process.Pid)
	if err != nil {
		return fmt.Errorf("follower peak RSS: %w", err)
	}
	rep.tracedE2E["setup_s"] = median(setups) // the traced pass reuses the set-up
	rep.tracedE2E["peak_rss_mb"] = trss
	rep.tracedE2E["p50_ms"] = tres.all.p50
	rep.tracedE2E["tail_ms"] = tres.all.p90
	rep.tracedE2E["throughput"] = tres.rps
	rep.tracedE2E["auc"] = auc // one evaluation per set-up
	snapNS, err := replaySnapshot(ctx, sess, a)
	if err != nil {
		return err
	}
	serveLayers(rep, res, tres, snapNS)
	L := rep.layers
	L["setup.trainer_ready_s"] = median(trainerS)
	L["setup.follower_ready_s"] = median(followerS)
	tr.report(rep)
	return writeTrace(cfg, tr, rep)
}

// printKinds prints the named per-endpoint latencies with sample counts.
func printKinds(rep *report, res *phaseResult) {
	for k, name := range kindNames {
		d := kindDist(res.byKind[k], fromDue)
		rep.printf("%s_p50_us %.4g us, %s_p90_us %.4g us, %s_p99_us %.4g us (n=%d)", name, d.p50, name, d.p90, name, d.p99, d.n)
	}
	l := kindDist(res.a, late)
	rep.printf("load generator lateness (send − due): %s us", l)
}

// replaySnapshot replays phase A's request sequence through Predict,
// PredictBatch and RankInto on an in-process snapshot trained like the
// trainer's (same dataset, options and budget), returning ns per call by
// kind.
func replaySnapshot(ctx context.Context, sess *dmfsgd.Session, reqs []httpReq) ([3]float64, error) {
	var out [3]float64
	if err := sess.Run(ctx, 0); err != nil {
		return out, err
	}
	snap := sess.Snapshot()
	var total [3]time.Duration
	var count [3]int
	scores := make([]float64, 64)
	ranked := make([]int, 128)
	sink := 0.0
	for k := range reqs {
		r := reqs[k].src
		kind := reqs[k].kind
		t0 := time.Now()
		switch kind {
		case 0:
			sink += snap.Predict(r.I, r.J)
		case 1:
			sink += snap.PredictBatch(r.Pairs, scores[:len(r.Pairs)])[0]
		default:
			sink += float64(snap.RankInto(r.I, r.Cands, ranked[:len(r.Cands)])[0])
		}
		total[kind] += time.Since(t0)
		count[kind]++
	}
	if math.IsNaN(sink) {
		return out, errors.New("snapshot replay produced NaN")
	}
	for k := range out {
		out[k] = float64(total[k]) / float64(count[k])
	}
	return out, nil
}

// serveLayers derives the per-layer metrics of the traced pass and prints
// one residual line per attributed latency — the predict median and the
// batch and rank tails — next to the same figure from the untraced pass.
func serveLayers(rep *report, untraced, res *phaseResult, snapNS [3]float64) {
	L := rep.layers
	L["serve.loadgen_late_p99_us"] = wquantile(values(durationsUS(res.a, late)), 0.99)
	L["serve.follower_deltas"] = res.deltas
	for k, name := range kindNames {
		ts := res.byKind[k]
		wireMean := 0.0
		for _, t := range ts {
			wireMean += float64(onWire(t)) / float64(time.Microsecond)
		}
		wireMean /= float64(len(ts))
		server := res.serverMeanUS[k]
		snapUS := snapNS[k] / 1e3
		L["serve.http_server_us."+name] = server
		L["serve.client_residual_us."+name] = wireMean - server
		L["serve.snapshot_ns."+name] = snapNS[k]

		q := 0.99
		if k == 0 {
			q = 0.5
		}
		e2e := wquantile(values(durationsUS(ts, fromDue)), q)
		lateQ := wquantile(values(durationsUS(ts, late)), q)
		residual := e2e - lateQ - (wireMean - server) - (server - snapUS) - snapUS
		L["serve.residual_us."+name] = residual
		plain := wquantile(values(durationsUS(untraced.byKind[k], fromDue)), q)
		rep.printf("residual %s p%g: traced %.4g us (n=%d) = lateness %.4g + client/net/http %.4g + handler %.4g + snapshot %.4g + residual %.4g; untraced %.4g us, tracing overhead %+.4g us",
			name, q*100, e2e, len(ts), lateQ, wireMean-server, server-snapUS, snapUS, residual, plain, e2e-plain)
	}
}

func durationsUS(ts []timing, f func(timing) time.Duration) []float64 {
	vs := make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = float64(f(t)) / float64(time.Microsecond)
	}
	return vs
}
