package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dmfsgd"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/replica"
	"dmfsgd/internal/transport"
	"dmfsgd/internal/wire"
)

// The ingest workload runs dmfserve's trainer refresh body back to back,
// in process, through the same calls dmfserve makes: Session.Run over a
// MatrixSource behind a rotating WAL, Session.Snapshot, replica.Update,
// Peer.SetState, a CheckpointChain save every ckptEvery iterations, and
// gossip over loopback TCP to a follower Peer whose OnState publishes
// with NewSnapshotBlocks. It runs in process because freshness starts
// when a measurement enters the Source, a moment no process exposes.

// gossipInterval is both peers' anti-entropy period: CI's bench cadence.
const gossipInterval = 200 * time.Millisecond

type ingestParams struct {
	nodes, shards int
	iters         int   // refresh iterations: fixed work, so the final model is deterministic
	ckptEvery     int   // iterations between checkpoint saves
	baseEvery     int   // delta saves between full bases
	segBytes      int64 // WAL segment size
	setups        int
	aucPairs      int
}

func ingestSizes(cfg config) ingestParams {
	if cfg.toy {
		return ingestParams{nodes: 200, shards: 4, iters: 6, ckptEvery: 2, baseEvery: 1, segBytes: 64 << 10, setups: 1, aucPairs: 2000}
	}
	return ingestParams{nodes: 2500, shards: 8, iters: 6 * cfg.seconds, ckptEvery: 10, baseEvery: 8, segBytes: 4 << 20, setups: 3, aucPairs: 100000}
}

// stamp is one batch handed from the source to the WAL layer.
type stamp struct {
	at   time.Time
	n    int64
	iter int
}

// stampSource sits between the MatrixSource and the WAL layer. While on,
// it stamps the moment each batch is handed on — where a measurement's
// freshness starts — and records a span around the inner NextBatch.
type stampSource struct {
	src    dmfsgd.Source
	span   string
	tr     *tracer
	on     bool
	iter   int   // ingest iteration in flight
	parent int64 // span id of the Session.Run call in flight
	stamps []stamp
	dur    time.Duration // time inside the inner NextBatch while on
}

func (s *stampSource) NextBatch(ctx context.Context, buf []dmfsgd.Measurement) (int, error) {
	if !s.on {
		return s.src.NextBatch(ctx, buf)
	}
	t0 := time.Now()
	n, err := s.src.NextBatch(ctx, buf)
	t1 := time.Now()
	if n > 0 {
		s.stamps = append(s.stamps, stamp{t1, int64(n), s.iter})
	}
	s.dur += t1.Sub(t0)
	s.tr.add(s.span, 0, s.parent, t0, t1, int64(n))
	return n, err
}

// Unwrap exposes the MatrixSource, so the session binds it to its
// topology and RNG stream exactly as it would without the shim.
func (s *stampSource) Unwrap() dmfsgd.Source { return s.src }

// publish is one follower publish: the OnState body from start to the
// moment the new snapshot is served.
type publish struct {
	start, end time.Time
	steps      uint64
}

// follower is the serving side: dmfserve's follower publishState.
type follower struct {
	tr      *tracer
	prev    *dmfsgd.Snapshot // touched only on the peer's Run goroutine
	serving atomic.Pointer[dmfsgd.Snapshot]
	ready   chan struct{}
	once    sync.Once

	mu   sync.Mutex
	pubs []publish
	err  error
}

func (f *follower) onState(st *replica.State) {
	t0 := time.Now()
	bu, bv := st.Blocks()
	snap, err := dmfsgd.NewSnapshotBlocks(dmfsgd.Metric(st.Meta.Metric), st.Meta.Tau,
		int(st.Meta.Steps), st.Rank, st.N, st.Shards, bu, bv, st.Vers(), f.prev)
	if err != nil {
		f.mu.Lock()
		f.err = errors.Join(f.err, err)
		f.mu.Unlock()
		return
	}
	f.prev = snap
	f.serving.Store(snap)
	t1 := time.Now()
	f.mu.Lock()
	f.pubs = append(f.pubs, publish{t0, t1, st.Meta.Steps})
	f.mu.Unlock()
	f.tr.add("ingest.follower_publish", 0, 0, t0, t1, 0)
	f.once.Do(func() { close(f.ready) })
}

func (f *follower) publishes() []publish {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]publish(nil), f.pubs...)
}

// sendRec is one frame the trainer's gossip transport sent.
type sendRec struct {
	start time.Time
	typ   wire.MsgType
	bytes int
}

// frameNames names the replication frames in span names.
var frameNames = map[wire.MsgType]string{
	wire.TypeVersionVec:   "version_vec",
	wire.TypeDeltaRequest: "delta_request",
	wire.TypeDelta:        "delta",
}

// timedTransport wraps the trainer's gossip transport and times each Send.
type timedTransport struct {
	transport.Transport
	tr    *tracer
	mu    sync.Mutex
	sends []sendRec
}

func (t *timedTransport) Send(to string, data []byte) error {
	typ, _ := wire.PeekType(data) // an unreadable type is recorded as 0
	t0 := time.Now()
	err := t.Transport.Send(to, data)
	t1 := time.Now()
	t.mu.Lock()
	t.sends = append(t.sends, sendRec{t0, typ, len(data)})
	t.mu.Unlock()
	t.tr.add("ingest.gossip_send."+frameNames[typ], 0, 0, t0, t1, int64(len(data)))
	return err
}

func (t *timedTransport) records() []sendRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]sendRec(nil), t.sends...)
}

// ingestSys is one trainer + follower pair.
type ingestSys struct {
	p        ingestParams
	dir      string
	ds       *dmfsgd.Dataset
	sess     *dmfsgd.Session
	shim     *stampSource
	chain    *dmfsgd.CheckpointChain
	ckptPath string
	repState *replica.State
	tpeer    *replica.Peer
	timed    *timedTransport // nil when untraced
	trans    []*transport.TCP
	fol      *follower
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	datasetS, budgetS, bootstrapS, setupS float64
	saveMS                                []float64
	baseBytes, deltaBytes                 []float64
}

// setupIngest builds and starts one system: dataset, session with its
// WAL, the budget training dmfserve does before serving, the first
// checkpoint, and both peers. It returns once the follower serves.
func setupIngest(ctx context.Context, cfg config, p ingestParams, dir string, tr *tracer) (_ *ingestSys, err error) {
	sys := &ingestSys{p: p, dir: dir, ckptPath: filepath.Join(dir, "trainer.ckpt")}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	t0 := time.Now()
	sys.ds = dmfsgd.NewMeridianDataset(p.nodes, cfg.seed)
	t1 := time.Now()
	ms, err := dmfsgd.NewMatrixSource(sys.ds, 0, cfg.seed)
	if err != nil {
		return nil, err
	}
	sys.shim = &stampSource{src: ms, span: "ingest.source", tr: tr}
	wal, err := dmfsgd.WithWALDir(sys.shim, filepath.Join(dir, "wal"), p.segBytes)
	if err != nil {
		return nil, err
	}
	sys.sess, err = dmfsgd.NewSessionFromSource(sys.ds, wal,
		dmfsgd.WithSeed(cfg.seed), dmfsgd.WithRank(10), dmfsgd.WithShards(p.shards))
	if err != nil {
		return nil, err
	}
	if err = sys.sess.Run(ctx, sys.sess.DefaultBudget()); err != nil {
		return nil, fmt.Errorf("budget training: %w", err)
	}
	sys.chain = dmfsgd.NewCheckpointChain(sys.ckptPath, p.baseEvery)
	if err = sys.save(); err != nil {
		return nil, err
	}
	if err = sys.capture(sys.sess.Snapshot()); err != nil {
		return nil, err
	}
	t2 := time.Now()

	sys.fol = &follower{tr: tr, ready: make(chan struct{})}
	ttcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys.trans = append(sys.trans, ttcp)
	ftcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys.trans = append(sys.trans, ftcp)
	var tt transport.Transport = ttcp
	if tr != nil {
		sys.timed = &timedTransport{Transport: ttcp, tr: tr}
		tt = sys.timed
	}
	sys.tpeer = replica.NewPeer(replica.Config{ID: 1, Transport: tt, Interval: gossipInterval, Seed: cfg.seed, Source: true})
	sys.tpeer.SetState(sys.repState)
	fpeer := replica.NewPeer(replica.Config{ID: 2, Transport: ftcp, Peers: []string{ttcp.Addr()},
		Interval: gossipInterval, Seed: cfg.seed + 1, OnState: sys.fol.onState})
	pctx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	// Both peers start together, so their tickers run in a fixed phase
	// rather than one set by start-up jitter.
	sys.wg.Add(2)
	go func() { defer sys.wg.Done(); sys.tpeer.Run(pctx) }()
	go func() { defer sys.wg.Done(); fpeer.Run(pctx) }()
	select {
	case <-sys.fol.ready:
	case <-time.After(30 * time.Second):
		return nil, errors.New("follower did not bootstrap within 30s")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	t3 := time.Now()
	sys.datasetS = t1.Sub(t0).Seconds()
	sys.budgetS = t2.Sub(t1).Seconds()
	sys.bootstrapS = t3.Sub(t2).Seconds()
	sys.setupS = t3.Sub(t0).Seconds()
	return sys, nil
}

// capture is dmfserve's trainer publish: flat copy, replica capture and
// SetState.
func (sys *ingestSys) capture(snap *dmfsgd.Snapshot) error {
	u, v := snap.Flat()
	st, err := replica.Update(sys.repState, snap.N(), snap.Dim(), snap.StoreShards(),
		replica.Meta{Steps: uint64(snap.Steps()), Tau: snap.Tau(), Metric: uint8(snap.Metric())},
		snap.Versions(), u, v)
	if err != nil {
		return fmt.Errorf("replica capture: %w", err)
	}
	sys.repState = st
	if sys.tpeer != nil {
		sys.tpeer.SetState(st)
	}
	return nil
}

// save writes one checkpoint and records its duration and file size.
func (sys *ingestSys) save() error {
	next := ckpt.DeltaPath(sys.ckptPath, countDeltas(sys.ckptPath)+1)
	t0 := time.Now()
	if err := sys.chain.Save(sys.sess); err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	sys.saveMS = append(sys.saveMS, ms(time.Since(t0)))
	if fi, err := os.Stat(next); err == nil {
		sys.deltaBytes = append(sys.deltaBytes, float64(fi.Size()))
	} else if fi, err := os.Stat(sys.ckptPath); err == nil {
		sys.baseBytes = append(sys.baseBytes, float64(fi.Size()))
	}
	return nil
}

// countDeltas counts the delta files extending the chain at path.
func countDeltas(path string) int {
	n := 0
	for {
		if _, err := os.Stat(ckpt.DeltaPath(path, n+1)); err != nil {
			return n
		}
		n++
	}
}

func (sys *ingestSys) close() {
	if sys.cancel != nil {
		sys.cancel()
		sys.wg.Wait()
	}
	for _, t := range sys.trans {
		t.Close()
	}
	if sys.sess != nil {
		sys.sess.Close()
	}
	os.RemoveAll(sys.dir)
}

// ingestLoop is what one measured pass of the loop observed.
type ingestLoop struct {
	kn           int // updates per iteration: k·n
	measurements int64
	elapsed      time.Duration
	end          time.Time // the last iteration, its save included, done
	steps0       uint64    // trainer steps before the first iteration
	stepsAfter   []uint64
	runStart     []time.Time
	runEnd       []time.Time
	snapMS       []float64
	updateMS     []float64
	setAt        []time.Time
	stamps       []stamp
	pubs         []publish
	gcPauseMS    float64
}

// loop runs the refresh body p.iters times back to back and then waits,
// bounded, for the follower to serve the final step count.
func (sys *ingestSys) loop(ctx context.Context, tr *tracer, rep *report) (*ingestLoop, error) {
	p := sys.p
	kn := sys.sess.N() * sys.sess.K()
	out := &ingestLoop{kn: kn}
	steps0 := sys.sess.Steps()
	sys.saveMS, sys.baseBytes, sys.deltaBytes = nil, nil, nil // count the loop's saves only
	pause0 := gcPauseSeconds()
	sys.shim.on = true
	start := time.Now()
	for r := 0; r < p.iters; r++ {
		sys.shim.iter = r
		runID := tr.id()
		sys.shim.parent = runID
		t0 := time.Now()
		rep.attempted++
		if err := sys.sess.Run(ctx, kn); err != nil {
			rep.failed++
			return nil, fmt.Errorf("iteration %d: Session.Run: %w", r, err)
		}
		t1 := time.Now()
		snap := sys.sess.Snapshot()
		t2 := time.Now()
		if err := sys.capture(snap); err != nil {
			rep.failed++
			return nil, fmt.Errorf("iteration %d: %w", r, err)
		}
		t3 := time.Now()
		tr.add("ingest.run", runID, 0, t0, t1, int64(kn))
		tr.add("ingest.snapshot", 0, 0, t1, t2, 0)
		tr.add("ingest.replica_update", 0, 0, t2, t3, 0)
		out.stepsAfter = append(out.stepsAfter, uint64(snap.Steps()))
		out.runStart = append(out.runStart, t0)
		out.runEnd = append(out.runEnd, t1)
		out.snapMS = append(out.snapMS, ms(t2.Sub(t1)))
		out.updateMS = append(out.updateMS, ms(t3.Sub(t2)))
		out.setAt = append(out.setAt, t3)
		if (r+1)%p.ckptEvery == 0 {
			rep.attempted++
			t4 := time.Now()
			if err := sys.save(); err != nil {
				rep.failed++
				return nil, fmt.Errorf("iteration %d: %w", r, err)
			}
			tr.add("ingest.ckpt_save", 0, 0, t4, time.Now(), 0)
		}
	}
	out.end = time.Now()
	out.elapsed = out.end.Sub(start)
	out.steps0 = uint64(steps0)
	sys.shim.on = false
	out.gcPauseMS = (gcPauseSeconds() - pause0) * 1e3
	out.measurements = int64(sys.sess.Steps() - steps0)
	out.stamps = sys.shim.stamps
	sys.shim.stamps = nil

	final := uint64(sys.sess.Steps())
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := sys.fol.serving.Load(); s != nil && uint64(s.Steps()) >= final {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower did not reach step %d within 10s of the last iteration", final)
		}
		time.Sleep(2 * time.Millisecond)
	}
	out.pubs = sys.fol.publishes()
	return out, nil
}

// servedBy joins each iteration to the first publish, in time order,
// whose step count reaches the steps that iteration's Run left behind:
// idx[r] indexes pubs, or is -1 when no publish covers iteration r.
func servedBy(stepsAfter []uint64, pubs []publish) []int {
	idx := make([]int, len(stepsAfter))
	for r, want := range stepsAfter {
		idx[r] = -1
		for k, pb := range pubs {
			if pb.steps >= want {
				idx[r] = k
				break
			}
		}
	}
	return idx
}

// freshness is the freshness join: a measurement stamped when the source
// handed it to the WAL layer is fresh once the follower publishes the
// first snapshot whose Steps reaches the trainer's step count after the
// Session.Run call that applied it. Samples are in milliseconds, weighted
// by the batch's measurement count.
func freshness(stamps []stamp, stepsAfter []uint64, pubs []publish) ([]wsample, error) {
	idx := servedBy(stepsAfter, pubs)
	out := make([]wsample, 0, len(stamps))
	for _, s := range stamps {
		if s.iter < 0 || s.iter >= len(idx) || idx[s.iter] < 0 {
			return nil, fmt.Errorf("measurements of iteration %d were never served", s.iter)
		}
		out = append(out, wsample{ms(pubs[idx[s.iter]].end.Sub(s.at)), s.n})
	}
	return out, nil
}

// summarizeIngest windows a pass by checkpoint interval, so each window
// holds one save, and returns freshness and the durable ingest rate of
// the quieter windows (quietQ). fresh[i] is the freshness of lp.stamps[i].
func summarizeIngest(lp *ingestLoop, fresh []wsample, every int) (dist, float64) {
	var win windowed
	for i, s := range lp.stamps {
		w := s.iter / every
		for len(win) <= w {
			win = append(win, nil)
		}
		win[w] = append(win[w], fresh[i])
	}
	var rates []float64
	for lo := 0; lo < len(lp.runStart); lo += every {
		hi := min(lo+every, len(lp.runStart))
		end := lp.end
		if hi < len(lp.runStart) {
			end = lp.runStart[hi]
		}
		prev := lp.steps0
		if lo > 0 {
			prev = lp.stepsAfter[lo-1]
		}
		rates = append(rates, float64(lp.stepsAfter[hi-1]-prev)/end.Sub(lp.runStart[lo]).Seconds())
	}
	return win.summary(), quietRate(rates)
}

// ingestPass runs the loop on sys and evaluates it: freshness and rate
// of the quieter windows, the follower ≡ trainer check, and the final
// model's AUC.
func ingestPass(ctx context.Context, p ingestParams, sys *ingestSys, tr *tracer, rep *report) (*ingestLoop, dist, float64, float64, error) {
	lp, err := sys.loop(ctx, tr, rep)
	if err != nil {
		return nil, dist{}, 0, 0, err
	}
	fresh, err := freshness(lp.stamps, lp.stepsAfter, lp.pubs)
	rep.check("freshness_join", err == nil, "every measurement joined to a follower publish: %v", errOK(err))
	fd, mps := dist{p50: math.NaN(), p90: math.NaN(), p99: math.NaN()}, math.NaN()
	if err == nil {
		fd, mps = summarizeIngest(lp, fresh, p.ckptEvery)
	}
	sameAsTrainer(rep, sys)
	auc, err := sys.sess.AUC(ctx, p.aucPairs)
	if err != nil {
		return nil, dist{}, 0, 0, fmt.Errorf("AUC: %w", err)
	}
	return lp, fd, mps, auc, nil
}

func runIngest(ctx context.Context, cfg config, rep *report) error {
	p := ingestSizes(cfg)
	var setups, dsS, budS, bootS []float64
	var sys *ingestSys
	for i := 0; i < p.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var err error
		sys, err = setupIngest(ctx, cfg, p, filepath.Join(cfg.workdir, fmt.Sprintf("ingest-%d", i)), nil)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, sys.setupS)
		dsS = append(dsS, sys.datasetS)
		budS = append(budS, sys.budgetS)
		bootS = append(bootS, sys.bootstrapS)
	}
	lp, fd, mps, auc, err := ingestPass(ctx, p, sys, nil, rep)
	var rss float64
	if err == nil {
		checkAUC(rep, cfg, "ingest", auc)
		rss, err = peakRSSMB(0)
	}
	sys.close()
	if err != nil {
		return err
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["p50_ms"] = fd.p50
	rep.e2e["tail_ms"] = fd.p90
	rep.e2e["throughput"] = mps
	rep.e2e["auc"] = auc
	rep.printf("ingest: Meridian-%d, %d shards, k·n=%d per iteration, %d iterations, checkpoint every %d (base every %d), WAL segments of %d bytes, gossip every %v",
		p.nodes, p.shards, lp.kn, p.iters, p.ckptEvery, p.baseEvery, p.segBytes, gossipInterval)
	rep.printf("setup_s %.4f s (median of %d set-ups: %v); dataset %.4f s, budget training + first checkpoint %.4f s, follower bootstrap %.4f s",
		median(setups), len(setups), setups, median(dsS), median(budS), median(bootS))
	rep.printf("fresh_p50_ms %.4f ms, fresh_p90_ms %.4f ms, fresh_p99_ms %.4f ms (lower quartile over windows of %d iterations; n=%d measurements over %d iterations)",
		fd.p50, fd.p90, fd.p99, p.ckptEvery, fd.n, len(lp.stepsAfter))
	rep.printf("ingest_mps %.6g measurements/s (upper quartile over the same windows; %d measurements durable in %.3f s)", mps, lp.measurements, lp.elapsed.Seconds())
	rep.printf("auc %.17g (%d held-out pairs)", auc, p.aucPairs)
	rep.printf("peak_rss_mb %.4g MB (benchmark process, which hosts the system)", rss)

	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	tsys, err := setupIngest(ctx, cfg, p, filepath.Join(cfg.workdir, "ingest-traced"), tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer tsys.close()
	tlp, tfd, tmps, tauc, err := ingestPass(ctx, p, tsys, tr, rep)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	rep.check("auc_deterministic", tauc == auc, "traced pass auc %.17g, untraced %.17g", tauc, auc)
	rep.tracedE2E["setup_s"] = tsys.setupS
	rep.tracedE2E["peak_rss_mb"] = rss // the process peak cannot be split between passes
	rep.tracedE2E["p50_ms"] = tfd.p50
	rep.tracedE2E["tail_ms"] = tfd.p90
	rep.tracedE2E["throughput"] = tmps
	rep.tracedE2E["auc"] = tauc
	walNS, err := walAppendCost(ctx, cfg, p, tsys, tr, min(tlp.measurements, 1<<20))
	if err != nil {
		return fmt.Errorf("WAL replay: %w", err)
	}
	ingestLayers(rep, tr, tsys, tlp, tfd, walNS)
	rep.layers["setup.dataset_s"] = median(dsS)
	rep.layers["setup.budget_train_s"] = median(budS)
	rep.layers["setup.bootstrap_s"] = median(bootS)
	tr.report(rep)
	return writeTrace(cfg, tr, rep)
}

// sameAsTrainer checks follower ≡ trainer: after the drain the follower's
// snapshot is bitwise equal to the trainer's Session.Snapshot.
func sameAsTrainer(rep *report, sys *ingestSys) {
	ts := sys.sess.Snapshot()
	fs := sys.fol.serving.Load()
	if fs == nil || fs.Steps() != ts.Steps() || fs.N() != ts.N() || fs.Dim() != ts.Dim() {
		rep.check("follower_equals_trainer", false, "follower snapshot missing or at another step count")
		return
	}
	tu, tv := ts.Flat()
	fu, fv := fs.Flat()
	same := len(tu) == len(fu) && len(tv) == len(fv)
	for i := 0; same && i < len(tu); i++ {
		same = math.Float64bits(tu[i]) == math.Float64bits(fu[i]) && math.Float64bits(tv[i]) == math.Float64bits(fv[i])
	}
	sys.fol.mu.Lock()
	ferr := sys.fol.err
	sys.fol.mu.Unlock()
	rep.check("follower_equals_trainer", same && ferr == nil,
		"follower snapshot at step %d bitwise equal to the trainer's: %v (publish errors: %v)", fs.Steps(), same, errOK(ferr))
}

// walAppendCost measures the WAL layer by replaying WALSource.NextBatch on
// the same seeded stream into a scratch segment directory: its time minus
// the inner source's, per measurement.
func walAppendCost(ctx context.Context, cfg config, p ingestParams, sys *ingestSys, tr *tracer, total int64) (float64, error) {
	ms, err := dmfsgd.NewMatrixSource(sys.ds, 0, cfg.seed)
	if err != nil {
		return 0, err
	}
	inner := &stampSource{src: ms, span: "ingest.wal_replay.source", tr: tr, on: true}
	dir := filepath.Join(sys.dir, "wal-replay")
	defer os.RemoveAll(dir)
	wal, err := dmfsgd.WithWALDir(inner, dir, p.segBytes)
	if err != nil {
		return 0, err
	}
	buf := make([]dmfsgd.Measurement, 8192)
	var outer time.Duration
	for done := int64(0); done < total; {
		id := tr.id()
		inner.parent = id
		t0 := time.Now()
		n, err := wal.NextBatch(ctx, buf[:min(int64(len(buf)), total-done)])
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		tr.add("ingest.wal_replay", id, 0, t0, t1, int64(n))
		outer += t1.Sub(t0)
		done += int64(n)
	}
	return float64(outer-inner.dur) / float64(total), nil
}

// ingestLayers derives the per-layer metrics of a traced pass and prints
// the freshness residual line.
func ingestLayers(rep *report, tr *tracer, sys *ingestSys, lp *ingestLoop, fd dist, walNS float64) {
	var runSelf time.Duration
	var runItems int64
	var srcDur time.Duration
	var srcItems int64
	for _, lt := range tr.selfTimes() {
		switch lt.name {
		case "ingest.run":
			runSelf, runItems = lt.self, lt.items
		case "ingest.source":
			srcDur, srcItems = lt.total, lt.items
		}
	}
	L := rep.layers
	L["ingest.source_ns"] = float64(srcDur) / float64(srcItems)
	L["ingest.run_self_ns"] = float64(runSelf) / float64(runItems)
	L["ingest.wal_append_ns"] = walNS
	L["ingest.snapshot_ms"] = median(lp.snapMS)
	L["ingest.replica_update_ms"] = median(lp.updateMS)
	L["ingest.ckpt_save_ms.p50"] = median(sys.saveMS)
	L["ingest.ckpt_save_ms.max"] = maxOf(sys.saveMS)
	L["ingest.ckpt_bytes.base"] = median(sys.baseBytes)
	L["ingest.ckpt_bytes.delta"] = median(sys.deltaBytes)
	L["ingest.gc_pause_ms"] = lp.gcPauseMS

	// Gossip: wait runs from SetState to the trainer's first Delta send
	// after it; transfer from that send to the follower's publish that
	// serves the iteration.
	sends := sys.timed.records()
	idx := servedBy(lp.stepsAfter, lp.pubs)
	var waits, transfers, pubUS, deltaBytes []float64
	for _, s := range sends {
		if s.typ == wire.TypeDelta && !s.start.Before(lp.runStart[0]) {
			deltaBytes = append(deltaBytes, float64(s.bytes))
		}
	}
	waitOf := make([]float64, len(lp.setAt))
	transferOf := make([]float64, len(lp.setAt))
	pubOf := make([]float64, len(lp.setAt))
	for r, set := range lp.setAt {
		waitOf[r], transferOf[r] = math.NaN(), math.NaN()
		for _, s := range sends {
			if s.typ == wire.TypeDelta && !s.start.Before(set) {
				waitOf[r] = ms(s.start.Sub(set))
				if idx[r] >= 0 {
					transferOf[r] = ms(lp.pubs[idx[r]].end.Sub(s.start))
				}
				break
			}
		}
		if idx[r] >= 0 {
			pb := lp.pubs[idx[r]]
			pubOf[r] = ms(pb.end.Sub(pb.start))
		}
		if !math.IsNaN(waitOf[r]) {
			waits = append(waits, waitOf[r])
		}
		if !math.IsNaN(transferOf[r]) {
			transfers = append(transfers, transferOf[r])
		}
		pubUS = append(pubUS, pubOf[r]*1e3)
	}
	L["ingest.gossip_wait_ms"] = median(waits)
	L["ingest.gossip_transfer_ms"] = median(transfers)
	L["ingest.gossip_bytes"] = mean(deltaBytes)
	L["ingest.follower_publish_us"] = median(pubUS)

	// Residual: freshness p50 minus the p50 of each attributed part, each
	// weighted by the measurements it delays.
	var applyWait, snap, upd, wait, xfer, pub []wsample
	for _, s := range lp.stamps {
		r := s.iter
		applyWait = append(applyWait, wsample{ms(lp.runEnd[r].Sub(s.at)), s.n})
		snap = append(snap, wsample{lp.snapMS[r], s.n})
		upd = append(upd, wsample{lp.updateMS[r], s.n})
		if !math.IsNaN(waitOf[r]) {
			wait = append(wait, wsample{waitOf[r], s.n})
		}
		if !math.IsNaN(transferOf[r]) {
			xfer = append(xfer, wsample{transferOf[r], s.n})
		}
		pub = append(pub, wsample{pubOf[r], s.n})
	}
	parts := []struct {
		name string
		v    float64
	}{
		{"apply (stamp → Run returns)", wquantile(applyWait, 0.5)},
		{"snapshot", wquantile(snap, 0.5)},
		{"replica capture", wquantile(upd, 0.5)},
		{"gossip wait", wquantile(wait, 0.5)},
		{"gossip transfer", wquantile(xfer, 0.5)},
		{"follower publish", wquantile(pub, 0.5)},
	}
	sum := 0.0
	line := ""
	for _, pt := range parts {
		sum += pt.v
		line += fmt.Sprintf(" + %s %.4f", pt.name, pt.v)
	}
	L["ingest.fresh_residual_ms"] = fd.p50 - sum
	rep.printf("residual fresh_p50_ms: traced %.4f ms (n=%d) =%s + residual %.4f; untraced %.4f ms, tracing overhead %+.4f ms",
		fd.p50, fd.n, line[2:], fd.p50-sum, rep.e2e["p50_ms"], fd.p50-rep.e2e["p50_ms"])
	rep.printf("ingest apply (run self − WAL append) ≈ %.4g ns per measurement", L["ingest.run_self_ns"]-walNS)
}

func maxOf(vs []float64) float64 {
	m := math.NaN()
	for _, v := range vs {
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}
