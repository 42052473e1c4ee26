package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dmfsgd"
)

// The train workload is the path dmfbench experiments take: offline
// epochs on the parallel epoch scheduler over a sharded store. It is the
// only workload that runs the scheduler's worker pool and the mailbox
// routing of ABW target updates; it touches no HTTP, WAL or replica code.

type trainParams struct {
	nodes, shards int
	epochs        int // fixed work, so the final model is deterministic
	probes        int // probes per node per epoch
	setups        int
	aucPairs      int
}

func trainSizes(cfg config) trainParams {
	if cfg.toy {
		return trainParams{nodes: 60, shards: 4, epochs: 1000, probes: 8, setups: 1, aucPairs: 500}
	}
	return trainParams{nodes: 2000, shards: 8, epochs: 50 * cfg.seconds, probes: 32, setups: 3, aucPairs: 100000}
}

// trainSetup builds the dataset and the session: HP-S3-like available
// bandwidth, sharded, one worker per CPU.
func trainSetup(cfg config, p trainParams) (*dmfsgd.Session, float64, float64, error) {
	t0 := time.Now()
	ds := dmfsgd.NewHPS3Dataset(p.nodes, cfg.seed)
	t1 := time.Now()
	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(cfg.seed), dmfsgd.WithShards(p.shards),
		dmfsgd.WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, 0, 0, err
	}
	return sess, time.Since(t0).Seconds(), t1.Sub(t0).Seconds(), nil
}

// trainPass is one measured pass over the epochs.
type trainPass struct {
	epochMS   []float64
	epochUps  []int
	allocs    []float64
	updates   int64
	elapsed   time.Duration
	gcPauseMS float64
}

func trainLoop(ctx context.Context, sess *dmfsgd.Session, p trainParams, tr *tracer, rep *report) (*trainPass, error) {
	out := &trainPass{}
	pause0 := gcPauseSeconds()
	start := time.Now()
	for e := 0; e < p.epochs; e++ {
		var a0 uint64
		if tr != nil {
			a0 = heapAllocs()
		}
		t0 := time.Now()
		rep.attempted++
		n, err := sess.RunEpochs(ctx, 1, p.probes)
		t1 := time.Now()
		if err != nil {
			rep.failed++
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		if tr != nil {
			out.allocs = append(out.allocs, float64(heapAllocs()-a0))
		}
		tr.add("train.epoch", 0, 0, t0, t1, int64(n))
		out.updates += int64(n)
		out.epochMS = append(out.epochMS, ms(t1.Sub(t0)))
		out.epochUps = append(out.epochUps, n)
	}
	out.elapsed = time.Since(start)
	out.gcPauseMS = (gcPauseSeconds() - pause0) * 1e3
	return out, nil
}

// trainWindows is how many windows a pass is split into for its medians.
const trainWindows = 5

// summary returns the epoch time and the update rate of the quieter
// windows of consecutive epochs (quietQ).
func (tp *trainPass) summary() (dist, float64) {
	size := max(1, len(tp.epochMS)/trainWindows)
	var win windowed
	var rates []float64
	for lo := 0; lo < len(tp.epochMS); lo += size {
		hi := min(lo+size, len(tp.epochMS))
		win = append(win, values(tp.epochMS[lo:hi]))
		ups, dur := 0, 0.0
		for e := lo; e < hi; e++ {
			ups += tp.epochUps[e]
			dur += tp.epochMS[e]
		}
		rates = append(rates, float64(ups)/(dur/1e3))
	}
	return win.summary(), quietRate(rates)
}

func runTrain(ctx context.Context, cfg config, rep *report) error {
	p := trainSizes(cfg)
	var setups, dsS []float64
	var sess *dmfsgd.Session
	for i := 0; i < p.setups; i++ {
		if sess != nil {
			sess.Close()
			sess = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		s, total, dsTime, err := trainSetup(cfg, p)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		sess = s
		setups = append(setups, total)
		dsS = append(dsS, dsTime)
	}
	pass, err := trainLoop(ctx, sess, p, nil, rep)
	if err != nil {
		sess.Close()
		return err
	}
	auc, err := sess.AUC(ctx, p.aucPairs)
	sess.Close()
	if err != nil {
		return fmt.Errorf("AUC: %w", err)
	}
	checkAUC(rep, cfg, "train", auc)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	ed, ups := pass.summary()
	rep.check("updates", pass.updates > 0, "%d updates over %d epochs", pass.updates, p.epochs)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["p50_ms"] = ed.p50
	rep.e2e["tail_ms"] = ed.p90
	rep.e2e["throughput"] = ups
	rep.e2e["auc"] = auc
	rep.printf("train: HP-S3-like ABW, %d nodes, %d shards, %d workers, %d epochs of %d probes per node",
		p.nodes, p.shards, runtime.GOMAXPROCS(0), p.epochs, p.probes)
	rep.printf("setup_s %.4f s (median of %d set-ups: %v); dataset %.4f s", median(setups), len(setups), setups, median(dsS))
	rep.printf("epoch_ms %s (lower quartile over %d windows of epochs)", ed, trainWindows)
	rep.printf("train_ups %.6g updates/s (upper quartile over the same windows; %d updates in %.3f s)", ups, pass.updates, pass.elapsed.Seconds())
	rep.printf("auc %.17g (%d held-out pairs)", auc, p.aucPairs)
	rep.printf("peak_rss_mb %.4g MB (benchmark process, which hosts the system)", rss)

	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	runtime.GC()
	debug.FreeOSMemory()
	tsess, tsetup, _, err := trainSetup(cfg, p)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer tsess.Close()
	tpass, err := trainLoop(ctx, tsess, p, tr, rep)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	tauc, err := tsess.AUC(ctx, p.aucPairs)
	if err != nil {
		return fmt.Errorf("traced AUC: %w", err)
	}
	rep.check("auc_deterministic", tauc == auc, "traced pass auc %.17g, untraced %.17g", tauc, auc)
	ted, tups := tpass.summary()
	rep.tracedE2E["setup_s"] = tsetup
	rep.tracedE2E["peak_rss_mb"] = rss // the process peak cannot be split between passes
	rep.tracedE2E["p50_ms"] = ted.p50
	rep.tracedE2E["tail_ms"] = ted.p90
	rep.tracedE2E["throughput"] = tups
	rep.tracedE2E["auc"] = tauc
	L := rep.layers
	L["train.gc_pause_ms"] = tpass.gcPauseMS
	all := summarize(tpass.epochMS)
	L["train.epoch_ms.p50"] = all.p50
	L["train.epoch_ms.p90"] = all.p90
	L["train.allocs_per_epoch"] = mean(tpass.allocs)
	L["setup.dataset_s"] = median(dsS)
	rep.printf("traced epoch_ms over all epochs: %s; allocs per epoch %.4g", all, mean(tpass.allocs))
	tr.report(rep)
	return writeTrace(cfg, tr, rep)
}
