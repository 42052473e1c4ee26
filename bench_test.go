// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment, quick-scale datasets) plus the ablation studies from
// DESIGN.md §5. Each benchmark measures the wall-clock cost of the full
// experiment and, where a single quality number is meaningful, reports it
// via b.ReportMetric (auc, accuracy, stretch).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The printable tables themselves come from cmd/dmfbench; these benches
// exist so `go test -bench` exercises every experiment end-to-end.
package dmfsgd_test

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dmfsgd"
	"dmfsgd/internal/batch"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/engine"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/experiments"
	"dmfsgd/internal/loss"
	"dmfsgd/internal/multiclass"
	"dmfsgd/internal/replica"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
	"dmfsgd/internal/wire"
)

// percentileOf computes a percentile over a copy of vals.
func percentileOf(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

var (
	benchBundleOnce sync.Once
	benchBundle     *experiments.Bundle
)

// bundle returns the shared quick-scale dataset bundle. Dataset generation
// happens once, outside any timed region.
func bundle(b *testing.B) *experiments.Bundle {
	benchBundleOnce.Do(func() {
		benchBundle = experiments.NewBundle(experiments.Quick())
		benchBundle.Harvard()
		benchBundle.Meridian()
		benchBundle.HPS3()
	})
	return benchBundle
}

// lastCell parses the last column of the last row of a table as a float —
// the convention all experiment tables follow for their "final" value.
func lastCell(b *testing.B, t experiments.Table) float64 {
	row := t.Rows[len(t.Rows)-1]
	s := strings.TrimSuffix(row[len(row)-1], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func BenchmarkFigure1(b *testing.B) {
	bb := bundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := experiments.Figure1(bb)
		if len(tables[0].Rows) != 20 {
			b.Fatal("unexpected spectrum length")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure3(bb)
	}
}

func BenchmarkFigure4a(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure4a(bb)
	}
}

func BenchmarkFigure4b(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure4b(bb)
	}
}

func BenchmarkFigure4c(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure4c(bb)
	}
}

func BenchmarkFigure5(b *testing.B) {
	bb := bundle(b)
	var finalAUC float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := experiments.Figure5(bb)
		finalAUC = lastCell(b, tables[2]) // hp-s3 AUC at 50×k
	}
	b.ReportMetric(finalAUC, "auc")
}

func BenchmarkFigure6(b *testing.B) {
	bb := bundle(b)
	var auc15 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := experiments.Figure6(bb)
		auc15 = lastCell(b, tables[0]) // harvard, good-to-bad at 15%
	}
	b.ReportMetric(auc15, "auc-at-15pct-errors")
}

func BenchmarkFigure7(b *testing.B) {
	bb := bundle(b)
	var noisyUnsat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := experiments.Figure7(bb)
		noisyUnsat = lastCell(b, tables[1]) // harvard satisfaction, noisy cls
	}
	b.ReportMetric(noisyUnsat, "unsat-pct")
}

func BenchmarkTable1(b *testing.B) {
	bb := bundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1(bb)
	}
}

func BenchmarkTable2(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2(bb)
	}
}

func BenchmarkTable3(b *testing.B) {
	bb := bundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table3(bb)
	}
}

// --- Ablations (DESIGN.md §5) ---

// ablationAUC trains one spec on Meridian and reports the test AUC.
func ablationAUC(b *testing.B, mutate func(*experiments.RunSpec)) {
	bb := bundle(b)
	ds := bb.Meridian()
	var auc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := experiments.RunSpec{DS: ds, Seed: int64(i)}
		if mutate != nil {
			mutate(&spec)
		}
		drv, err := bb.Train(spec)
		if err != nil {
			b.Fatal(err)
		}
		auc = drv.AUCSample(bb.O.EvalPairs)
	}
	b.ReportMetric(auc, "auc")
}

func BenchmarkAblationLossLogistic(b *testing.B) {
	ablationAUC(b, nil)
}

func BenchmarkAblationLossHinge(b *testing.B) {
	ablationAUC(b, func(s *experiments.RunSpec) {
		s.SGD = simDefaults()
		s.SGD.Loss = loss.Hinge
	})
}

func BenchmarkAblationLossL2OnClasses(b *testing.B) {
	ablationAUC(b, func(s *experiments.RunSpec) {
		s.SGD = simDefaults()
		s.SGD.Loss = loss.L2
	})
}

func BenchmarkAblationLambdaZero(b *testing.B) {
	ablationAUC(b, func(s *experiments.RunSpec) {
		s.SGD = simDefaults()
		s.SGD.Lambda = 0
		s.SGD.MaxCoord = 1e6
	})
}

func BenchmarkAblationSymmetry(b *testing.B) {
	ablationAUC(b, func(s *experiments.RunSpec) { s.ForceAsymmetric = true })
}

func BenchmarkAblationClassVsQuantity(b *testing.B) {
	// Quantity-based training at the same budget; AUC computed by the
	// ablation table (rank direction corrected there), so here we report
	// the run cost plus raw driver AUC on negated scores.
	bb := bundle(b)
	ds := bb.Meridian()
	var auc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := experiments.RunSpec{DS: ds, Quantity: true, Seed: int64(i)}
		spec.SGD = simDefaults()
		spec.SGD.Loss = loss.L2
		drv, err := bb.Train(spec)
		if err != nil {
			b.Fatal(err)
		}
		labels, scores := drv.EvalSet(bb.O.EvalPairs)
		for k := range scores {
			scores[k] = -scores[k] // RTT: low quantity = good
		}
		auc = aucOf(labels, scores)
	}
	b.ReportMetric(auc, "auc")
}

func BenchmarkBaselineVivaldi(b *testing.B) {
	bb := bundle(b)
	var tbl []experiments.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl = experiments.Ablations(bb)
	}
	b.ReportMetric(lastCell(b, tbl[0]), "vivaldi-auc")
}

func BenchmarkConsensusFilter(b *testing.B) {
	bb := bundle(b)
	var plain, filtered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, filtered = experiments.ConsensusAblation(bb, 0.30, 9)
	}
	b.ReportMetric(plain, "auc-unfiltered")
	b.ReportMetric(filtered, "auc-filtered")
}

func BenchmarkDynamicsTracking(b *testing.B) {
	bb := bundle(b)
	var recovered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := experiments.DynamicsTracking(bb)
		recovered = lastCell(b, tables[0]) // AUC vs new truth at the end
	}
	b.ReportMetric(recovered, "auc-after-recovery")
}

func BenchmarkMulticlass(b *testing.B) {
	bb := bundle(b)
	ds := bb.Meridian()
	vals := ds.Values()
	cfg := multiclass.Config{
		SGD: sgd.Defaults(),
		Thresholds: []float64{
			percentileOf(vals, 25), percentileOf(vals, 50), percentileOf(vals, 75),
		},
		Metric: ds.Metric,
	}
	var exact float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := multiclass.RunSim(ds, cfg, bb.K(ds), 20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		exact = res.Accuracy.Exact
	}
	b.ReportMetric(exact, "exact-accuracy")
}

func BenchmarkCentralizedBaseline(b *testing.B) {
	// Cost of the centralized architecture the paper decentralizes
	// (§4.3): full batch factorization over the same observed entries.
	bb := bundle(b)
	ds := bb.Meridian()
	labels := classify.Matrix(ds, ds.Median())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := batch.Defaults()
		cfg.Seed = int64(i)
		if _, err := batch.Fit(labels, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core protocol micro-benchmarks ---

func BenchmarkProtocolStepRTT(b *testing.B) {
	bb := bundle(b)
	ds := bb.Meridian()
	drv, err := bb.Train(experiments.RunSpec{DS: ds, BudgetPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Step()
	}
}

func BenchmarkProtocolStepABW(b *testing.B) {
	bb := bundle(b)
	ds := bb.HPS3()
	drv, err := bb.Train(experiments.RunSpec{DS: ds, BudgetPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Step()
	}
}

// --- Engine benchmarks (sharded parallel epoch training + evaluation) ---
//
// These track the perf trajectory of the internal/engine layer at
// Meridian scale: the same epoch budget and the same evaluation sweep at
// shard counts 1/4/8. On a multi-core host the 4- and 8-shard variants
// must beat the single shard; results are bit-identical across shard
// counts at fixed seed, so quality never enters the comparison.

var (
	benchMeridianMu sync.Mutex
	benchMeridian   = map[int]*dataset.Dataset{}
)

// meridianSized returns a cached Meridian dataset with n nodes (generated
// once per process, outside any timed region).
func meridianSized(n int) *dataset.Dataset {
	benchMeridianMu.Lock()
	defer benchMeridianMu.Unlock()
	ds, ok := benchMeridian[n]
	if !ok {
		ds = dataset.Meridian(dataset.MeridianConfig{N: n, Seed: 1})
		benchMeridian[n] = ds
	}
	return ds
}

// engineDriver builds a Meridian class driver with the given parallelism.
func engineDriver(b *testing.B, n, shards int) *sim.Driver {
	b.Helper()
	ds := meridianSized(n)
	drv, err := sim.ClassDriver(ds, ds.Median(), sim.Config{
		SGD:     sgd.Defaults(),
		K:       32,
		Shards:  shards,
		Workers: shards,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return drv
}

// benchEngineEpoch measures one full training epoch (32 probes per node)
// across the shard pool.
func benchEngineEpoch(b *testing.B, n, shards int) {
	benchEpochs(b, engineDriver(b, n, shards))
}

// benchEpochs times one 32-probe epoch per iteration, after a warm-up
// epoch of the same size that builds the per-node RNG streams and the
// snapshot buffers and grows the mailboxes and the drain scratch.
func benchEpochs(b *testing.B, drv *sim.Driver) {
	drv.RunEpochs(1, 32)
	warm := drv.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.RunEpochs(1, 32)
	}
	b.ReportMetric(float64(drv.Steps()-warm)/b.Elapsed().Seconds(), "updates/s")
}

func BenchmarkEngineEpochMeridian1000Shards1(b *testing.B) { benchEngineEpoch(b, 1000, 1) }
func BenchmarkEngineEpochMeridian1000Shards4(b *testing.B) { benchEngineEpoch(b, 1000, 4) }
func BenchmarkEngineEpochMeridian1000Shards8(b *testing.B) { benchEngineEpoch(b, 1000, 8) }
func BenchmarkEngineEpochMeridian2500Shards1(b *testing.B) { benchEngineEpoch(b, 2500, 1) }
func BenchmarkEngineEpochMeridian2500Shards4(b *testing.B) { benchEngineEpoch(b, 2500, 4) }
func BenchmarkEngineEpochMeridian2500Shards8(b *testing.B) { benchEngineEpoch(b, 2500, 8) }

var (
	benchHPS3Once sync.Once
	benchHPS3     *dataset.Dataset
)

// benchEngineEpochHPS3 measures one ABW epoch in the perfbench train
// configuration: the HP-S3-like dataset at 2000 nodes, k = 10 neighbors,
// 32 probes per node, one worker per CPU. The Meridian epochs above are
// symmetric and never route an update; here every probe routes its
// target update (eq. 13) through the shard mailboxes to the epoch
// barrier's drain.
func benchEngineEpochHPS3(b *testing.B, shards int) {
	benchHPS3Once.Do(func() { benchHPS3 = dataset.HPS3(dataset.HPS3Config{N: 2000, Seed: 1}) })
	drv, err := sim.ClassDriver(benchHPS3, benchHPS3.Median(), sim.Config{
		SGD:    sgd.Defaults(),
		K:      benchHPS3.DefaultK,
		Shards: shards,
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchEpochs(b, drv)
}

func BenchmarkEngineEpochHPS3_2000Shards1(b *testing.B) { benchEngineEpochHPS3(b, 1) }
func BenchmarkEngineEpochHPS3_2000Shards8(b *testing.B) { benchEngineEpochHPS3(b, 8) }

// benchEngineEval measures one full evaluation sweep (label + score for
// every held-out pair, block-parallel) after a single training epoch.
func benchEngineEval(b *testing.B, n, shards int) {
	drv := engineDriver(b, n, shards)
	drv.RunEpochs(1, 32)
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		labels, _ := drv.EvalSet(0)
		pairs = len(labels)
	}
	b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkEngineEvalMeridian1000Workers1(b *testing.B) { benchEngineEval(b, 1000, 1) }
func BenchmarkEngineEvalMeridian1000Workers4(b *testing.B) { benchEngineEval(b, 1000, 4) }
func BenchmarkEngineEvalMeridian1000Workers8(b *testing.B) { benchEngineEval(b, 1000, 8) }
func BenchmarkEngineEvalMeridian2500Workers1(b *testing.B) { benchEngineEval(b, 2500, 1) }
func BenchmarkEngineEvalMeridian2500Workers4(b *testing.B) { benchEngineEval(b, 2500, 4) }
func BenchmarkEngineEvalMeridian2500Workers8(b *testing.B) { benchEngineEval(b, 2500, 8) }

// --- Snapshot serving benchmarks (PredictBatch / Rank throughput) ---
//
// The serving path of the Session API: an immutable Snapshot answers
// batch predictions and peer rankings with zero lock acquisitions, so
// throughput must scale with reader goroutines until memory bandwidth.
// These join the engine benchmarks as the perf trajectory of the serving
// tier (pairs/s and ranked candidates/s at 1/4/8 concurrent readers).

var (
	servingSnapOnce sync.Once
	servingSnap     *dmfsgd.Snapshot
)

// snapshotForServing trains one Meridian-1000 session with the parallel
// epoch engine and freezes it (done once, outside every timed region).
func snapshotForServing(b *testing.B) *dmfsgd.Snapshot {
	b.Helper()
	servingSnapOnce.Do(func() {
		ds := meridianSized(1000)
		sess, err := dmfsgd.NewSession(ds,
			dmfsgd.WithK(32),
			dmfsgd.WithShards(8),
			dmfsgd.WithSeed(1),
		)
		if err != nil {
			panic(err)
		}
		defer sess.Close()
		if _, err := sess.RunEpochs(context.Background(), 20, 32); err != nil {
			panic(err)
		}
		servingSnap = sess.Snapshot()
	})
	return servingSnap
}

// benchSnapshotPredictBatch measures batch-prediction throughput with the
// given number of concurrent reader goroutines, each scoring its own
// random pair batch into a caller-owned buffer (no allocations, no
// locks — contention can only come from the memory system).
func benchSnapshotPredictBatch(b *testing.B, readers int) {
	snap := snapshotForServing(b)
	const batchLen = 8192
	pairs := make([][]dmfsgd.PathPair, readers)
	scores := make([][]float64, readers)
	for r := range pairs {
		rng := rand.New(rand.NewSource(int64(r + 1)))
		pairs[r] = make([]dmfsgd.PathPair, batchLen)
		for k := range pairs[r] {
			pairs[r][k] = dmfsgd.PathPair{I: rng.Intn(snap.N()), J: rng.Intn(snap.N())}
		}
		scores[r] = make([]float64, batchLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				snap.PredictBatch(pairs[r], scores[r])
			}(r)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N)*float64(readers)*batchLen/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkSnapshotPredictBatchReaders1(b *testing.B) { benchSnapshotPredictBatch(b, 1) }
func BenchmarkSnapshotPredictBatchReaders4(b *testing.B) { benchSnapshotPredictBatch(b, 4) }
func BenchmarkSnapshotPredictBatchReaders8(b *testing.B) { benchSnapshotPredictBatch(b, 8) }

// benchSnapshotRank measures the §6.4 peer-ranking primitive: each reader
// repeatedly ranks a 256-candidate set for a rotating source node.
func benchSnapshotRank(b *testing.B, readers int) {
	snap := snapshotForServing(b)
	const candidateCount = 256
	candidates := make([][]int, readers)
	for r := range candidates {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		candidates[r] = make([]int, candidateCount)
		for k := range candidates[r] {
			candidates[r][k] = rng.Intn(snap.N())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				snap.Rank((i+r)%snap.N(), candidates[r])
			}(r)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N)*float64(readers)*candidateCount/b.Elapsed().Seconds(), "candidates/s")
}

func BenchmarkSnapshotRankReaders1(b *testing.B) { benchSnapshotRank(b, 1) }
func BenchmarkSnapshotRankReaders4(b *testing.B) { benchSnapshotRank(b, 4) }
func BenchmarkSnapshotRankReaders8(b *testing.B) { benchSnapshotRank(b, 8) }

// --- Replication tier benchmarks (delta vs full snapshot refresh) ---
//
// The follower refresh path of internal/replica at Meridian-2500 scale:
// decode an inbound wire.Delta and materialize the next immutable state.
// The delta variant ships and re-attaches one advanced shard of eight and
// shares the other seven blocks; the full variant rebuilds everything (the
// PR 2 behavior, and still the bootstrap cost). On any host the delta
// refresh must move ~1/8 of the bytes and allocations of the full one.

// replicaBenchSetup builds a 2500-node 8-shard state, advances one shard,
// and returns the base state plus the encoded delta and full refreshes.
func replicaBenchSetup(b *testing.B) (base *replica.State, deltaBuf, fullBuf []byte) {
	b.Helper()
	const n, rank, shards = 2500, 10, 8
	store := engine.NewStore(n, rank, shards)
	store.InitUniform(rand.New(rand.NewSource(1)))
	capture := func(prev *replica.State, steps uint64) *replica.State {
		u, v := store.SnapshotFlat()
		st, err := replica.Update(prev, n, rank, shards,
			replica.Meta{Steps: steps, Tau: 50}, store.Versions(nil), u, v)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	base = capture(nil, 1)
	// Advance shard 3 only, as a quiet serving tier between refreshes would.
	store.Ref(3).Update(func(c *sgd.Coordinates) bool { c.U[0] += 0.5; return true })
	next := capture(base, 2)
	encode := func(shards []uint16) []byte {
		ds, err := next.DeltasFor(1, shards, 0)
		if err != nil || len(ds) != 1 {
			b.Fatalf("%d frames, %v", len(ds), err)
		}
		buf, err := wire.AppendDelta(nil, ds[0])
		if err != nil {
			b.Fatal(err)
		}
		return buf
	}
	all := make([]uint16, shards)
	for p := range all {
		all[p] = uint16(p)
	}
	return base, encode([]uint16{3}), encode(all)
}

func BenchmarkSnapshotDeltaRefresh(b *testing.B) {
	base, deltaBuf, _ := replicaBenchSetup(b)
	b.SetBytes(int64(len(deltaBuf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d wire.Delta
		if err := wire.DecodeDelta(deltaBuf, &d); err != nil {
			b.Fatal(err)
		}
		if _, applied, err := replica.Apply(base, &d); err != nil || applied != 1 {
			b.Fatalf("applied=%d err=%v", applied, err)
		}
	}
}

func BenchmarkSnapshotFullRefresh(b *testing.B) {
	_, _, fullBuf := replicaBenchSetup(b)
	b.SetBytes(int64(len(fullBuf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d wire.Delta
		if err := wire.DecodeDelta(fullBuf, &d); err != nil {
			b.Fatal(err)
		}
		if _, applied, err := replica.Apply(nil, &d); err != nil || applied != 8 {
			b.Fatalf("applied=%d err=%v", applied, err)
		}
	}
}

// --- Checkpoint save benchmarks (full record vs delta record) ---
//
// What a periodic checkpoint costs a long-running trainer at
// Meridian-2500 scale when little moved between saves: the full
// variant rewrites the entire 2·n·r state every time (SaveCheckpoint),
// the delta variant writes only the shards whose version advanced —
// here 1 of 8, the quiet-trainer shape a CheckpointChain is built for.

// checkpointBenchSetup builds consecutive 2500-node 8-shard captures
// with one advanced shard between them.
func checkpointBenchSetup(b *testing.B) (next *ckpt.Checkpoint, prevVers []uint64) {
	b.Helper()
	const n, rank, shards = 2500, 10, 8
	store := engine.NewStore(n, rank, shards)
	store.InitUniform(rand.New(rand.NewSource(1)))
	prevVers = store.Versions(nil)
	store.Ref(3).Update(func(c *sgd.Coordinates) bool { c.U[0] += 0.5; return true })
	next = &ckpt.Checkpoint{
		N: n, Rank: rank, Shards: shards, K: 32,
		Steps: 2, Seed: 1, Draws: 9, Tau: 50,
		Eta: 0.05, Lambda: 0.01,
		Vers: make([]uint64, shards),
		U:    make([][]float64, shards),
		V:    make([][]float64, shards),
	}
	for p := range next.Vers {
		next.U[p] = make([]float64, store.ShardNodeCount(p)*rank)
		next.V[p] = make([]float64, store.ShardNodeCount(p)*rank)
		next.Vers[p] = store.SnapshotShardBlock(p, next.U[p], next.V[p])
	}
	return next, prevVers
}

func BenchmarkCheckpointFull(b *testing.B) {
	next, _ := checkpointBenchSetup(b)
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, next); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ckpt.Write(&buf, next); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointDelta(b *testing.B) {
	next, prevVers := checkpointBenchSetup(b)
	var full, buf bytes.Buffer
	if err := ckpt.Write(&full, next); err != nil {
		b.Fatal(err)
	}
	if err := ckpt.WriteDelta(&buf, next, prevVers); err != nil {
		b.Fatal(err)
	}
	// The point of the delta format: a quiet save (1 of 8 shards
	// advanced) writes a small fraction of the full record.
	if buf.Len()*5 > full.Len() {
		b.Fatalf("delta record %d bytes vs full %d: expected ≥5x savings", buf.Len(), full.Len())
	}
	b.ReportMetric(float64(full.Len())/float64(buf.Len()), "full/delta-bytes")
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ckpt.WriteDelta(&buf, next, prevVers); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Follower publish benchmarks (full validation vs shared blocks) ---
//
// What a dmfserve follower pays to publish a fresh serving snapshot
// after applying one gossip delta (1 of 8 shards advanced) at
// Meridian-2500 scale. Both variants alias the state's immutable
// per-shard blocks. The full variant has no previous snapshot, so it
// re-validates the entire 2·n·r state (a follower's first publish). The
// delta variant is the steady-state path: it re-validates only the
// blocks not shared with the previously published snapshot —
// O(advanced shards) instead of O(n).

// followerPublishSetup builds consecutive 2500-node 8-shard states with
// one advanced shard, plus the snapshot published from the base state.
func followerPublishSetup(b *testing.B) (base, next *replica.State, prevSnap *dmfsgd.Snapshot) {
	b.Helper()
	const n, rank, shards = 2500, 10, 8
	store := engine.NewStore(n, rank, shards)
	store.InitUniform(rand.New(rand.NewSource(1)))
	capture := func(prev *replica.State, steps uint64) *replica.State {
		u, v := store.SnapshotFlat()
		st, err := replica.Update(prev, n, rank, shards,
			replica.Meta{Steps: steps, Tau: 50}, store.Versions(nil), u, v)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	base = capture(nil, 1)
	store.Ref(3).Update(func(c *sgd.Coordinates) bool { c.U[0] += 0.5; return true })
	next = capture(base, 2)
	bu, bv := base.Blocks()
	snap, err := dmfsgd.NewSnapshotBlocks(dmfsgd.Metric(base.Meta.Metric), base.Meta.Tau,
		int(base.Meta.Steps), rank, n, shards, bu, bv, base.Vers(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return base, next, snap
}

func BenchmarkFollowerPublishFull(b *testing.B) {
	_, next, _ := followerPublishSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu, bv := next.Blocks()
		if _, err := dmfsgd.NewSnapshotBlocks(dmfsgd.Metric(next.Meta.Metric), next.Meta.Tau,
			int(next.Meta.Steps), next.Rank, next.N, next.Shards, bu, bv, next.Vers(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFollowerPublishDelta(b *testing.B) {
	_, next, prevSnap := followerPublishSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu, bv := next.Blocks()
		if _, err := dmfsgd.NewSnapshotBlocks(dmfsgd.Metric(next.Meta.Metric), next.Meta.Tau,
			int(next.Meta.Steps), next.Rank, next.N, next.Shards, bu, bv, next.Vers(), prevSnap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSnapshotQuiescent measures the version-aware Snapshot
// path with nothing to refresh: the session returns the previously
// materialized snapshot after comparing version vectors — zero copying,
// which is what makes per-request snapshotting viable for serving loops.
func BenchmarkSessionSnapshotQuiescent(b *testing.B) {
	ds := meridianSized(1000)
	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithK(32), dmfsgd.WithShards(8), dmfsgd.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunEpochs(context.Background(), 2, 32); err != nil {
		b.Fatal(err)
	}
	sess.Snapshot() // materialize once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sess.Snapshot() == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// --- Ingest benchmarks (Source → engine measurement throughput) ---
//
// The ingestion trajectory: measurements per second through the full
// seam — source sampling or NDJSON parsing, topology filter, label
// classification, and the engine's sharded batch apply — at Meridian
// 1000/2500 across 1/4/8 shards. These extend the engine-epoch series
// with the cost of the stream in front of the engine.

// benchEpochBatches drains count measurements from src into epoch-sized
// engine batches (n·32 samples each) through the same filter+classify
// path Session uses, returning the batches.
func benchEpochBatches(b *testing.B, drv *sim.Driver, ds *dataset.Dataset, src dmfsgd.Source, count int) [][]engine.Sample {
	b.Helper()
	tau := ds.Median()
	epoch := ds.N() * 32
	buf := make([]dmfsgd.Measurement, 8192)
	var batches [][]engine.Sample
	batch := make([]engine.Sample, 0, epoch)
	drained := 0
	for drained < count {
		want := len(buf)
		if r := count - drained; r < want {
			want = r
		}
		k, err := src.NextBatch(context.Background(), buf[:want])
		if err != nil {
			b.Fatal(err)
		}
		drained += k
		for _, m := range buf[:k] {
			if !drv.IsNeighbor(m.I, m.J) {
				continue
			}
			batch = append(batch, engine.Sample{I: m.I, J: m.J, Label: classify.Of(ds.Metric, m.Value, tau).Value()})
			if len(batch) == epoch {
				batches = append(batches, batch)
				batch = make([]engine.Sample, 0, epoch)
			}
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches
}

// benchSourceMatrix: endless matrix sampling drained into epoch batches
// and applied through the sharded batch path, end to end per iteration.
func benchSourceMatrix(b *testing.B, n, shards int) {
	ds := meridianSized(n)
	drv := engineDriver(b, n, shards)
	src, err := dmfsgd.NewMatrixSource(ds, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	drv.RunEpochs(1, 1) // warm the epoch state outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, batch := range benchEpochBatches(b, drv, ds, src, n*32) {
			applied, err := drv.ApplyBatchCtx(context.Background(), batch)
			if err != nil {
				b.Fatal(err)
			}
			total += applied
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "meas/s")
}

func BenchmarkSourceMatrixMeridian1000Shards1(b *testing.B) { benchSourceMatrix(b, 1000, 1) }
func BenchmarkSourceMatrixMeridian1000Shards4(b *testing.B) { benchSourceMatrix(b, 1000, 4) }
func BenchmarkSourceMatrixMeridian1000Shards8(b *testing.B) { benchSourceMatrix(b, 1000, 8) }
func BenchmarkSourceMatrixMeridian2500Shards1(b *testing.B) { benchSourceMatrix(b, 2500, 1) }
func BenchmarkSourceMatrixMeridian2500Shards4(b *testing.B) { benchSourceMatrix(b, 2500, 4) }
func BenchmarkSourceMatrixMeridian2500Shards8(b *testing.B) { benchSourceMatrix(b, 2500, 8) }

var (
	benchStreamMu sync.Mutex
	benchStream   = map[int][]byte{}
)

// benchStreamNDJSON caches one epoch's worth of captured measurements
// (n·32 records) as NDJSON per node count, generated once outside every
// timed region.
func benchStreamNDJSON(b *testing.B, n int) []byte {
	b.Helper()
	benchStreamMu.Lock()
	defer benchStreamMu.Unlock()
	if data, ok := benchStream[n]; ok {
		return data
	}
	ds := meridianSized(n)
	src, err := dmfsgd.NewMatrixSource(ds, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]dmfsgd.Measurement, n*32)
	if _, err := src.NextBatch(context.Background(), buf); err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	if err := dmfsgd.WriteMeasurements(&out, buf); err != nil {
		b.Fatal(err)
	}
	benchStream[n] = out.Bytes()
	return benchStream[n]
}

// benchSourceReplay: a captured NDJSON stream parsed, filtered and
// applied through the sharded batch path — the deterministic-replay
// ingest pipeline, end to end per iteration.
func benchSourceReplay(b *testing.B, n, shards int) {
	ds := meridianSized(n)
	drv := engineDriver(b, n, shards)
	data := benchStreamNDJSON(b, n)
	drv.RunEpochs(1, 1) // warm the epoch state outside the timed region
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		src := dmfsgd.NewStreamSource(bytes.NewReader(data))
		for _, batch := range benchEpochBatches(b, drv, ds, src, n*32) {
			applied, err := drv.ApplyBatchCtx(context.Background(), batch)
			if err != nil {
				b.Fatal(err)
			}
			total += applied
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "meas/s")
}

func BenchmarkSourceReplayMeridian1000Shards1(b *testing.B) { benchSourceReplay(b, 1000, 1) }
func BenchmarkSourceReplayMeridian1000Shards4(b *testing.B) { benchSourceReplay(b, 1000, 4) }
func BenchmarkSourceReplayMeridian1000Shards8(b *testing.B) { benchSourceReplay(b, 1000, 8) }
func BenchmarkSourceReplayMeridian2500Shards1(b *testing.B) { benchSourceReplay(b, 2500, 1) }
func BenchmarkSourceReplayMeridian2500Shards4(b *testing.B) { benchSourceReplay(b, 2500, 4) }
func BenchmarkSourceReplayMeridian2500Shards8(b *testing.B) { benchSourceReplay(b, 2500, 8) }

// simDefaults returns the paper-default SGD configuration.
func simDefaults() sgd.Config { return sgd.Defaults() }

// aucOf delegates to the evaluation package.
func aucOf(labels, scores []float64) float64 { return eval.AUC(labels, scores) }
