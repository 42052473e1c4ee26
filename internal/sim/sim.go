// Package sim provides the deterministic sequential simulation driver used
// by all experiments (§6). It reproduces the paper's evaluation procedure:
//
//   - every node independently selects a random neighbor set of k nodes
//     (§5.3, same architecture as Vivaldi);
//   - static measurements (Meridian, HP-S3) are consumed in random order:
//     at each step a random node probes a random neighbor and applies the
//     DMFSGD update rules;
//   - dynamic measurements (Harvard) are replayed in timestamp order;
//   - evaluation predicts the entries that were never measured (the
//     complement of the training mask) and compares them against the
//     ground-truth classes.
//
// The driver is fully deterministic given a seed, which is what makes every
// figure and table in this repository reproducible. Since the engine
// refactor it is a thin configuration front-end over package engine, which
// owns the sharded coordinate store and both execution schedules; the
// concurrent message-passing implementation of the same protocol lives in
// package runtime and shares the same store layer.
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/engine"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
)

// Config parameterizes a simulation run.
type Config struct {
	// SGD carries the factorization hyper-parameters (rank, η, λ, loss).
	SGD sgd.Config
	// K is the neighbor count per node (§6.2.2).
	K int
	// Tau is the classification threshold used for ground-truth evaluation
	// labels.
	Tau float64
	// TrainScale divides training labels before the SGD update. Classes
	// (±1) use 1 (or 0, which means 1); quantity-based training uses the
	// dataset median so the L2 loss sees O(1) targets. Scaling only changes
	// the magnitude of predictions, not their ranking, so classification
	// metrics and peer selection are unaffected.
	TrainScale float64
	// ForceAsymmetric disables the symmetric RTT trick of Algorithm 1
	// (updating both uᵢ and vᵢ from one sample) and applies the one-sided
	// Algorithm-2 updates instead. Used only by the ablation benchmarks
	// that quantify the value of exploiting RTT symmetry.
	ForceAsymmetric bool
	// Shards partitions the coordinate store for parallel epoch training
	// (0 = 1). Sequential Step/Run results are identical for every value.
	Shards int
	// Workers bounds the goroutines used by parallel epochs and parallel
	// evaluation (0 = GOMAXPROCS). Evaluation output is identical for
	// every value.
	Workers int
	// Seed drives neighbor selection, probe order and initialization.
	Seed int64
}

// Driver runs the decentralized factorization against a dataset. It is a
// configuration front-end over engine.Engine: the driver owns the dataset
// binding, threshold and evaluation procedure; the engine owns the sharded
// coordinate store and the update schedules.
type Driver struct {
	ds     *dataset.Dataset
	labels *mat.Dense // training labels: classes (±1) or quantities
	cfg    Config

	eng       *engine.Engine
	msrc      *engine.CountingSource // the master stream's source (checkpointing)
	neighbors [][]int
	trainMask *mat.Mask
	evalCache engine.PairCache
}

// New builds a Driver.
//
// labels is the matrix the *measurement module* would produce: the class
// matrix (possibly corrupted, §6.3) for class-based prediction, or the raw
// quantity matrix for quantity-based prediction (§6.4). Ground truth for
// evaluation always comes from the clean dataset thresholded at cfg.Tau.
func New(ds *dataset.Dataset, labels *mat.Dense, cfg Config) (*Driver, error) {
	if err := cfg.SGD.Validate(); err != nil {
		return nil, err
	}
	if cfg.K <= 0 || cfg.K >= ds.N() {
		return nil, fmt.Errorf("sim: k=%d out of (0,%d)", cfg.K, ds.N())
	}
	if labels.Rows() != ds.N() || labels.Cols() != ds.N() {
		return nil, fmt.Errorf("sim: labels %dx%d, dataset has %d nodes",
			labels.Rows(), labels.Cols(), ds.N())
	}
	if cfg.TrainScale == 0 {
		cfg.TrainScale = 1
	}
	if cfg.TrainScale < 0 {
		return nil, fmt.Errorf("sim: TrainScale must be positive, got %v", cfg.TrainScale)
	}
	// The master sequential stream runs off a counting source so its
	// position is checkpointable (value-transparent: same draws as a bare
	// rand.NewSource at the same seed).
	msrc := engine.NewCountingSource(cfg.Seed)
	rng := rand.New(msrc)
	trainMask, neighbors := mat.NeighborMask(ds.N(), cfg.K, ds.Metric.Symmetric(), rng)
	eng, err := engine.New(labels, neighbors, rng, engine.Config{
		SGD:        cfg.SGD,
		TrainScale: cfg.TrainScale,
		Symmetric:  ds.Metric.Symmetric() && !cfg.ForceAsymmetric,
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Driver{
		ds:        ds,
		labels:    labels,
		cfg:       cfg,
		eng:       eng,
		msrc:      msrc,
		neighbors: neighbors,
		trainMask: trainMask,
	}, nil
}

// MasterDraws returns the number of values drawn from the master
// sequential RNG stream since construction (neighbor-mask build,
// coordinate init, probe sampling) — the stream position a checkpoint
// records.
func (d *Driver) MasterDraws() uint64 { return d.msrc.Draws() }

// FastForwardMaster advances the master stream to a checkpointed draw
// count. The target must be at or past the current position (a freshly
// built driver has already consumed its construction draws); rewinding
// means the checkpoint belongs to a different configuration.
func (d *Driver) FastForwardMaster(target uint64) error {
	return d.msrc.FastForward(target)
}

// N returns the node count.
func (d *Driver) N() int { return d.ds.N() }

// Engine returns the underlying execution engine (parallel epoch training,
// shard introspection, benchmarks).
func (d *Driver) Engine() *engine.Engine { return d.eng }

// SwapLabels replaces the training label matrix mid-run, modelling a
// network whose ground truth changes while the system keeps running (the
// dynamics the paper's SGD formulation is designed for: measurements are
// processed as they arrive, so a change simply shows up in future
// samples). Dimensions must match the dataset.
func (d *Driver) SwapLabels(labels *mat.Dense) {
	if labels.Rows() != d.ds.N() || labels.Cols() != d.ds.N() {
		panic(fmt.Sprintf("sim: SwapLabels %dx%d, dataset has %d nodes",
			labels.Rows(), labels.Cols(), d.ds.N()))
	}
	d.labels = labels
	d.eng.SetLabels(labels)
}

// Steps returns the number of successful measurements consumed so far.
func (d *Driver) Steps() int { return d.eng.Steps() }

// Neighbors returns node i's neighbor set (shared slice; do not modify).
func (d *Driver) Neighbors(i int) []int { return d.neighbors[i] }

// TrainMask returns the observation mask (shared; do not modify).
func (d *Driver) TrainMask() *mat.Mask { return d.trainMask }

// Coordinates returns node i's coordinates (live, not a copy).
func (d *Driver) Coordinates(i int) *sgd.Coordinates { return d.eng.Store().Coord(i) }

// Predict returns x̂ᵢⱼ = uᵢ·vⱼᵀ, the estimate of the (possibly scaled)
// training label from i to j.
func (d *Driver) Predict(i, j int) float64 { return d.eng.Predict(i, j) }

// Step performs one protocol exchange: a random node probes one random
// neighbor, the measurement module yields the pair's label, and the DMFSGD
// update rules fire. Returns false when the sampled pair has no label
// (missing data) — the probe failed and nothing was updated.
func (d *Driver) Step() bool { return d.eng.Step() }

// SampleProbe draws the next (node, neighbor) probe pair from the master
// sequential stream without applying an update (see engine.SampleProbe).
// The ingestion layer binds MatrixSource to this, which is what makes a
// source-drained sequential run bit-identical to the classic driver.
func (d *Driver) SampleProbe() (i, j int) { return d.eng.SampleProbe() }

// ApplyLabel consumes one externally supplied training label for the
// pair (i, j) — the seam through which measurement sources (trace
// replay, NDJSON streams, scenario decorators) feed the engine.
func (d *Driver) ApplyLabel(i, j int, label float64) { d.eng.ApplyLabel(i, j, label) }

// ApplyBatchCtx trains on one epoch-style batch of externally supplied
// samples through the engine's sharded apply path (see
// engine.ApplyBatchCtx): peer reads from a batch-start snapshot,
// per-shard workers, deterministic for every shard and worker count.
func (d *Driver) ApplyBatchCtx(ctx context.Context, batch []engine.Sample) (int, error) {
	return d.eng.ApplyBatchCtx(ctx, batch)
}

// Run performs total successful measurement steps (missing-data probes are
// retried and do not count).
func (d *Driver) Run(total int) { d.eng.Run(total) }

// RunCtx is Run with cancellation between probe attempts; see
// engine.Engine.RunCtx for the exact semantics. Returns the successful
// steps performed and, when interrupted, the context's error.
func (d *Driver) RunCtx(ctx context.Context, total int) (int, error) {
	return d.eng.RunCtx(ctx, total)
}

// RunEpochs trains with the engine's parallel epoch scheduler instead of
// the sequential stream: epochs sweeps in which every node issues
// probesPerNode probes, executed across the configured shards and workers.
// Deterministic for a fixed seed regardless of shard count, but a
// different (epoch-synchronous) schedule than Run — do not mix the two
// modes within an experiment that must reproduce historical figures.
// Returns the number of successful updates.
func (d *Driver) RunEpochs(epochs, probesPerNode int) int {
	return d.eng.RunEpochs(epochs, probesPerNode)
}

// RunEpochCtx runs one parallel epoch with cancellation at shard
// granularity (see engine.Engine.RunEpochCtx). Callers wanting multiple
// cancellable epochs loop over it (as Session.RunEpochs does, publishing
// telemetry between epochs).
func (d *Driver) RunEpochCtx(ctx context.Context, probesPerNode int) (int, error) {
	return d.eng.RunEpochCtx(ctx, probesPerNode)
}

// ReplayTrace consumes up to limit dynamic measurements in trace order
// (Harvard). Only measurements toward the observing node's neighbor set
// are used, matching the k-neighbor architecture; other records are
// ignored (passively probed paths outside the neighbor set). toLabel
// converts each raw value to a training label (class or scaled quantity);
// it may return false to skip a record (e.g. a missing corrupted label).
//
// Returns used, the number of measurements consumed, and scanned, the
// number of trace records examined. Callers replaying in chunks (the
// convergence experiment) pass trace[scanned:] on the next call.
func (d *Driver) ReplayTrace(trace []dataset.Measurement, toLabel func(dataset.Measurement) (float64, bool), limit int) (used, scanned int) {
	used, scanned, _ = d.ReplayTraceCtx(context.Background(), trace, toLabel, limit)
	return used, scanned
}

// ReplayTraceCtx is ReplayTrace with cancellation, polled every few
// thousand scanned records. On cancellation it returns the context's error
// along with the counts consumed so far; resume by passing trace[scanned:].
func (d *Driver) ReplayTraceCtx(ctx context.Context, trace []dataset.Measurement, toLabel func(dataset.Measurement) (float64, bool), limit int) (used, scanned int, err error) {
	for _, m := range trace {
		if limit > 0 && used >= limit {
			break
		}
		if scanned&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return used, scanned, err
			}
		}
		scanned++
		if !d.IsNeighbor(m.I, m.J) {
			continue
		}
		label, ok := toLabel(m)
		if !ok {
			continue
		}
		d.eng.ApplyLabel(m.I, m.J, label)
		used++
	}
	return used, scanned, nil
}

// IsNeighbor reports whether j is in node i's neighbor set — the
// topology filter trace replay and source draining apply to incoming
// measurements (only probes toward a node's k neighbors train it, §5.3).
// i must be in [0, n); out-of-range j simply reports false.
func (d *Driver) IsNeighbor(i, j int) bool {
	for _, n := range d.neighbors[i] {
		if n == j {
			return true
		}
	}
	return false
}

// EvalSet returns the ground-truth labels and predicted scores over the
// evaluation pairs: the off-diagonal entries never used for training, with
// present ground truth ("probe a few and predict many" — prediction is
// judged on the unmeasured pairs). maxPairs > 0 subsamples the set
// deterministically for cheap checkpoint evaluation; 0 means everything.
//
// Label computation and prediction are spread over row-blocks of the pair
// list (cfg.Workers goroutines, 0 = GOMAXPROCS); the output is identical
// to a sequential pass for every worker count. The pair list and the
// full-set labels are cached across calls (they only depend on the fixed
// training mask, ground-truth missing pattern and τ; see
// engine.PairCache) — treat the returned labels as read-only.
func (d *Driver) EvalSet(maxPairs int) (labels, scores []float64) {
	labels, scores, _ = d.EvalSetCtx(context.Background(), maxPairs)
	return labels, scores
}

// EvalSetCtx is EvalSet with cancellation of the block-parallel label and
// score sweeps (see engine.EvalSetCtx).
func (d *Driver) EvalSetCtx(ctx context.Context, maxPairs int) (labels, scores []float64, err error) {
	return engine.EvalSetCtx(ctx, d.eng.Store(), engine.EvalSpec{
		Mask:          d.trainMask,
		Truth:         d.ds.Matrix,
		Metric:        d.ds.Metric,
		Tau:           d.cfg.Tau,
		MaxPairs:      maxPairs,
		SubsampleSeed: d.cfg.Seed + 7919,
		Workers:       d.cfg.Workers,
		Cache:         &d.evalCache,
	})
}

// AUC evaluates the classifier on the full test set.
func (d *Driver) AUC() float64 {
	labels, scores := d.EvalSet(0)
	return eval.AUC(labels, scores)
}

// AUCSample evaluates on a deterministic subsample of the test set.
func (d *Driver) AUCSample(maxPairs int) float64 {
	labels, scores := d.EvalSet(maxPairs)
	return eval.AUC(labels, scores)
}

// Confusion evaluates the sign decision rule on the full test set
// (Table 2: predicted class = sign(x̂)), accumulating the matrix in
// parallel over blocks of the test set.
func (d *Driver) Confusion() eval.Confusion {
	labels, scores := d.EvalSet(0)
	return eval.ConfusionAtParallel(labels, scores, 0, d.cfg.Workers)
}

// DefaultBudget returns the paper's convergence budget: each node consumes
// on average 20·k measurements from its k neighbors ("the DMFSGD
// algorithms converge fast after each node probes, on average, no more
// than 20×k measurements", §6.2.4), so the total is 20·k·n.
func DefaultBudget(n, k int) int { return 20 * k * n }

// ClassDriver is the common construction for class-based experiments:
// threshold the dataset at tau, optionally replace the clean class matrix
// via mutate (error injection), and build the driver.
func ClassDriver(ds *dataset.Dataset, tau float64, cfg Config, mutate func(clean *mat.Dense) *mat.Dense) (*Driver, error) {
	cm := classify.Matrix(ds, tau)
	if mutate != nil {
		cm = mutate(cm)
	}
	cfg.Tau = tau
	return New(ds, cm, cfg)
}

// QuantityDriver is the construction for quantity-based (regression)
// experiments: train on raw values scaled by the dataset median, with the
// L2 loss (§6.4).
func QuantityDriver(ds *dataset.Dataset, tau float64, cfg Config) (*Driver, error) {
	cfg.Tau = tau
	cfg.TrainScale = ds.Median()
	return New(ds, ds.Matrix, cfg)
}
