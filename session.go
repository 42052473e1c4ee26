package dmfsgd

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/engine"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/peersel"
	"dmfsgd/internal/runtime"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
)

// Evaluation result types, re-exported from the internal evaluation
// package.
type (
	// Confusion is the sign-rule confusion matrix over the test pairs.
	Confusion = eval.Confusion
	// ROCPoint is one point of a receiver operating characteristic.
	ROCPoint = eval.Point
	// PRPoint is one point of a precision-recall curve.
	PRPoint = eval.PRPoint
)

// Progress is one telemetry sample of a training run, delivered through
// Session.Watch.
type Progress struct {
	// Steps is the session's cumulative successful coordinate updates.
	Steps int
	// Target is the step budget of the Run call in flight (0 when the
	// sample came from epoch training, which has no step budget).
	Target int
	// Epochs is the number of epochs completed by the RunEpochs call in
	// flight (0 for sequential and live runs).
	Epochs int
}

// runChunk is the cancellation / telemetry granularity of sequential
// training: the context is polled and progress published once per chunk.
const runChunk = 8192

// epochMode classifies what RunEpochs can do with a session's source.
type epochMode uint8

const (
	// epochNone: the source has no epoch structure (an endless decorated
	// sampler, a live capture) — RunEpochs returns ErrDynamicTrace.
	epochNone epochMode = iota
	// epochNative: a bare matrix sampler — RunEpochs trains through the
	// engine's native parallel epoch scheduler, exactly as before the
	// ingestion redesign.
	epochNative
	// epochReplay: a finite time-ordered replay (trace, NDJSON capture,
	// decorated either way) — RunEpochs trains on per-epoch measurement
	// groups through the engine's sharded batch-apply path.
	epochReplay
)

// Session is the context-aware facade over both execution backends: the
// deterministic simulation driver (default) and the live concurrent
// swarm (WithLive). It decouples training — Run, RunEpochs, Watch — from
// serving, which goes through immutable Snapshots:
//
//	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(42))
//	if err != nil { ... }
//	defer sess.Close()
//	if err := sess.Run(ctx, 0); err != nil { ... }   // paper budget
//	snap := sess.Snapshot()                           // immutable, lock-free
//	class := snap.Classify(3, 77)
//
// All configuration goes through functional options, which distinguish
// "explicitly zero" from "unset" (WithTau(0), WithLoss(LossL2)) and
// reject invalid values with errors wrapping ErrInvalidConfig.
//
// A Session's training methods (Run, RunEpochs) must not be called
// concurrently with each other. On a live session everything else —
// Predict, Snapshot, evaluation, Watch, Close — is safe to call from
// any goroutine at any time (the swarm synchronizes on the shard
// locks). On a deterministic session the sequential scheduler writes
// coordinates without locking, so reads (Predict, Snapshot, Steps,
// evaluation) must not overlap an in-flight Run/RunEpochs; Watch and
// Close are always safe. Serving loops that train in the background
// should read only from materialized Snapshots, which are immutable —
// that is the pattern cmd/dmfserve uses.
type Session struct {
	ds  *Dataset
	set settings
	tau float64
	k   int

	drv   *sim.Driver    // deterministic backend (nil when live)
	swarm *runtime.Swarm // live backend (nil when deterministic)

	// src is the measurement stream Run drains on a deterministic
	// session (nil when live: a swarm generates its own measurements).
	// epochMode records what RunEpochs can do with it. wal is the
	// chain's WAL decorator when one is attached (always the outermost
	// layer): the session writes a commit barrier through it after every
	// applied batch.
	src       Source
	epochMode epochMode
	wal       *WALSource

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	subs   []chan Progress

	// Snapshot memoization: the last materialized snapshot is returned
	// as-is while no shard version has advanced, and seeds the delta
	// refresh (only advanced shards re-copied from the store) otherwise.
	snapMu sync.Mutex
	snap   *Snapshot
}

// NewSession builds a session over ds. The default backend is the
// deterministic simulation driver reproducing the paper's experiment
// procedure; WithLive selects the concurrent runtime instead (the swarm
// starts probing immediately and trains until Close). All errors wrap
// ErrInvalidConfig.
//
// NewSession is the adapter path of the ingestion layer: it wraps the
// dataset in its canonical Source — a TraceSource replaying dynamic
// traces (Harvard) in time order, or a MatrixSource sampling a static
// matrix on the classic sequential probe schedule — and is exactly
// equivalent to NewSessionFromSource with that source. Build the source
// yourself (and compose scenario decorators such as WithChurn or
// WithDrift onto it) when the measurement stream should differ from the
// dataset's default story.
func NewSession(ds *Dataset, opts ...Option) (*Session, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrInvalidConfig)
	}
	set := defaultSettings()
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return nil, err
		}
	}
	return newSession(ds, set)
}

// NewSessionFromSource builds a deterministic session whose training
// measurements come from src instead of the dataset's canonical stream.
// ds still supplies the topology (neighbor sets), the evaluation ground
// truth and the default τ; src supplies what the nodes measure. The
// drain path filters measurements to the session's neighbor topology
// (only probes toward a node's k neighbors train it, as in the paper's
// architecture) and discards out-of-range or non-finite records, so an
// externally captured stream can be replayed safely.
//
// A MatrixSource anywhere in src's decorator chain is bound to the
// session's topology and master RNG stream, so an undecorated matrix
// source trains bit-identically to NewSession. WithLive is rejected
// with ErrLiveSession: a live swarm generates its own measurements.
func NewSessionFromSource(ds *Dataset, src Source, opts ...Option) (*Session, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrInvalidConfig)
	}
	if src == nil {
		return nil, fmt.Errorf("%w: nil source", ErrInvalidConfig)
	}
	set := defaultSettings()
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return nil, err
		}
	}
	if set.live {
		return nil, fmt.Errorf("%w: a live swarm measures for itself; sources drive deterministic sessions", ErrLiveSession)
	}
	s, err := newDeterministicSession(ds, set)
	if err != nil {
		return nil, err
	}
	if err := s.attachSource(src); err != nil {
		return nil, err
	}
	return s, nil
}

// newSession builds a session from resolved settings: the live swarm
// backend, or a deterministic session over the dataset's canonical
// source.
func newSession(ds *Dataset, set settings) (*Session, error) {
	if set.live {
		k := set.k
		if k == 0 {
			k = ds.DefaultK
		}
		tau := set.tau
		if !set.tauSet {
			tau = ds.Median()
		}
		s := &Session{ds: ds, set: set, tau: tau, k: k, done: make(chan struct{})}
		sw, err := runtime.NewSwarm(runtime.SwarmConfig{
			Dataset:          ds,
			SGD:              set.sgdConfig(),
			K:                k,
			Tau:              tau,
			ProbeInterval:    set.probeInterval,
			MeasurementNoise: set.noise,
			DropRate:         set.dropRate,
			DupRate:          set.dupRate,
			Shards:           set.shards,
			Workers:          set.workers,
			Seed:             set.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		sw.Start()
		s.swarm = sw
		return s, nil
	}
	s, err := newDeterministicSession(ds, set)
	if err != nil {
		return nil, err
	}
	// The canonical source for the dataset: time-ordered trace replay
	// when the dataset has a dynamic trace, classic random matrix
	// sampling otherwise.
	var src Source
	if ds.Trace != nil {
		src, err = NewTraceSource(ds)
	} else {
		src, err = NewMatrixSource(ds, s.k, set.seed)
	}
	if err != nil {
		return nil, err
	}
	if err := s.attachSource(src); err != nil {
		return nil, err
	}
	return s, nil
}

// newDeterministicSession builds the driver-backed session skeleton; the
// caller attaches a measurement source.
func newDeterministicSession(ds *Dataset, set settings) (*Session, error) {
	k := set.k
	if k == 0 {
		k = ds.DefaultK
	}
	tau := set.tau
	if !set.tauSet {
		tau = ds.Median()
	}
	s := &Session{ds: ds, set: set, tau: tau, k: k, done: make(chan struct{})}
	drv, err := sim.ClassDriver(ds, tau, sim.Config{
		SGD:     set.sgdConfig(),
		K:       k,
		Shards:  set.shards,
		Workers: set.workers,
		Seed:    set.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	s.drv = drv
	return s, nil
}

// attachSource wires a measurement source to the session: bindable
// sources in the chain adopt the driver's topology and RNG stream, the
// epoch mode is classified once, and a WAL decorator — which must be
// the outermost layer, so the log records exactly what the session
// consumes — is remembered for commit barriers.
func (s *Session) attachSource(src Source) error {
	bindSource(src, s.drv)
	s.src = src
	if ws, ok := src.(*WALSource); ok {
		s.wal = ws
	}
	for c := src; c != nil; {
		u, ok := c.(sourceUnwrapper)
		if !ok {
			break
		}
		c = u.Unwrap()
		if _, buried := c.(*WALSource); buried {
			return fmt.Errorf("%w: WithWALDir must be the outermost source layer (the log must record what the session consumes)", ErrInvalidConfig)
		}
	}
	switch {
	case sourceHasEpochs(src):
		s.epochMode = epochReplay
	default:
		if isBareMatrix(src) {
			s.epochMode = epochNative
		} else {
			s.epochMode = epochNone
		}
	}
	return nil
}

// isBareMatrix reports whether src is a matrix sampler with no scenario
// decorators — the only shape with native epoch structure. A WAL tee
// does not change the stream, so it is looked through.
func isBareMatrix(src Source) bool {
	if ws, ok := src.(*WALSource); ok {
		src = ws.Unwrap()
	}
	_, bare := src.(*MatrixSource)
	return bare
}

// N returns the node count.
func (s *Session) N() int { return s.ds.N() }

// K returns the neighbor count per node in effect.
func (s *Session) K() int { return s.k }

// Tau returns the classification threshold in effect.
func (s *Session) Tau() float64 { return s.tau }

// Metric returns the dataset's measured quantity.
func (s *Session) Metric() Metric { return s.ds.Metric }

// Live reports whether the session runs the concurrent swarm backend.
func (s *Session) Live() bool { return s.swarm != nil }

// DefaultBudget returns the session's paper-default training budget —
// the total Run(ctx, 0) resolves to (20·k·n successful updates,
// §6.2.4). Callers deciding how much remains to train after a
// checkpoint resume compare it against Steps.
func (s *Session) DefaultBudget() int { return sim.DefaultBudget(s.ds.N(), s.k) }

// Steps returns the cumulative successful coordinate updates so far.
func (s *Session) Steps() int {
	if s.swarm != nil {
		return s.swarm.TotalStats().Updates
	}
	return s.drv.Steps()
}

// Neighbors returns node i's neighbor set (shared slice; do not modify).
func (s *Session) Neighbors(i int) []int {
	if s.swarm != nil {
		return s.swarm.Neighbors(i)
	}
	return s.drv.Neighbors(i)
}

// checkOpen returns ErrStopped once Close has been called.
func (s *Session) checkOpen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStopped
	}
	return nil
}

// Run trains until total additional successful coordinate updates have
// accumulated beyond the session's current Steps count (0 = the paper's
// convergence budget of 20·k updates per node), polling ctx between
// chunks and publishing Progress to watchers. On a deterministic
// session training drains the session's measurement Source through the
// engine: the canonical sources consume a static matrix in random probe
// order or replay a dynamic trace (Harvard) in time order, and a custom
// source (NewSessionFromSource) streams whatever scenario it encodes.
// On a live session the swarm is already training; Run simply waits for
// the additional updates to accumulate.
//
// Returns nil on completion, the context's error when cancelled (the
// coordinates keep all updates applied so far and remain usable), or
// ErrStopped when the session was closed. A finite source (a trace or
// capture replay) can also end the run early with nil once its stream
// is exhausted.
func (s *Session) Run(ctx context.Context, total int) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if total <= 0 {
		total = sim.DefaultBudget(s.ds.N(), s.k)
	}
	if s.swarm != nil {
		return s.runLive(ctx, total)
	}
	return s.runSource(ctx, total)
}

// runSource drains the measurement source through the engine's
// sequential apply path: topology-filter, classify at τ, apply. One
// chunk of measurements per iteration keeps the historical telemetry
// cadence; ctx is polled per chunk here because finite replay sources
// (trace, NDJSON) never block and so never consult it themselves.
func (s *Session) runSource(ctx context.Context, total int) error {
	buf := make([]Measurement, runChunk)
	for done := 0; done < total; {
		if err := ctx.Err(); err != nil {
			return err
		}
		want := min(runChunk, total-done)
		k, err := s.src.NextBatch(ctx, buf[:want])
		for _, m := range buf[:k] {
			if !s.usable(m) || !s.drv.IsNeighbor(m.I, m.J) {
				continue
			}
			s.drv.ApplyLabel(m.I, m.J, ClassOf(s.ds.Metric, m.Value, s.tau).Value())
			done++
		}
		if cerr := s.commitWAL(false); cerr != nil {
			return cerr
		}
		s.publish(Progress{Steps: s.drv.Steps(), Target: total})
		if err == io.EOF {
			return nil // finite stream exhausted before the budget
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// commitWAL writes a barrier to the session's WAL (no-op without one):
// every measurement logged so far is now applied, at the recorded step
// counter, master-RNG position and source-chain cursors. batch marks
// epoch-group application (replayed through the sharded batch path)
// versus sequential.
func (s *Session) commitWAL(batch bool) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.commit(dataset.WALCommit{
		Batch:   batch,
		Steps:   uint64(s.drv.Steps()),
		Draws:   s.drv.MasterDraws(),
		Cursors: collectCursors(s.src),
	})
}

// skipWAL writes a Skip barrier covering measurements that were logged
// but discarded without training — an interrupted epoch collection.
// Without it, the next real commit's cumulative sequence would claim
// them as applied and replay could never reconcile the step counter.
// Best-effort: the caller is already returning an error, and a failed
// skip leaves the entries as an ordinary uncommitted tail.
func (s *Session) skipWAL() {
	if s.wal == nil {
		return
	}
	_ = s.wal.commit(dataset.WALCommit{
		Skip:    true,
		Steps:   uint64(s.drv.Steps()),
		Draws:   s.drv.MasterDraws(),
		Cursors: collectCursors(s.src),
	})
}

// usable reports whether a streamed measurement can train this session:
// in-range distinct nodes, a finite value and a finite timestamp (the
// WAL cannot record a non-finite time, and every applied measurement
// must be recordable — applied ⊆ logged is what makes crash replay
// exact). Canonical sources only emit usable measurements; external
// captures are filtered here.
func (s *Session) usable(m Measurement) bool {
	n := s.ds.N()
	return m.I >= 0 && m.I < n && m.J >= 0 && m.J < n && m.I != m.J &&
		!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) &&
		!math.IsNaN(m.T) && !math.IsInf(m.T, 0)
}

func (s *Session) runLive(ctx context.Context, total int) error {
	start := s.swarm.TotalStats().Updates
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		steps := s.swarm.TotalStats().Updates
		s.publish(Progress{Steps: steps, Target: total})
		if steps-start >= total {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return ErrStopped
		case <-tick.C:
		}
	}
}

// RunEpochs trains in epoch sweeps on the sharded parallel engine,
// deterministic for a fixed seed regardless of shard and worker counts.
// What one epoch means depends on the session's measurement source:
//
//   - Matrix sampling (the static-dataset default): every node issues
//     probesPerNode random probes through the engine's native epoch
//     scheduler — the historical behavior, bit-identical at a fixed
//     seed.
//   - Finite replay (a dynamic trace such as Harvard, an NDJSON
//     capture, or either behind scenario decorators): each epoch
//     consumes the next n·probesPerNode usable measurements from the
//     stream and trains on the group through the engine's sharded
//     batch-apply path (peer reads from an epoch-start snapshot,
//     cross-shard updates merged deterministically at the barrier).
//     The run ends early, without error, when the stream is exhausted.
//   - Anything else — an endless sampler behind decorators, a live
//     capture — has no epoch structure and returns ErrDynamicTrace;
//     use Run, which drains the stream in order.
//
// ctx is polled between epochs and at shard granularity within one; a
// cancelled call returns the context's error with all completed updates
// kept (no goroutines leak). Live sessions return ErrLiveSession.
// Returns the number of successful updates applied.
func (s *Session) RunEpochs(ctx context.Context, epochs, probesPerNode int) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	if epochs < 0 || probesPerNode <= 0 {
		return 0, fmt.Errorf("%w: epochs=%d probesPerNode=%d (want epochs ≥ 0, probes > 0)",
			ErrInvalidConfig, epochs, probesPerNode)
	}
	if s.swarm != nil {
		return 0, fmt.Errorf("%w: a live swarm trains continuously on its own schedule", ErrLiveSession)
	}
	switch s.epochMode {
	case epochReplay:
		return s.runEpochsReplay(ctx, epochs, probesPerNode)
	case epochNative:
		if s.wal != nil {
			// Native epochs sample internally — no measurements flow, so
			// nothing reaches the log, and the step counter would outrun
			// what the WAL can reproduce: a later committed batch could
			// never replay to the right step count.
			return 0, fmt.Errorf("%w: native epoch training is not measurement-driven and cannot be logged; use Run, an epoch-structured source, or checkpoints around unlogged epoch training", ErrWAL)
		}
		total := 0
		for ep := 0; ep < epochs; ep++ {
			n, err := s.drv.RunEpochCtx(ctx, probesPerNode)
			total += n
			s.publish(Progress{Steps: s.drv.Steps(), Epochs: ep + 1})
			if err != nil {
				return total, err
			}
		}
		return total, nil
	default:
		return 0, fmt.Errorf("%w: source %T has no epoch structure; use Run, which drains the stream in order",
			ErrDynamicTrace, s.src)
	}
}

// runEpochsReplay trains on per-epoch measurement groups: each epoch
// collects the next n·probesPerNode usable measurements (topology
// filter, classification at τ) and applies the group through the
// engine's sharded batch path.
func (s *Session) runEpochsReplay(ctx context.Context, epochs, probesPerNode int) (int, error) {
	n := s.ds.N()
	target := n * probesPerNode
	buf := make([]Measurement, min(runChunk, target))
	samples := make([]engine.Sample, 0, target)
	total := 0
	for ep := 0; ep < epochs; ep++ {
		samples = samples[:0]
		eof := false
		for len(samples) < target && !eof {
			if err := ctx.Err(); err != nil {
				// Interrupted collection: the gathered measurements are
				// discarded, so mark them skipped in the WAL — otherwise a
				// later commit's cumulative sequence would claim them.
				s.skipWAL()
				return total, err
			}
			k, err := s.src.NextBatch(ctx, buf[:min(len(buf), target-len(samples))])
			for _, m := range buf[:k] {
				if !s.usable(m) || !s.drv.IsNeighbor(m.I, m.J) {
					continue
				}
				samples = append(samples, engine.Sample{
					I: m.I, J: m.J,
					Label: ClassOf(s.ds.Metric, m.Value, s.tau).Value(),
				})
			}
			if err == io.EOF {
				eof = true
			} else if err != nil {
				s.skipWAL()
				return total, err
			}
		}
		if len(samples) == 0 {
			s.skipWAL()       // a logged tail of unusable records only
			return total, nil // stream exhausted
		}
		// With a WAL attached the batch must apply atomically: a
		// partially applied parallel batch is not replayable, so the
		// context is honored between batches (above) and the apply
		// itself runs to completion — bounded work, one epoch group.
		applyCtx := ctx
		if s.wal != nil {
			applyCtx = context.Background()
		}
		applied, err := s.drv.ApplyBatchCtx(applyCtx, samples)
		total += applied
		if err == nil {
			if cerr := s.commitWAL(true); cerr != nil {
				return total, cerr
			}
		}
		s.publish(Progress{Steps: s.drv.Steps(), Epochs: ep + 1})
		if err != nil {
			return total, err
		}
		if eof {
			return total, nil
		}
	}
	return total, nil
}

// Predict returns the live estimate x̂ᵢⱼ = uᵢ·vⱼᵀ for the path i → j.
// On a live session this takes the owning shards' read locks; prediction
// traffic should instead go through a Snapshot, which is lock-free.
func (s *Session) Predict(i, j int) float64 {
	if s.swarm != nil {
		store := s.swarm.Store()
		var ui, vj []float64
		store.Ref(i).View(func(c *sgd.Coordinates) { ui = append(ui, c.U...) })
		store.Ref(j).View(func(c *sgd.Coordinates) { vj = append(vj, c.V...) })
		return sgd.Predict(ui, vj)
	}
	return s.drv.Predict(i, j)
}

// Classify returns the predicted class of the path i → j: the sign of
// Predict.
func (s *Session) Classify(i, j int) Class {
	return classify.FromValue(s.Predict(i, j))
}

// store returns the backing sharded coordinate store.
func (s *Session) store() *engine.Store {
	if s.swarm != nil {
		return s.swarm.Store()
	}
	return s.drv.Engine().Store()
}

// Snapshot materializes an immutable copy of every node's coordinates
// (consistent per shard even while a live swarm keeps training). The
// returned Snapshot serves Predict/PredictBatch/Rank/Classify to any
// number of concurrent readers without further synchronization.
//
// Materialization is version-aware: every store shard carries a counter
// bumped on each write, and the session remembers the snapshot it last
// materialized. At quiescence — no shard advanced since the last call —
// that snapshot is returned as-is (zero copying, zero locking beyond the
// version reads). Otherwise a fresh snapshot shares the previous one's
// block for every shard whose version is unchanged and copies each other
// shard into a new block, taking only that shard's read lock, under which
// its rows and version are read together.
func (s *Session) Snapshot() *Snapshot {
	store := s.store()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	n, rank, shards := store.N(), store.Rank(), store.Shards()
	prev := s.snap
	if prev != nil && store.VersionsEqual(prev.vers) {
		return prev
	}
	sn := &Snapshot{
		n:      n,
		rank:   rank,
		bu:     make([][]float64, shards),
		bv:     make([][]float64, shards),
		tau:    s.tau,
		metric: s.ds.Metric,
		shards: shards,
		vers:   make([]uint64, shards),
	}
	for p := 0; p < shards; p++ {
		if prev != nil && store.ShardVersion(p) == prev.vers[p] {
			sn.bu[p], sn.bv[p], sn.vers[p] = prev.bu[p], prev.bv[p], prev.vers[p]
			continue
		}
		size := store.ShardNodeCount(p) * rank
		sn.bu[p] = make([]float64, size)
		sn.bv[p] = make([]float64, size)
		sn.vers[p] = store.SnapshotShardBlock(p, sn.bu[p], sn.bv[p])
	}
	sn.steps = s.Steps()
	s.snap = sn
	return sn
}

// evalSet delegates test-set evaluation to the active backend.
func (s *Session) evalSet(ctx context.Context, maxPairs int) (labels, scores []float64, err error) {
	if s.swarm != nil {
		return s.swarm.EvalSetCtx(ctx, maxPairs)
	}
	return s.drv.EvalSetCtx(ctx, maxPairs)
}

// AUC evaluates prediction quality over the never-measured pairs.
// maxPairs > 0 evaluates a deterministic subsample (cheap checkpoint
// probes); 0 uses every test pair. Cancelling ctx aborts the
// block-parallel sweep and returns the context's error.
func (s *Session) AUC(ctx context.Context, maxPairs int) (float64, error) {
	labels, scores, err := s.evalSet(ctx, maxPairs)
	if err != nil {
		return 0, err
	}
	return eval.AUC(labels, scores), nil
}

// Confusion returns the sign-rule confusion matrix over the test pairs.
func (s *Session) Confusion(ctx context.Context) (Confusion, error) {
	labels, scores, err := s.evalSet(ctx, 0)
	if err != nil {
		return Confusion{}, err
	}
	return eval.ConfusionAtParallel(labels, scores, 0, s.set.workers), nil
}

// ROC returns the receiver operating characteristic over the test pairs,
// from (0,0) to (1,1) as the discrimination threshold τc sweeps the
// prediction range (§6.1).
func (s *Session) ROC(ctx context.Context) ([]ROCPoint, error) {
	labels, scores, err := s.evalSet(ctx, 0)
	if err != nil {
		return nil, err
	}
	return eval.ROC(labels, scores), nil
}

// PrecisionRecall returns the precision-recall curve over the test pairs.
func (s *Session) PrecisionRecall(ctx context.Context) ([]PRPoint, error) {
	labels, scores, err := s.evalSet(ctx, 0)
	if err != nil {
		return nil, err
	}
	return eval.PrecisionRecall(labels, scores), nil
}

// SelectPeers evaluates class-based peer selection over random peer sets
// of the given size (disjoint from neighbor sets), returning the mean
// stretch and the unsatisfied-node fraction of §6.4. On a live session
// the predictions come from a fresh Snapshot.
func (s *Session) SelectPeers(peerSetSize int, seed int64) (stretch, unsatisfied float64) {
	var pred peersel.Predictor
	if s.swarm != nil {
		pred = s.Snapshot()
	} else {
		pred = s.drv
	}
	cfg := peersel.Config{
		PeerSetSize: peerSetSize,
		Tau:         s.tau,
		Exclude:     peersel.NeighborExclusion(s.ds.N(), s.Neighbors),
		Seed:        seed,
	}
	sets := peersel.BuildPeerSets(s.ds, cfg)
	res := peersel.Evaluate(s.ds, sets, peersel.ClassBased, pred, cfg)
	return res.MeanStretch, res.Unsatisfied
}

// Watch returns a stream of training telemetry: one Progress sample per
// completed chunk of Run (about every 8k updates), epoch of RunEpochs,
// or live poll tick. Delivery is best-effort — a slow reader misses
// intermediate samples rather than stalling training (the channel holds
// the 16 most recent undelivered samples). The channel is closed when
// ctx is cancelled or the session is closed.
func (s *Session) Watch(ctx context.Context) <-chan Progress {
	ch := make(chan Progress, 16)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return ch
	}
	s.subs = append(s.subs, ch)
	s.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			s.unsubscribe(ch)
		case <-s.done:
			// Close already closed every subscriber channel.
		}
	}()
	return ch
}

// unsubscribe removes ch from the subscriber list and closes it, if it
// is still registered (Close may have won the race and closed it first).
func (s *Session) unsubscribe(ch chan Progress) {
	s.mu.Lock()
	for i, c := range s.subs {
		if c == ch {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			s.mu.Unlock()
			close(ch)
			return
		}
	}
	s.mu.Unlock()
}

// publish delivers a telemetry sample to every watcher, never blocking:
// a full channel drops the sample.
func (s *Session) publish(p Progress) {
	s.mu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- p:
		default:
		}
	}
	s.mu.Unlock()
}

// Close stops the session: a live swarm's nodes are cancelled and
// joined, every Watch channel is closed, and subsequent Run/RunEpochs
// calls return ErrStopped. Snapshots taken earlier remain valid — they
// are immutable copies. Close is idempotent and always returns nil.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	subs := s.subs
	s.subs = nil
	s.mu.Unlock()
	if s.swarm != nil {
		s.swarm.Stop()
	}
	for _, ch := range subs {
		close(ch)
	}
	return nil
}
