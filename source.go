package dmfsgd

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"dmfsgd/internal/dataset"
	"dmfsgd/internal/engine"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sim"
)

// Measurement is one timestamped directed measurement: node I observed
// Value for the path I → J at stream time T (seconds, or whatever unit
// the producing Source documents). It is the unit of the ingestion
// layer — every measurement that reaches the engine flows through a
// Source of these, whether it came from sampling a ground-truth matrix,
// replaying a trace or an NDJSON capture, or live probing.
type Measurement = dataset.Measurement

// Source is a pull-based stream of measurements — the single seam
// through which training data reaches a Session. NextBatch fills buf
// with the next measurements and returns how many it wrote:
//
//   - n > 0 with a nil error while the stream continues;
//   - 0 with io.EOF when a finite stream is drained (Session.Run then
//     returns nil early, like an exhausted trace always has);
//   - 0 with ctx's error when a blocking source was cancelled.
//
// Implementations may block (a live capture waiting for probes) and
// must honor ctx while doing so; finite replays simply copy and never
// block. A Source is a stateful single-consumer stream: call NextBatch
// from one goroutine at a time, and do not share one source between
// sessions.
//
// Built-in sources: MatrixSource (random sampling of a static matrix),
// TraceSource (time-ordered trace replay), StreamSource (NDJSON
// capture replay), SwarmSource (live probe capture). Scenario
// decorators — WithChurn, WithDrift, WithNoise, WithDrop — wrap any
// Source and compose freely; they expose the wrapped source through an
// Unwrap() Source method, and Session inspects the whole chain when it
// needs to know what is at the bottom.
type Source interface {
	NextBatch(ctx context.Context, buf []Measurement) (int, error)
}

// An EpochSource is a Source whose stream is a finite, time-ordered
// replay that can be consumed in per-epoch groups: Session.RunEpochs
// collects n·probesPerNode usable measurements per epoch and trains on
// each group through the engine's sharded batch-apply path. TraceSource
// and StreamSource are EpochSources, and decorating one preserves the
// property (the session inspects the full Unwrap chain). Endless
// samplers are not: a bare MatrixSource session trains epochs through
// the engine's native parallel scheduler instead, and RunEpochs on any
// other structure returns ErrDynamicTrace.
type EpochSource interface {
	Source
	// EpochStructure reports whether the stream can be grouped into
	// training epochs.
	EpochStructure() bool
}

// A CursorSource is a Source whose stream position can be captured and
// restored — what lets a checkpoint resume the same stream where it
// stopped. Cursor returns the layer's position counters (an opaque,
// layer-defined encoding); Seek fast-forwards a freshly constructed
// layer to a captured cursor, consuming whatever private randomness the
// skipped records would have consumed, and fails when the cursor cannot
// belong to this layer. The built-in replay sources and the stateful
// scenario decorators implement it; layers whose behavior is a pure
// function of the measurements flowing through them (WithChurn,
// WithDrift) need no cursor, and a bound MatrixSource's sampling stream
// is carried by the session's master RNG, so its cursor is only the
// emission counter that drives measurement timestamps.
//
// Session.Checkpoint records the cursors of every CursorSource in the
// source chain, outermost first; ResumeSession hands them back to a
// freshly built chain of the same shape. (A WithWALDir decorator is not a
// cursor layer — its sequence travels in the checkpoint's WALSeq field
// and in every commit barrier — so attaching or detaching the log does
// not change a chain's shape.)
type CursorSource interface {
	Source
	Cursor() []uint64
	Seek(cur []uint64) error
}

// sourceUnwrapper is the decorator convention: expose the wrapped
// source so the session can inspect and bind the whole chain.
type sourceUnwrapper interface{ Unwrap() Source }

// collectCursors gathers the cursor of every CursorSource in the chain,
// outermost first.
func collectCursors(src Source) [][]uint64 {
	var out [][]uint64
	for src != nil {
		if cs, ok := src.(CursorSource); ok {
			out = append(out, cs.Cursor())
		}
		u, ok := src.(sourceUnwrapper)
		if !ok {
			break
		}
		src = u.Unwrap()
	}
	return out
}

// seekCursors restores captured cursors into a freshly built chain of
// the same shape: the number of cursor-bearing layers must match.
func seekCursors(src Source, cur [][]uint64) error {
	seen := 0
	for src != nil {
		if cs, ok := src.(CursorSource); ok {
			if seen >= len(cur) {
				return fmt.Errorf("source chain has more cursor layers than the checkpoint's %d", len(cur))
			}
			if err := cs.Seek(cur[seen]); err != nil {
				return err
			}
			seen++
		}
		u, ok := src.(sourceUnwrapper)
		if !ok {
			break
		}
		src = u.Unwrap()
	}
	if seen != len(cur) {
		return fmt.Errorf("source chain has %d cursor layers, checkpoint recorded %d", seen, len(cur))
	}
	return nil
}

// cursorLen validates a cursor's arity for a layer.
func cursorLen(cur []uint64, want int, layer string) error {
	if len(cur) != want {
		return fmt.Errorf("%s cursor carries %d values, want %d", layer, len(cur), want)
	}
	return nil
}

// sessionBinder is implemented by sources that adapt to a session's
// topology and RNG stream when attached (MatrixSource).
type sessionBinder interface{ bindSession(drv *sim.Driver) }

// sourceHasEpochs walks the decorator chain looking for an EpochSource.
func sourceHasEpochs(src Source) bool {
	for src != nil {
		if es, ok := src.(EpochSource); ok && es.EpochStructure() {
			return true
		}
		u, ok := src.(sourceUnwrapper)
		if !ok {
			return false
		}
		src = u.Unwrap()
	}
	return false
}

// bindSource attaches every bindable source in the chain to the driver.
func bindSource(src Source, drv *sim.Driver) {
	for src != nil {
		if b, ok := src.(sessionBinder); ok {
			b.bindSession(drv)
		}
		u, ok := src.(sourceUnwrapper)
		if !ok {
			return
		}
		src = u.Unwrap()
	}
}

// sourceCtxMask throttles context polling on sampling loops.
const sourceCtxMask = 4095

// MatrixSource samples a static ground-truth matrix the way the
// sequential protocol does: at each step a uniformly random node probes
// a uniformly random member of its neighbor set, and the pair's matrix
// entry is emitted as the measured value (missing entries fail the
// probe and are resampled). The stream is endless and deterministic for
// a fixed seed. T advances by 1/n per emitted measurement, so one unit
// of stream time corresponds to one probing round of the network — the
// time base the scenario decorators act on.
//
// When a MatrixSource is attached to a Session (NewSession builds one
// implicitly for static datasets; NewSessionFromSource binds explicit
// ones), it adopts the session's neighbor topology and master RNG
// stream, which makes draining it through Session.Run bit-identical to
// the classic sequential driver at a fixed seed. Standalone — e.g.
// feeding cmd/datagen -stream — it derives its own topology from k and
// seed, matching the topology a session with the same seed and k would
// build.
//
// The source reads the matrix once, when it binds (or, standalone, on
// its first NextBatch): it copies the entries of its topology's n·k
// neighbor slots into a table and samples that table from then on, so
// later changes to the matrix do not reach the stream.
type MatrixSource struct {
	ds      *Dataset
	k       int
	seed    int64
	sample  func() (i, s int) // a node and one of its neighbor slots
	nb      [][]int           // nb[i][s]: the neighbor in slot s of node i
	vals    [][]float64       // vals[i][s]: the matrix entry of (i, nb[i][s])
	emitted int
}

// NewMatrixSource builds a sampling source over ds's ground-truth
// matrix. k is the neighbor count per node (0 = the dataset default);
// seed drives topology and sampling in standalone use.
func NewMatrixSource(ds *Dataset, k int, seed int64) (*MatrixSource, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrInvalidConfig)
	}
	if k == 0 {
		k = ds.DefaultK
	}
	if k <= 0 || k >= ds.N() {
		return nil, fmt.Errorf("%w: matrix source k=%d out of (0,%d)", ErrInvalidConfig, k, ds.N())
	}
	return &MatrixSource{ds: ds, k: k, seed: seed}, nil
}

// bindSession adopts the driver's topology and master RNG stream, and
// reads the matrix entries of that topology's neighbor slots. A driver
// for a different node count is ignored (the source keeps its
// standalone schedule).
func (ms *MatrixSource) bindSession(drv *sim.Driver) {
	if drv.N() != ms.ds.N() {
		return
	}
	nb := make([][]int, drv.N())
	for i := range nb {
		nb[i] = drv.Neighbors(i)
	}
	ms.setTopology(nb, drv.SampleProbe)
}

// init builds the standalone probe schedule on first use: the same
// NeighborMask construction a driver performs, sampled from a private
// stream seeded like the driver's master stream.
func (ms *MatrixSource) init() {
	if ms.sample != nil {
		return
	}
	rng := rand.New(rand.NewSource(ms.seed))
	_, nb := mat.NeighborMask(ms.ds.N(), ms.k, ms.ds.Metric.Symmetric(), rng)
	ms.setTopology(nb, func() (int, int) {
		i := rng.Intn(len(nb))
		return i, rng.Intn(len(nb[i]))
	})
}

// setTopology installs a probe schedule and the slot table of the
// matrix entries it can probe.
func (ms *MatrixSource) setTopology(nb [][]int, sample func() (i, s int)) {
	ms.nb, ms.sample = nb, sample
	ms.vals = engine.SlotTable(nb, ms.ds.Matrix.At)
}

// Cursor returns the emission counter (it drives measurement
// timestamps). A bound source's sampling stream lives in the session's
// master RNG, which the session checkpoint carries separately.
func (ms *MatrixSource) Cursor() []uint64 { return []uint64{uint64(ms.emitted)} }

// Seek restores the emission counter on a fresh source.
func (ms *MatrixSource) Seek(cur []uint64) error {
	if err := cursorLen(cur, 1, "matrix source"); err != nil {
		return err
	}
	ms.emitted = int(cur[0])
	return nil
}

// NextBatch fills buf with sampled measurements. The stream never ends;
// the only non-nil error is ctx's, polled every few thousand probe
// attempts so a matrix with much missing data cannot stall
// cancellation.
func (ms *MatrixSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	ms.init()
	n := float64(ms.ds.N())
	filled := 0
	for attempts := 0; filled < len(buf); attempts++ {
		if attempts&sourceCtxMask == 0 {
			if err := ctx.Err(); err != nil {
				return filled, err
			}
		}
		i, s := ms.sample()
		v := ms.vals[i][s]
		if math.IsNaN(v) {
			continue // failed probe: resample, like the sequential driver
		}
		ms.emitted++
		buf[filled] = Measurement{T: float64(ms.emitted) / n, I: i, J: ms.nb[i][s], Value: v}
		filled++
	}
	return filled, nil
}

// TraceSource replays a dataset's dynamic measurement trace in time
// order — the Harvard workload. The stream is finite: NextBatch returns
// io.EOF once the trace is exhausted. It has epoch structure
// (EpochStructure reports true), so Session.RunEpochs can train on
// per-epoch measurement groups instead of rejecting the dataset.
type TraceSource struct {
	trace []Measurement
	pos   int
}

// NewTraceSource builds a replay source over ds's trace.
func NewTraceSource(ds *Dataset) (*TraceSource, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrInvalidConfig)
	}
	if ds.Trace == nil {
		return nil, fmt.Errorf("%w: dataset %q has no dynamic trace", ErrInvalidConfig, ds.Name)
	}
	return &TraceSource{trace: ds.Trace}, nil
}

// EpochStructure reports that a trace can be consumed in epoch groups.
func (ts *TraceSource) EpochStructure() bool { return true }

// Cursor returns the replay position.
func (ts *TraceSource) Cursor() []uint64 { return []uint64{uint64(ts.pos)} }

// Seek restores the replay position on a fresh source.
func (ts *TraceSource) Seek(cur []uint64) error {
	if err := cursorLen(cur, 1, "trace source"); err != nil {
		return err
	}
	if cur[0] > uint64(len(ts.trace)) {
		return fmt.Errorf("trace cursor %d past the %d-record trace", cur[0], len(ts.trace))
	}
	ts.pos = int(cur[0])
	return nil
}

// NextBatch copies the next trace records into buf; io.EOF at the end.
func (ts *TraceSource) NextBatch(_ context.Context, buf []Measurement) (int, error) {
	if ts.pos >= len(ts.trace) {
		return 0, io.EOF
	}
	n := copy(buf, ts.trace[ts.pos:])
	ts.pos += n
	return n, nil
}

// StreamSource replays an NDJSON measurement stream — one
// {"t":…,"i":…,"j":…,"v":…} object per line, the format cmd/datagen
// -stream writes and WriteMeasurements produces from a live capture —
// without materializing it: records decode on demand, so a multi-hour
// capture replays in constant memory. Records are consumed in file
// order (captures are written in time order); a malformed or invalid
// record stops the stream with a descriptive error. The stream is
// finite and has epoch structure, like TraceSource.
type StreamSource struct {
	sc       *dataset.StreamScanner
	consumed uint64
	err      error
}

// NewStreamSource builds a replay source reading NDJSON from r.
func NewStreamSource(r io.Reader) *StreamSource {
	return &StreamSource{sc: dataset.NewStreamScanner(r)}
}

// EpochStructure reports that a capture can be consumed in epoch groups.
func (ss *StreamSource) EpochStructure() bool { return true }

// Cursor returns the number of records consumed.
func (ss *StreamSource) Cursor() []uint64 { return []uint64{ss.consumed} }

// Seek skips cur[0] records on a freshly opened source (the underlying
// reader must be positioned at the start of the same capture). A
// capture too short to skip that far fails the seek.
func (ss *StreamSource) Seek(cur []uint64) error {
	if err := cursorLen(cur, 1, "stream source"); err != nil {
		return err
	}
	var m Measurement
	for ss.consumed < cur[0] {
		if err := ss.sc.Next(&m); err != nil {
			return fmt.Errorf("stream cursor %d unreachable after %d records: %w", cur[0], ss.consumed, err)
		}
		ss.consumed++
	}
	return nil
}

// NextBatch decodes up to len(buf) records; io.EOF at a clean end of
// stream, a parse error (sticky) otherwise.
func (ss *StreamSource) NextBatch(_ context.Context, buf []Measurement) (int, error) {
	if ss.err != nil {
		return 0, ss.err
	}
	filled := 0
	for filled < len(buf) {
		if err := ss.sc.Next(&buf[filled]); err != nil {
			ss.err = err
			if filled > 0 && err == io.EOF {
				return filled, nil
			}
			return filled, err
		}
		filled++
		ss.consumed++
	}
	return filled, nil
}

// WriteMeasurements writes measurements as an NDJSON stream consumable
// by NewStreamSource — the capture half of the replay story (write what
// a SwarmSource observed, replay it deterministically later).
func WriteMeasurements(w io.Writer, ms []Measurement) error {
	return dataset.WriteStream(w, ms)
}

// ReadMeasurements materializes a whole NDJSON stream. Replay should
// prefer NewStreamSource, which streams in constant memory.
func ReadMeasurements(r io.Reader) ([]Measurement, error) {
	return dataset.ReadStream(r)
}

// --- Scenario decorators ---

// nodeUniform returns a deterministic uniform in [0,1) for (seed, i) —
// used to select scenario-affected node subsets without consuming any
// stream randomness. Per-node streams derive with engine.DeriveSeed,
// the same splitmix64 construction the parallel scheduler uses.
func nodeUniform(seed int64, i int) float64 {
	return rand.New(rand.NewSource(engine.DeriveSeed(seed, i))).Float64()
}

// ChurnConfig parameterizes WithChurn.
type ChurnConfig struct {
	// Start is the stream time at which churn begins; before it every
	// node is up.
	Start float64
	// MeanUp and MeanDown are the mean online/offline durations, in the
	// stream's time unit (exponentially distributed). Both must be
	// positive.
	MeanUp, MeanDown float64
	// Fraction is the fraction of nodes that churn (selected
	// deterministically from Seed); the rest stay up forever. 0 means
	// every node churns.
	Fraction float64
	// Seed drives the per-node on/off schedules.
	Seed int64
}

// churnNode is one node's alternating-renewal schedule, generated
// lazily from its private stream: deterministic for (Seed, node)
// regardless of which measurements happen to query it.
type churnNode struct {
	rng  *rand.Rand
	up   bool
	next float64 // stream time of the next state toggle
}

type churnSource struct {
	src   Source
	cfg   ChurnConfig
	nodes map[int]*churnNode
}

// WithChurn decorates src with node churn: churning nodes alternate
// between online and offline periods (exponential with means MeanUp and
// MeanDown), and measurements whose observer or target is offline at
// their stream time are dropped — the path was not probed because one
// endpoint was gone. Node state is a deterministic function of the
// config, so a churned stream replays identically. Panics on a
// non-positive MeanUp/MeanDown or a Fraction outside [0,1].
func WithChurn(src Source, cfg ChurnConfig) Source {
	if !(cfg.MeanUp > 0) || !(cfg.MeanDown > 0) {
		panic(fmt.Sprintf("dmfsgd: WithChurn means must be positive, got up=%v down=%v", cfg.MeanUp, cfg.MeanDown))
	}
	if cfg.Fraction < 0 || cfg.Fraction > 1 || math.IsNaN(cfg.Fraction) {
		panic(fmt.Sprintf("dmfsgd: WithChurn fraction %v out of [0,1]", cfg.Fraction))
	}
	if cfg.Fraction == 0 {
		cfg.Fraction = 1
	}
	return &churnSource{src: src, cfg: cfg, nodes: make(map[int]*churnNode)}
}

// Unwrap returns the decorated source.
func (c *churnSource) Unwrap() Source { return c.src }

// alive reports whether node i is up at stream time t, advancing its
// schedule as needed.
func (c *churnSource) alive(i int, t float64) bool {
	if t < c.cfg.Start {
		return true
	}
	st := c.nodes[i]
	if st == nil {
		rng := rand.New(rand.NewSource(engine.DeriveSeed(c.cfg.Seed, i)))
		st = &churnNode{rng: rng, up: true, next: math.Inf(1)}
		if rng.Float64() < c.cfg.Fraction {
			st.next = c.cfg.Start + rng.ExpFloat64()*c.cfg.MeanUp
		}
		c.nodes[i] = st
	}
	for t >= st.next {
		st.up = !st.up
		mean := c.cfg.MeanUp
		if !st.up {
			mean = c.cfg.MeanDown
		}
		st.next += st.rng.ExpFloat64() * mean
	}
	return st.up
}

func (c *churnSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	for {
		n, err := c.src.NextBatch(ctx, buf)
		kept := 0
		for _, m := range buf[:n] {
			if c.alive(m.I, m.T) && c.alive(m.J, m.T) {
				buf[kept] = m
				kept++
			}
		}
		if kept > 0 || err != nil || n == 0 {
			return kept, err
		}
	}
}

// DriftConfig parameterizes WithDrift.
type DriftConfig struct {
	// Rate is the multiplicative drift per unit of stream time: a
	// measurement at time T is scaled by exp(Rate·(T−Start)). Positive
	// rates inflate the metric (RTTs degrade), negative deflate it.
	Rate float64
	// Start is the stream time at which the drift begins.
	Start float64
	// Fraction is the fraction of nodes whose paths drift (a
	// measurement drifts when either endpoint is affected), selected
	// deterministically from Seed. 0 means every node.
	Fraction float64
	// Seed selects the affected node subset.
	Seed int64
}

type driftSource struct {
	src      Source
	cfg      DriftConfig
	affCache map[int]bool
}

// WithDrift decorates src with a slow metric shift: affected
// measurements are scaled by exp(Rate·(T−Start)), modelling paths whose
// performance drifts away from the ground truth the predictor was
// trained on (congestion building up, a route change degrading a
// provider). Ground truth used for evaluation does not move, so drift
// shows up as label noise growing with time. Deterministic; panics on a
// non-finite Rate or a Fraction outside [0,1].
func WithDrift(src Source, cfg DriftConfig) Source {
	if math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) {
		panic(fmt.Sprintf("dmfsgd: WithDrift rate %v must be finite", cfg.Rate))
	}
	if cfg.Fraction < 0 || cfg.Fraction > 1 || math.IsNaN(cfg.Fraction) {
		panic(fmt.Sprintf("dmfsgd: WithDrift fraction %v out of [0,1]", cfg.Fraction))
	}
	if cfg.Fraction == 0 {
		cfg.Fraction = 1
	}
	return &driftSource{src: src, cfg: cfg, affCache: make(map[int]bool)}
}

// Unwrap returns the decorated source.
func (d *driftSource) Unwrap() Source { return d.src }

func (d *driftSource) affected(i int) bool {
	if d.cfg.Fraction == 1 {
		return true
	}
	aff, ok := d.affCache[i]
	if !ok {
		aff = nodeUniform(d.cfg.Seed, i) < d.cfg.Fraction
		d.affCache[i] = aff
	}
	return aff
}

func (d *driftSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	n, err := d.src.NextBatch(ctx, buf)
	for k := range buf[:n] {
		m := &buf[k]
		if m.T <= d.cfg.Start {
			continue
		}
		if d.affected(m.I) || d.affected(m.J) {
			m.Value *= math.Exp(d.cfg.Rate * (m.T - d.cfg.Start))
		}
	}
	return n, err
}

type noiseSource struct {
	src   Source
	sigma float64
	rng   *rand.Rand
	seen  uint64 // records noised; each consumed one NormFloat64
}

// WithNoise decorates src with lognormal measurement noise: each value
// is scaled by exp(σ·N(0,1) − σ²/2), a mean-preserving model of
// imperfect measurement tools. This folds the live-session
// WithMeasurementNoise knob into the ingestion layer, where it applies
// to every source. sigma 0 returns src unchanged; panics on a negative
// or non-finite sigma.
func WithNoise(src Source, sigma float64, seed int64) Source {
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		panic(fmt.Sprintf("dmfsgd: WithNoise sigma %v must be non-negative and finite", sigma))
	}
	if sigma == 0 {
		return src
	}
	return &noiseSource{src: src, sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Unwrap returns the decorated source.
func (ns *noiseSource) Unwrap() Source { return ns.src }

// Cursor returns the count of records noised so far.
func (ns *noiseSource) Cursor() []uint64 { return []uint64{ns.seen} }

// Seek fast-forwards a fresh decorator's private noise stream past the
// records already consumed (one normal draw per record).
func (ns *noiseSource) Seek(cur []uint64) error {
	if err := cursorLen(cur, 1, "noise decorator"); err != nil {
		return err
	}
	for ; ns.seen < cur[0]; ns.seen++ {
		ns.rng.NormFloat64()
	}
	return nil
}

func (ns *noiseSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	n, err := ns.src.NextBatch(ctx, buf)
	for k := range buf[:n] {
		buf[k].Value *= math.Exp(ns.rng.NormFloat64()*ns.sigma - ns.sigma*ns.sigma/2)
		ns.seen++
	}
	return n, err
}

type dropSource struct {
	src  Source
	rate float64
	rng  *rand.Rand
	seen uint64 // records considered; each consumed one Float64
}

// WithDrop decorates src with measurement loss: each measurement is
// independently dropped with the given probability, folding the
// live-session packet-loss knob (WithPacketLoss) into the ingestion
// layer. rate 0 returns src unchanged; panics on a rate outside [0,1).
func WithDrop(src Source, rate float64, seed int64) Source {
	if rate < 0 || rate >= 1 || math.IsNaN(rate) {
		panic(fmt.Sprintf("dmfsgd: WithDrop rate %v out of [0,1)", rate))
	}
	if rate == 0 {
		return src
	}
	return &dropSource{src: src, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Unwrap returns the decorated source.
func (ds *dropSource) Unwrap() Source { return ds.src }

// Cursor returns the count of records considered so far.
func (ds *dropSource) Cursor() []uint64 { return []uint64{ds.seen} }

// Seek fast-forwards a fresh decorator's private drop stream past the
// records already considered (one uniform draw per record).
func (ds *dropSource) Seek(cur []uint64) error {
	if err := cursorLen(cur, 1, "drop decorator"); err != nil {
		return err
	}
	for ; ds.seen < cur[0]; ds.seen++ {
		ds.rng.Float64()
	}
	return nil
}

func (ds *dropSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	for {
		n, err := ds.src.NextBatch(ctx, buf)
		kept := 0
		for _, m := range buf[:n] {
			ds.seen++
			if ds.rng.Float64() < ds.rate {
				continue
			}
			buf[kept] = m
			kept++
		}
		if kept > 0 || err != nil || n == 0 {
			return kept, err
		}
	}
}
