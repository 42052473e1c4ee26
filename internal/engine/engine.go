package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"

	"dmfsgd/internal/sgd"
)

// Config parameterizes an Engine.
type Config struct {
	// SGD carries the factorization hyper-parameters (rank, η, λ, loss).
	SGD sgd.Config
	// TrainScale divides training labels before the SGD update (0 = 1).
	TrainScale float64
	// Symmetric selects Algorithm 1 (one sample updates both of the
	// measuring node's vectors); false selects the one-sided Algorithm 2
	// updates.
	Symmetric bool
	// Shards is the coordinate-store partition count P (0 = 1). Sequential
	// results are independent of P; parallel epochs speed up with it.
	Shards int
	// Workers bounds the goroutines used by parallel epochs and evaluation
	// (0 = GOMAXPROCS). More workers than shards is never useful for
	// training.
	Workers int
	// Seed derives the per-node RNG streams of the parallel scheduler. The
	// sequential master stream is the rng passed to New, which the caller
	// seeds (and typically has already used for neighbor selection).
	Seed int64
}

// Engine executes DMFSGD training over a sharded coordinate store. It owns
// the store, the neighbor topology with its training labels, and both
// execution modes (sequential Gauss-Seidel steps and parallel epochs).
type Engine struct {
	cfg       Config
	scale     float64
	store     *Store
	neighbors [][]int
	lab       [][]float64 // lab[i][s]: label of (i, neighbors[i][s]), NaN when missing
	rng       *rand.Rand
	steps     int

	// Parallel-epoch state, built lazily on first RunEpoch.
	nodeRNG  []*rand.Rand
	nodeSrc  []*CountingSource // counting sources behind nodeRNG (checkpointing)
	snapU    []float64
	snapV    []float64
	snapVers []uint64          // store versions snapU/snapV were copied at
	out      [][][]abwDelivery // [src shard][dst shard] outboxes, each sender's in k order
	inmail   [][]abwDelivery   // per-dst inbound routed updates in (sender, k) order (cluster apply)
	merged   [][]abwDelivery   // per-dst drain scratch: outboxes merged in (sender, k) order
	inbox    [][]abwDelivery   // per-dst drain scratch: deliveries in (target, sender, k) order
	off      [][]int           // per-dst drain scratch: counting-pass bucket offsets, ⌈n/P⌉+1 each
	counts   []int             // per-shard success counts
	dirty    []bool            // shards written this epoch (version bump at barrier)
	groups   [][]int32         // per-shard sample indices (batch apply scratch)
}

// New builds an engine over the given topology: neighbors has one list
// per node, and label(i, j) gives the training label of the pair (i, j),
// NaN when it is missing — a matrix caller passes its At method. The
// engine reads label once per neighbor slot, into a table of the n·k
// labels the protocol can ever probe (see SlotTable), and keeps no
// matrix. rng is the master sequential stream — the caller seeds it and
// may already have consumed draws from it (neighbor-mask construction);
// New consumes exactly 2·rank·n further draws initializing the store,
// preserving historical fixed-seed streams.
func New(label func(i, j int) float64, neighbors [][]int, rng *rand.Rand, cfg Config) (*Engine, error) {
	if err := cfg.SGD.Validate(); err != nil {
		return nil, err
	}
	n := len(neighbors)
	if n == 0 {
		return nil, fmt.Errorf("engine: empty topology")
	}
	if cfg.TrainScale == 0 {
		cfg.TrainScale = 1
	}
	if cfg.TrainScale < 0 {
		return nil, fmt.Errorf("engine: TrainScale must be positive, got %v", cfg.TrainScale)
	}
	store := NewStore(n, cfg.SGD.Rank, cfg.Shards)
	store.InitUniform(rng)
	return &Engine{
		cfg:       cfg,
		scale:     cfg.TrainScale,
		store:     store,
		neighbors: neighbors,
		lab:       SlotTable(neighbors, label),
		rng:       rng,
	}, nil
}

// SlotTable returns the neighbor-slot table of a topology: row i holds
// f(i, neighbors[i][s]) at slot s, and the rows are windows of one
// backing array of Σ|neighbors[i]| values. It is what a node keeps of
// the network under the paper's k-neighbor architecture — n·k values
// rather than an n×n matrix.
func SlotTable(neighbors [][]int, f func(i, j int) float64) [][]float64 {
	total := 0
	for _, nb := range neighbors {
		total += len(nb)
	}
	back := make([]float64, total)
	tab := make([][]float64, len(neighbors))
	for i, nb := range neighbors {
		tab[i], back = back[:len(nb):len(nb)], back[len(nb):]
	}
	fillSlots(tab, neighbors, f)
	return tab
}

// fillSlots writes f(i, neighbors[i][s]) into every slot of tab.
func fillSlots(tab [][]float64, neighbors [][]int, f func(i, j int) float64) {
	for i, nb := range neighbors {
		for s, j := range nb {
			tab[i][s] = f(i, j)
		}
	}
}

// Store returns the engine's coordinate store.
func (e *Engine) Store() *Store { return e.store }

// N returns the node count.
func (e *Engine) N() int { return e.store.n }

// Steps returns the number of successful updates so far (both modes).
func (e *Engine) Steps() int { return e.steps }

// SetSteps overwrites the cumulative update counter — checkpoint
// restore only, paired with Store.SetShardBlock.
func (e *Engine) SetSteps(steps int) { e.steps = steps }

// NodeDraws returns the per-node epoch-stream draw counts, or nil when
// the parallel scheduler has never run (no per-node streams exist yet).
// Part of the checkpoint capture: restoring these counts via
// RestoreNodeDraws makes resumed epoch training continue the streams
// bit-identically.
func (e *Engine) NodeDraws() []uint64 {
	if e.nodeSrc == nil {
		return nil
	}
	out := make([]uint64, len(e.nodeSrc))
	for i, src := range e.nodeSrc {
		out[i] = src.Draws()
	}
	return out
}

// RestoreNodeDraws fast-forwards the per-node epoch streams to the
// given draw counts (len 0 = the checkpoint was taken before any epoch
// ran: nothing to do). Call before any training on a freshly built
// engine.
func (e *Engine) RestoreNodeDraws(draws []uint64) error {
	if len(draws) == 0 {
		return nil
	}
	if len(draws) != e.store.n {
		return fmt.Errorf("engine: %d node draw counts for %d nodes", len(draws), e.store.n)
	}
	e.ensureEpochState()
	for i, d := range draws {
		if err := e.nodeSrc[i].FastForward(d); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// SetLabels replaces the training labels mid-run (network dynamics):
// every neighbor slot is refilled in place from label(i, j), with NaN
// marking a missing pair, as in New.
func (e *Engine) SetLabels(label func(i, j int) float64) {
	fillSlots(e.lab, e.neighbors, label)
}

// Predict returns x̂ᵢⱼ = uᵢ·vⱼᵀ from the live store (exclusive contexts).
func (e *Engine) Predict(i, j int) float64 {
	return sgd.Predict(e.store.Coord(i).U, e.store.Coord(j).V)
}

// Step performs one sequential protocol exchange: the master stream picks a
// random node and one of its neighbor slots (SampleProbe), the slot's
// label is read from the table, and the metric-appropriate update rules
// fire. Returns false when the sampled pair has no label.
func (e *Engine) Step() bool {
	i, s := e.SampleProbe()
	x := e.lab[i][s]
	if math.IsNaN(x) {
		return false
	}
	e.applyValue(i, e.neighbors[i][s], x/e.scale)
	return true
}

// SampleProbe draws the next probe from the master sequential stream
// without applying an update: node i, and the slot s of the neighbor it
// probes, neighbors[i][s]. It is the sampling half of Step, exposed so an
// external measurement source (the ingestion layer's MatrixSource) can
// reproduce the sequential probe schedule exactly: draining such a source
// through ApplyLabel is bit-identical to running Step, because both
// consume the same draws from the same stream.
func (e *Engine) SampleProbe() (i, s int) {
	i = e.rng.Intn(e.store.n)
	return i, e.rng.Intn(len(e.neighbors[i]))
}

// ApplyLabel consumes an externally supplied label for pair (i, j) — the
// trace-replay path, where labels come from the measurement stream rather
// than the engine's slot table.
func (e *Engine) ApplyLabel(i, j int, label float64) {
	e.applyValue(i, j, label/e.scale)
}

// applyValue fires the update rules for a scaled sample, Gauss-Seidel
// style: updates land in the live store immediately. Each touched shard's
// version advances with the write (this runs in the exclusive discipline,
// so no locking is needed).
func (e *Engine) applyValue(i, j int, x float64) {
	if e.cfg.Symmetric {
		// Algorithm 1 (RTT): the sender i infers x and updates both its
		// vectors against j's.
		e.cfg.SGD.UpdateRTT(e.store.Coord(i), e.store.Coord(j).U, e.store.Coord(j).V, x)
		e.store.bump(i)
	} else {
		// Algorithm 2 (ABW): the target j infers x, updates vⱼ with the uᵢ
		// carried by the probe, and replies with (x, vⱼ); i updates uᵢ.
		// The reply carries vⱼ as it was when sent (step 3 precedes step 4),
		// i.e. the pre-update value.
		cj := e.store.Coord(j)
		vj := append([]float64(nil), cj.V...)
		e.cfg.SGD.UpdateABWTarget(cj, e.store.Coord(i).U, x)
		e.cfg.SGD.UpdateABWSender(e.store.Coord(i), vj, x)
		e.store.bump(i)
		e.store.bump(j)
	}
	e.steps++
	mSteps.Inc()
}

// Run performs total successful sequential steps (missing-data probes are
// retried and do not count).
func (e *Engine) Run(total int) {
	for done := 0; done < total; {
		if e.Step() {
			done++
		}
	}
}

// ctxCheckMask throttles context polling on hot loops: the context is
// consulted once every ctxCheckMask+1 iterations.
const ctxCheckMask = 4095

// RunCtx performs up to total successful sequential steps, polling ctx
// every few thousand probe attempts (attempts, not successes, so a sparse
// label matrix cannot stall cancellation). It returns the number of
// successful steps performed and, when interrupted, the context's error.
// The store is always left in a valid state: a cancelled run simply
// stopped after fewer measurements.
func (e *Engine) RunCtx(ctx context.Context, total int) (int, error) {
	done := 0
	for attempts := 0; done < total; attempts++ {
		if attempts&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return done, err
			}
		}
		if e.Step() {
			done++
		}
	}
	return done, nil
}

// workers resolves the effective worker count.
func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return goruntime.GOMAXPROCS(0)
}
