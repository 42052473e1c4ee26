package runtime

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmfsgd/internal/dataset"
	"dmfsgd/internal/engine"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/oracle"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/transport"
)

// SwarmConfig parameterizes an in-process swarm of runtime nodes wired
// over the in-memory transport, with measurements served by dataset-backed
// oracles. This is the concurrent counterpart of sim.Driver.
type SwarmConfig struct {
	// Dataset supplies ground truth (topology, metric, values).
	Dataset *dataset.Dataset
	// SGD carries the factorization hyper-parameters.
	SGD sgd.Config
	// K is the neighbor count per node.
	K int
	// Tau is the classification threshold.
	Tau float64
	// ProbeInterval is each node's probing period (default 1ms, giving
	// roughly n probes per millisecond across the swarm).
	ProbeInterval time.Duration
	// MeasurementNoise is the lognormal sigma of RTT measurements and the
	// relative width of ABW near-τ errors. 0 = exact tools.
	MeasurementNoise float64
	// DropRate / DupRate inject transport-level failures.
	DropRate, DupRate float64
	// NetworkDelay, when true, delivers messages with a one-way delay of
	// RTT/2 scaled by WallClockUnit, and RTT nodes measure by wall clock
	// instead of consulting the oracle — the full "real" pipeline.
	NetworkDelay bool
	// WallClockUnit is the real duration of one network millisecond when
	// NetworkDelay is set (default 50µs: a 100ms path takes 5ms of real
	// time per round trip).
	WallClockUnit time.Duration
	// Shards partitions the swarm-wide coordinate store. 0 picks a default
	// that keeps shard-lock contention low (min(n, max(8, 2·GOMAXPROCS))).
	Shards int
	// Workers bounds the goroutines used by evaluation (0 = GOMAXPROCS).
	Workers int
	// Seed drives all randomness.
	Seed int64
}

// defaultShards sizes the store partition for an n-node swarm.
func defaultShards(n int) int {
	p := 2 * goruntime.GOMAXPROCS(0)
	if p < 8 {
		p = 8
	}
	if p > n {
		p = n
	}
	return p
}

// MeasurementObserver receives the measurements a swarm's nodes
// complete, timestamped with seconds since swarm construction. Called
// concurrently from node goroutines; implementations must be fast,
// never block, and tolerate being invoked after Swarm.Observe(nil).
type MeasurementObserver func(m dataset.Measurement)

// Swarm is a set of running nodes plus the bookkeeping to evaluate them
// against the ground truth.
type Swarm struct {
	cfg       SwarmConfig
	net       *transport.Network
	store     *engine.Store
	nodes     []*Node
	endpoints []*transport.Mem
	trainMask *mat.Mask
	neighbors [][]int

	// start anchors observed-measurement timestamps; obs is the dynamic
	// capture tap (nil when nobody listens).
	start time.Time
	obs   atomic.Pointer[MeasurementObserver]

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewSwarm builds the swarm (does not start it).
func NewSwarm(cfg SwarmConfig) (*Swarm, error) {
	ds := cfg.Dataset
	if ds == nil {
		return nil, fmt.Errorf("runtime: nil dataset")
	}
	n := ds.N()
	if cfg.K <= 0 || cfg.K >= n {
		return nil, fmt.Errorf("runtime: k=%d out of (0,%d)", cfg.K, n)
	}
	if err := cfg.SGD.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Millisecond
	}
	if cfg.WallClockUnit <= 0 {
		cfg.WallClockUnit = 50 * time.Microsecond
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards(n)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	trainMask, neighbors := mat.NeighborMask(n, cfg.K, ds.Metric.Symmetric(), rng)

	netCfg := transport.NetworkConfig{
		DropRate: cfg.DropRate,
		DupRate:  cfg.DupRate,
		QueueLen: 4096,
		Seed:     cfg.Seed + 1,
	}
	if cfg.NetworkDelay {
		unit := cfg.WallClockUnit
		netCfg.Delay = func(from, to string) time.Duration {
			var i, j int
			fmt.Sscanf(from, "node-%d", &i)
			fmt.Sscanf(to, "node-%d", &j)
			if i < 0 || j < 0 || i >= n || j >= n || ds.Matrix.IsMissing(i, j) {
				return unit // floor for unknown pairs
			}
			return time.Duration(ds.Matrix.At(i, j) / 2 * float64(unit))
		}
	}
	net := transport.NewNetwork(netCfg)

	var rttSrc RTTSource
	var abwSrc ABWClassSource
	if ds.Metric == dataset.RTT {
		if !cfg.NetworkDelay {
			rttSrc = oracle.NewRTT(ds.Matrix, cfg.MeasurementNoise, cfg.Seed+2)
		}
		// With NetworkDelay the nodes measure wall-clock elapsed time.
	} else {
		abwSrc = oracle.NewABWClass(ds, cfg.MeasurementNoise, cfg.Seed+2)
	}

	s := &Swarm{
		cfg:       cfg,
		net:       net,
		store:     engine.NewStore(n, cfg.SGD.Rank, cfg.Shards),
		trainMask: trainMask,
		neighbors: neighbors,
		start:     time.Now(),
	}
	for i := 0; i < n; i++ {
		addr := swarmAddr(i)
		ep := net.Attach(addr)
		nbrs := make(map[uint32]string, cfg.K)
		for _, j := range neighbors[i] {
			nbrs[uint32(j)] = swarmAddr(j)
		}
		node, err := NewNode(Config{
			ID:            uint32(i),
			Metric:        ds.Metric,
			SGD:           cfg.SGD,
			Tau:           cfg.Tau,
			Neighbors:     nbrs,
			ProbeInterval: cfg.ProbeInterval,
			RTT:           rttSrc,
			ABW:           abwSrc,
			WallClockUnit: cfg.WallClockUnit,
			Coords:        s.store.Ref(i),
			Observe:       s.observe,
			Seed:          cfg.Seed + 100 + int64(i),
		}, ep)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		s.endpoints = append(s.endpoints, ep)
	}
	return s, nil
}

func swarmAddr(i int) string { return fmt.Sprintf("node-%d", i) }

// Start launches every node goroutine.
func (s *Swarm) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for _, node := range s.nodes {
		s.wg.Add(1)
		go func(nd *Node) {
			defer s.wg.Done()
			nd.Run(ctx)
		}(node)
	}
}

// Stop cancels all nodes and waits for them to exit.
func (s *Swarm) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	for _, ep := range s.endpoints {
		ep.Close()
	}
}

// Observe installs the swarm's measurement observer and returns a
// cancel that detaches it — but only while it is still the installed
// one, so cancelling a replaced observer never silently detaches its
// successor. At most one observer is active at a time; installing a new
// one replaces the previous. Safe to call while the swarm runs: node
// goroutines load the pointer per measurement.
func (s *Swarm) Observe(fn MeasurementObserver) (cancel func()) {
	p := &fn
	s.obs.Store(p)
	return func() { s.obs.CompareAndSwap(p, nil) }
}

// observe is the per-node tap: timestamp and forward to the installed
// observer, if any.
func (s *Swarm) observe(self, peer int, value float64) {
	fn := s.obs.Load()
	if fn == nil || *fn == nil {
		return
	}
	(*fn)(dataset.Measurement{T: time.Since(s.start).Seconds(), I: self, J: peer, Value: value})
}

// Node returns node i.
func (s *Swarm) Node(i int) *Node { return s.nodes[i] }

// N returns the swarm size.
func (s *Swarm) N() int { return len(s.nodes) }

// Store returns the swarm-wide sharded coordinate store.
func (s *Swarm) Store() *engine.Store { return s.store }

// TrainMask returns the observation mask induced by the neighbor topology
// (shared; do not modify).
func (s *Swarm) TrainMask() *mat.Mask { return s.trainMask }

// Neighbors returns node i's neighbor set (shared slice; do not modify).
func (s *Swarm) Neighbors(i int) []int { return s.neighbors[i] }

// TotalStats aggregates all node counters.
func (s *Swarm) TotalStats() Stats {
	var t Stats
	for _, nd := range s.nodes {
		st := nd.Stats()
		t.ProbesSent += st.ProbesSent
		t.RepliesReceived += st.RepliesReceived
		t.Updates += st.Updates
		t.Rejected += st.Rejected
		t.Stale += st.Stale
		t.DecodeErrors += st.DecodeErrors
	}
	return t
}

// EvalSet snapshots all coordinates (one read-lock per shard, consistent
// per shard even while nodes keep updating) and returns ground-truth
// labels and scores over the unmeasured pairs, like sim.Driver.EvalSet.
// Label computation and prediction run block-parallel over the pair list
// (cfg.Workers goroutines, 0 = GOMAXPROCS).
func (s *Swarm) EvalSet(maxPairs int) (labels, scores []float64) {
	labels, scores, _ = s.EvalSetCtx(context.Background(), maxPairs)
	return labels, scores
}

// EvalSetCtx is EvalSet with cancellation of the block-parallel label and
// score sweeps (see engine.EvalSetCtx).
func (s *Swarm) EvalSetCtx(ctx context.Context, maxPairs int) (labels, scores []float64, err error) {
	ds := s.cfg.Dataset
	return engine.EvalSetCtx(ctx, s.store, engine.EvalSpec{
		Mask:          s.trainMask,
		Truth:         ds.Matrix,
		Metric:        ds.Metric,
		Tau:           s.cfg.Tau,
		MaxPairs:      maxPairs,
		SubsampleSeed: s.cfg.Seed + 7919,
		Workers:       s.cfg.Workers,
	})
}

// AUC evaluates the swarm's current prediction quality.
func (s *Swarm) AUC(maxPairs int) float64 {
	labels, scores := s.EvalSet(maxPairs)
	return eval.AUC(labels, scores)
}
