package load

import (
	"fmt"
	"math/rand"
	"time"

	"dmfsgd"
)

// Kind is a request kind.
type Kind uint8

const (
	// KindPredict is GET /predict?i=&j= (one pair).
	KindPredict Kind = iota
	// KindPredictBatch is POST /predict with a pair list.
	KindPredictBatch
	// KindRank is GET /rank?i=&candidates=.
	KindRank
)

// Request is one expanded request. At is the arrival offset from the
// phase start (0 for closed-loop phases, where clients self-pace).
type Request struct {
	At   time.Duration
	Kind Kind
	// I, J are the endpoints of a predict or the source of a rank.
	I, J int
	// Pairs is the predict-batch payload (nil otherwise).
	Pairs []dmfsgd.PathPair
	// Cands is the rank candidate set (nil otherwise).
	Cands []int
}

// Phase is one expanded phase: the (validated, defaulted) spec plus its
// request sequence in arrival order.
type Phase struct {
	Spec     PhaseSpec
	Requests []Request
}

// Workload is a fully expanded spec, bound to a node count.
type Workload struct {
	Spec   *WorkloadSpec
	N      int
	Phases []Phase
}

// nodeSampler draws node ids. The Zipf variant draws ranks from
// Zipf(s) and maps them through a seeded permutation of [0, n), so the
// popular nodes are scattered across the id space (and across store
// shards) instead of clustering at id 0.
type nodeSampler struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	n    int
}

func newNodeSampler(rng *rand.Rand, n int, s float64) *nodeSampler {
	ns := &nodeSampler{rng: rng, n: n}
	if s > 1 {
		ns.zipf = rand.NewZipf(rng, s, 1, uint64(n-1))
		ns.perm = rng.Perm(n)
	}
	return ns
}

func (ns *nodeSampler) next() int {
	if ns.zipf == nil {
		return ns.rng.Intn(ns.n)
	}
	return ns.perm[int(ns.zipf.Uint64())]
}

// nextPair draws an ordered pair of distinct nodes.
func (ns *nodeSampler) nextPair() (int, int) {
	i := ns.next()
	j := ns.next()
	if j == i {
		j = (j + 1) % ns.n
	}
	return i, j
}

// phaseSeed derives the phase's RNG seed: each phase gets an
// independent stream so editing one phase's request count does not
// shift the sequences of the others.
func phaseSeed(seed int64, phase int) int64 {
	return seed ^ int64(uint64(phase+1)*0x9E3779B97F4A7C15)
}

// Expand deterministically expands a validated spec against n nodes.
// The same spec, seed and n always yield the identical request
// sequence: every phase consumes one seeded RNG in a fixed order
// (arrival offsets first per request, then the kind draw, then the node
// draws), and nothing about the expansion depends on time, maps or
// scheduling.
func Expand(spec *WorkloadSpec, n int) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("load: expand against n=%d nodes, want ≥ 2", n)
	}
	w := &Workload{Spec: spec, N: n, Phases: make([]Phase, len(spec.Phases))}
	for pi, ph := range spec.Phases {
		rng := rand.New(rand.NewSource(phaseSeed(spec.Seed, pi)))
		ns := newNodeSampler(rng, n, ph.ZipfS)
		total := ph.Mix.Predict + ph.Mix.PredictBatch + ph.Mix.Rank
		reqs := make([]Request, ph.Requests)
		var at time.Duration
		for ri := range reqs {
			req := &reqs[ri]
			if ph.Arrival == "poisson" {
				at += time.Duration(rng.ExpFloat64() / ph.RateRPS * float64(time.Second))
				req.At = at
			}
			x := rng.Float64() * total
			switch {
			case x < ph.Mix.Predict:
				req.Kind = KindPredict
				req.I, req.J = ns.nextPair()
			case x < ph.Mix.Predict+ph.Mix.PredictBatch:
				req.Kind = KindPredictBatch
				req.Pairs = make([]dmfsgd.PathPair, ph.BatchSize)
				for b := range req.Pairs {
					i, j := ns.nextPair()
					req.Pairs[b] = dmfsgd.PathPair{I: i, J: j}
				}
			default:
				req.Kind = KindRank
				req.I = ns.next()
				k := ph.Candidates
				if k > n-1 {
					k = n - 1
				}
				req.Cands = make([]int, 0, k)
				seen := make(map[int]bool, k)
				for len(req.Cands) < k {
					j := ns.next()
					if j == req.I || seen[j] {
						j = ns.rng.Intn(ns.n) // rejection fallback keeps Zipf cheap
						if j == req.I || seen[j] {
							continue
						}
					}
					seen[j] = true
					req.Cands = append(req.Cands, j)
				}
			}
		}
		w.Phases[pi] = Phase{Spec: spec.Phases[pi], Requests: reqs}
	}
	return w, nil
}
