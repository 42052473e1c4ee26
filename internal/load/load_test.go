package load

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"time"
)

// smallSpec is a quick three-phase spec covering every arrival process,
// every request kind, a zero mix weight and a steep Zipf skew.
func smallSpec() *WorkloadSpec {
	return &WorkloadSpec{
		Schema: SchemaSpec,
		Name:   "test",
		Seed:   7,
		Phases: []PhaseSpec{
			{Name: "c", Requests: 300, Arrival: "closed", Clients: 4,
				Mix: MixSpec{Predict: 1, PredictBatch: 1, Rank: 1}, BatchSize: 4, Candidates: 8},
			{Name: "p", Requests: 300, Arrival: "poisson", RateRPS: 1e6, Clients: 4,
				Mix: MixSpec{Predict: 1, PredictBatch: 1, Rank: 1}, ZipfS: 1.3, BatchSize: 4, Candidates: 8},
			{Name: "z", Requests: 300, Arrival: "closed", Clients: 4,
				Mix: MixSpec{Predict: 2, Rank: 1}, Candidates: 8, ZipfS: 2},
		},
	}
}

// TestExpandDeterministic is the harness's core contract: the same spec,
// seed and node count expand to the identical request sequence.
func TestExpandDeterministic(t *testing.T) {
	a, err := Expand(smallSpec(), 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(smallSpec(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}
	// And a different seed must actually change the sequence.
	sp := smallSpec()
	sp.Seed = 8
	c, err := Expand(sp, 200)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for pi := range c.Phases {
		if !reflect.DeepEqual(a.Phases[pi].Requests, c.Phases[pi].Requests) {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not change the expansion")
	}
}

// TestExpandPhaseIndependence: phases draw from independent streams, so
// resizing one phase leaves the others' sequences untouched.
func TestExpandPhaseIndependence(t *testing.T) {
	a, err := Expand(smallSpec(), 200)
	if err != nil {
		t.Fatal(err)
	}
	sp := smallSpec()
	sp.Phases[0].Requests = 10
	b, err := Expand(sp, 200)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 1; pi < len(a.Phases); pi++ {
		if !reflect.DeepEqual(a.Phases[pi].Requests, b.Phases[pi].Requests) {
			t.Fatalf("phase %d changed when phase 0 was resized", pi)
		}
	}
}

// TestExpandShape checks bounds, pair distinctness, candidate
// uniqueness, nondecreasing arrival offsets and mix adherence.
func TestExpandShape(t *testing.T) {
	const n = 150
	w, err := Expand(smallSpec(), n)
	if err != nil {
		t.Fatal(err)
	}
	for pi, ph := range w.Phases {
		if len(ph.Requests) != ph.Spec.Requests {
			t.Fatalf("phase %d: %d requests, want %d", pi, len(ph.Requests), ph.Spec.Requests)
		}
		var prev int64 = -1
		kinds := map[Kind]int{}
		for ri := range ph.Requests {
			req := &ph.Requests[ri]
			kinds[req.Kind]++
			if at := req.At.Nanoseconds(); at < prev {
				t.Fatalf("phase %d req %d: arrival %d before %d", pi, ri, at, prev)
			} else {
				prev = at
			}
			switch req.Kind {
			case KindPredict:
				if req.I == req.J || req.I < 0 || req.I >= n || req.J < 0 || req.J >= n {
					t.Fatalf("phase %d req %d: bad pair (%d,%d)", pi, ri, req.I, req.J)
				}
			case KindPredictBatch:
				if len(req.Pairs) != ph.Spec.BatchSize {
					t.Fatalf("phase %d req %d: %d pairs, want %d", pi, ri, len(req.Pairs), ph.Spec.BatchSize)
				}
				for _, p := range req.Pairs {
					if p.I == p.J || p.I < 0 || p.I >= n || p.J < 0 || p.J >= n {
						t.Fatalf("phase %d req %d: bad pair (%d,%d)", pi, ri, p.I, p.J)
					}
				}
			case KindRank:
				if len(req.Cands) != ph.Spec.Candidates {
					t.Fatalf("phase %d req %d: %d candidates, want %d", pi, ri, len(req.Cands), ph.Spec.Candidates)
				}
				seen := map[int]bool{}
				for _, j := range req.Cands {
					if j == req.I || j < 0 || j >= n || seen[j] {
						t.Fatalf("phase %d req %d: bad candidate %d", pi, ri, j)
					}
					seen[j] = true
				}
			}
		}
		for k, c := range kinds {
			if c == 0 {
				t.Fatalf("phase %d: no %v requests", pi, k)
			}
		}
		if pi == 2 && kinds[KindPredictBatch] != 0 {
			t.Fatalf("phase 2: %d batch requests with zero weight", kinds[KindPredictBatch])
		}
	}
}

// serveSpec is the spec perfbench serve expands (perfbench/serve.go,
// buildRequests) at rate req/s over an open phase of phaseA.
func serveSpec(seed int64, rate float64, phaseA time.Duration) *WorkloadSpec {
	mix := MixSpec{Predict: 0.6, PredictBatch: 0.2, Rank: 0.2}
	return &WorkloadSpec{
		Schema: SchemaSpec,
		Name:   "perfbench-serve",
		Seed:   seed,
		Phases: []PhaseSpec{
			{Name: "open", Requests: int(rate * phaseA.Seconds()), Arrival: "poisson", Clients: 2,
				RateRPS: rate, Mix: mix, BatchSize: 32, Candidates: 64, ZipfS: 1.2},
			{Name: "closed", Requests: 20000, Arrival: "closed", Clients: 2,
				Mix: mix, BatchSize: 32, Candidates: 64, ZipfS: 1.2},
		},
	}
}

// expansionHash is FNV-64a over every request's At, Kind, I, J, Pairs and
// Cands, phase by phase, each value as 8 little-endian bytes and each
// list behind its length.
func expansionHash(w *Workload) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, ph := range w.Phases {
		put(int64(len(ph.Requests)))
		for k := range ph.Requests {
			r := &ph.Requests[k]
			put(int64(r.At))
			put(int64(r.Kind))
			put(int64(r.I))
			put(int64(r.J))
			put(int64(len(r.Pairs)))
			for _, p := range r.Pairs {
				put(int64(p.I))
				put(int64(p.J))
			}
			put(int64(len(r.Cands)))
			for _, c := range r.Cands {
				put(int64(c))
			}
		}
	}
	return h.Sum64()
}

// TestExpandGolden pins the request sequence perfbench serve drives, at
// its toy size (n = 200, 300 req/s for 1 s) and its gated size (n = 2500,
// 1000 req/s for 60% of 15 s): a change to Validate or Expand that moves
// one request changes the benchmark's input and fails here.
func TestExpandGolden(t *testing.T) {
	cases := []struct {
		n      int
		rate   float64
		phaseA time.Duration
		seed   int64
		want   uint64
	}{
		{200, 300, time.Second, 1, 0xfff7c8034483c243},
		{200, 300, time.Second, 2, 0xb0d2e208ad602bed},
		{200, 300, time.Second, 3, 0x73bd85d2b0d90797},
		{2500, 1000, 9 * time.Second, 1, 0xa566e278bf39049f},
		{2500, 1000, 9 * time.Second, 2, 0xcd915509fbb920c9},
		{2500, 1000, 9 * time.Second, 3, 0xffe76ddf2ee68f51},
	}
	for _, c := range cases {
		w, err := Expand(serveSpec(c.seed, c.rate, c.phaseA), c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := expansionHash(w); got != c.want {
			t.Errorf("n=%d seed=%d: expansion hash %#016x, want %#016x", c.n, c.seed, got, c.want)
		}
	}
}

// TestValidateRejects: every malformed spec fails validation.
func TestValidateRejects(t *testing.T) {
	mix := MixSpec{Predict: 1}
	phase := func(edit func(*PhaseSpec)) []PhaseSpec {
		ph := PhaseSpec{Name: "x", Requests: 1, Arrival: "closed", Mix: mix}
		edit(&ph)
		return []PhaseSpec{ph}
	}
	bad := []struct {
		name string
		ws   WorkloadSpec
	}{
		{"schema", WorkloadSpec{Schema: "other/v9", Phases: phase(func(*PhaseSpec) {})}},
		{"no phases", WorkloadSpec{}},
		{"zero requests", WorkloadSpec{Phases: phase(func(ph *PhaseSpec) { ph.Requests = 0 })}},
		{"unknown arrival", WorkloadSpec{Phases: phase(func(ph *PhaseSpec) { ph.Arrival = "warp" })}},
		{"burst arrival", WorkloadSpec{Phases: phase(func(ph *PhaseSpec) { ph.Arrival = "burst" })}},
		{"poisson without rate", WorkloadSpec{Phases: phase(func(ph *PhaseSpec) { ph.Arrival = "poisson" })}},
		{"empty mix", WorkloadSpec{Phases: phase(func(ph *PhaseSpec) { ph.Mix = MixSpec{} })}},
		{"zipf in (0, 1]", WorkloadSpec{Phases: phase(func(ph *PhaseSpec) { ph.ZipfS = 0.5 })}},
	}
	for _, c := range bad {
		if err := c.ws.Validate(); err == nil {
			t.Errorf("%s: spec accepted", c.name)
		}
	}
	ok := WorkloadSpec{Phases: phase(func(*PhaseSpec) {})}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}
