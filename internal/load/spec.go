// Package load expands the seeded request sequence that perfbench serve
// drives against dmfserve: a WorkloadSpec (a seed plus ordered phases,
// each with an arrival process, a predict / predict-batch / rank mix and
// Zipf-skewed node popularity) expands into per-phase requests, and
// ParsePrometheus reads the /metrics scrapes taken around them.
//
// Determinism contract: the same spec and seed expand to the identical
// request sequence (one seeded RNG per phase, consumed in a fixed
// order), so two runs against the same server send identical requests.
// Only the measured latencies vary with the host.
package load

import "fmt"

// SchemaSpec versions the workload spec format.
const SchemaSpec = "dmfload-spec/v1"

// WorkloadSpec is the top-level workload description: a seed plus an
// ordered list of phases (multi-period traffic — e.g. an open-loop phase
// at a fixed rate, then a closed loop, is two phases).
type WorkloadSpec struct {
	// Schema must be SchemaSpec (Validate fills it when empty).
	Schema string `json:"schema"`
	// Name labels the workload.
	Name string `json:"name,omitempty"`
	// Seed drives every random choice of the expansion.
	Seed int64 `json:"seed"`
	// Phases run in order; each is an independent arrival process.
	Phases []PhaseSpec `json:"phases"`
}

// PhaseSpec is one traffic period.
type PhaseSpec struct {
	// Name labels the phase.
	Name string `json:"name"`
	// Requests is the total request count of the phase.
	Requests int `json:"requests"`
	// Arrival selects the arrival process: "closed" (a fixed client pool,
	// each client issues its next request as soon as the previous
	// completes) or "poisson" (open loop, exponential inter-arrivals at
	// RateRPS).
	Arrival string `json:"arrival"`
	// Clients is the closed-loop pool size (and the open-loop in-flight
	// default).
	Clients int `json:"clients,omitempty"`
	// RateRPS is the open-loop mean arrival rate (poisson).
	RateRPS float64 `json:"rate_rps,omitempty"`
	// Mix weights the request kinds.
	Mix MixSpec `json:"mix"`
	// BatchSize is the pair count of each predict-batch request
	// (default 16).
	BatchSize int `json:"batch_size,omitempty"`
	// Candidates is the candidate-set size of each rank request
	// (default 64).
	Candidates int `json:"candidates,omitempty"`
	// ZipfS skews node popularity: s > 1 draws node ids from a Zipf(s)
	// distribution over a seeded permutation of [0, n); 0 means uniform.
	ZipfS float64 `json:"zipf_s,omitempty"`
}

// MixSpec weights the request kinds of a phase; weights are relative
// (they need not sum to 1) and at least one must be positive.
type MixSpec struct {
	Predict      float64 `json:"predict"`
	PredictBatch float64 `json:"predict_batch"`
	Rank         float64 `json:"rank"`
}

// Validate checks the spec and fills defaulted fields in place.
func (ws *WorkloadSpec) Validate() error {
	if ws.Schema == "" {
		ws.Schema = SchemaSpec
	}
	if ws.Schema != SchemaSpec {
		return fmt.Errorf("load: spec schema %q, want %q", ws.Schema, SchemaSpec)
	}
	if len(ws.Phases) == 0 {
		return fmt.Errorf("load: spec has no phases")
	}
	for i := range ws.Phases {
		ph := &ws.Phases[i]
		if ph.Name == "" {
			ph.Name = fmt.Sprintf("phase-%d", i)
		}
		if ph.Requests <= 0 {
			return fmt.Errorf("load: phase %q: requests %d, want > 0", ph.Name, ph.Requests)
		}
		switch ph.Arrival {
		case "closed":
			if ph.Clients <= 0 {
				ph.Clients = 8
			}
		case "poisson":
			if ph.RateRPS <= 0 {
				return fmt.Errorf("load: phase %q: poisson arrival needs rate_rps > 0", ph.Name)
			}
			if ph.Clients <= 0 {
				ph.Clients = 64
			}
		default:
			return fmt.Errorf("load: phase %q: arrival %q, want closed or poisson", ph.Name, ph.Arrival)
		}
		m := ph.Mix
		if m.Predict < 0 || m.PredictBatch < 0 || m.Rank < 0 || m.Predict+m.PredictBatch+m.Rank <= 0 {
			return fmt.Errorf("load: phase %q: mix weights must be ≥ 0 with a positive sum", ph.Name)
		}
		if ph.BatchSize <= 0 {
			ph.BatchSize = 16
		}
		if ph.Candidates <= 1 {
			ph.Candidates = 64
		}
		if ph.ZipfS != 0 && ph.ZipfS <= 1 {
			return fmt.Errorf("load: phase %q: zipf_s %v, want 0 (uniform) or > 1", ph.Name, ph.ZipfS)
		}
	}
	return nil
}
