package load

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"dmfsgd/internal/dataset"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
)

// TrainResult is one engine-epoch benchmark case: the sharded parallel
// training loop at a given Meridian scale and shard count, measured via
// testing.Benchmark (the same cases bench_test.go tracks, callable from
// the dmfload binary so CI can emit BENCH_train.json without the test
// harness).
type TrainResult struct {
	Name          string  `json:"name"`
	N             int     `json:"n"`
	Shards        int     `json:"shards"`
	ProbesPerNode int     `json:"probes_per_node"`
	Iters         int     `json:"iters"`
	NsPerOp       float64 `json:"ns_per_op"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
}

// TrainCase names one benchmark configuration.
type TrainCase struct {
	N, Shards int
}

// DefaultTrainCases is the standard sweep (matches the
// BenchmarkEngineEpochMeridian* series).
func DefaultTrainCases(full bool) []TrainCase {
	cases := []TrainCase{{1000, 1}, {1000, 4}, {1000, 8}}
	if full {
		cases = append(cases, TrainCase{2500, 1}, TrainCase{2500, 4}, TrainCase{2500, 8})
	}
	return cases
}

// TrainBench runs the engine-epoch benchmark sweep. Each case trains one
// full epoch (probes measurements per node) per iteration on a seeded
// Meridian dataset. Benchstat-compatible lines are streamed to w (pass
// io.Discard to silence), so CI can feed the output straight to
// benchstat while the structured results land in BENCH_train.json.
func TrainBench(cases []TrainCase, probes int, w io.Writer) ([]TrainResult, error) {
	if probes <= 0 {
		probes = 32
	}
	datasets := map[int]*dataset.Dataset{}
	out := make([]TrainResult, 0, len(cases))
	for _, c := range cases {
		ds, ok := datasets[c.N]
		if !ok {
			ds = dataset.Meridian(dataset.MeridianConfig{N: c.N, Seed: 1})
			datasets[c.N] = ds
		}
		drv, err := sim.ClassDriver(ds, ds.Median(), sim.Config{
			SGD:     sgd.Defaults(),
			K:       32,
			Shards:  c.Shards,
			Workers: c.Shards,
			Seed:    1,
		})
		if err != nil {
			return out, fmt.Errorf("load: train case n=%d shards=%d: %w", c.N, c.Shards, err)
		}
		drv.RunEpochs(1, 1) // warm RNG streams and buffers outside the timed region
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drv.RunEpochs(1, probes)
			}
		})
		updatesPerOp := float64(c.N * probes)
		nsPerOp := float64(r.NsPerOp())
		tr := TrainResult{
			Name:          fmt.Sprintf("EngineEpochMeridian%dShards%d", c.N, c.Shards),
			N:             c.N,
			Shards:        c.Shards,
			ProbesPerNode: probes,
			Iters:         r.N,
			NsPerOp:       nsPerOp,
			UpdatesPerSec: updatesPerOp / (nsPerOp / 1e9),
			AllocsPerOp:   r.AllocsPerOp(),
			BytesPerOp:    r.AllocedBytesPerOp(),
		}
		out = append(out, tr)
		if w != nil {
			// The standard bench line format benchstat parses.
			fmt.Fprintf(w, "Benchmark%s-%d\t%s\t%s\n", tr.Name, runtime.GOMAXPROCS(0), r.String(), r.MemString())
		}
	}
	return out, nil
}
