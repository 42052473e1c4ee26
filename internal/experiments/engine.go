package experiments

import (
	"fmt"

	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
)

// EngineScaling exercises the sharded parallel engine on the Meridian
// workload: the same epoch-training budget executed on 1, 2, 4 and 8
// shards. The AUC column is the determinism witness — the scheduler
// guarantees bit-identical coordinates for every shard count at a fixed
// seed, so every row must report the same value while wall-clock drops
// with cores (measured by the engine benchmarks, not here: table output
// stays deterministic).
func EngineScaling(b *Bundle) []Table {
	ds := b.Meridian()
	k := b.K(ds)
	t := Table{
		Title:  "Engine scaling — Meridian epoch training, fixed seed across shard counts",
		Header: []string{"shards", "epochs", "probes/node", "updates", "auc"},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := sim.Config{
			SGD:     sgd.Defaults(),
			K:       k,
			Shards:  shards,
			Workers: shards,
			Seed:    b.O.Seed,
		}
		drv, err := sim.ClassDriver(ds, ds.Median(), cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: engine scaling: %v", err))
		}
		updates := drv.RunEpochs(b.O.BudgetPerNode, k)
		t.AddRow(
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", b.O.BudgetPerNode),
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", updates),
			f(drv.AUCSample(b.O.EvalPairs)),
		)
	}
	return []Table{t}
}
