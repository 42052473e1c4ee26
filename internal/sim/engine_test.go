package sim

import (
	"testing"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/vec"
)

// TestDriverShardInvariance is the acceptance contract of the engine
// refactor: the sequential driver produces bit-identical coordinates and
// metrics for every shard count at a fixed seed.
func TestDriverShardInvariance(t *testing.T) {
	for _, ds := range []struct {
		name string
		mk   func() *Driver
	}{
		{"meridian", func() *Driver {
			d := meridianSmall(t, 44)
			cfg := defaultCfg(10, 101)
			cfg.Shards = 8
			cfg.Workers = 4
			drv, err := ClassDriver(d, d.Median(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return drv
		}},
		{"hp-s3", func() *Driver {
			d := hps3Small(t, 45)
			cfg := defaultCfg(10, 102)
			cfg.Shards = 8
			cfg.Workers = 4
			drv, err := ClassDriver(d, d.Median(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return drv
		}},
	} {
		sharded := ds.mk()
		plainDS := sharded.ds
		cfgPlain := sharded.cfg
		cfgPlain.Shards = 0
		cfgPlain.Workers = 1
		plain, err := New(plainDS, classify.Matrix(plainDS, sharded.cfg.Tau), cfgPlain)
		if err != nil {
			t.Fatal(err)
		}
		sharded.Run(4000)
		plain.Run(4000)
		for i := 0; i < plain.N(); i++ {
			a, b := plain.Coordinates(i), sharded.Coordinates(i)
			if !vec.Equal(a.U, b.U, 0) || !vec.Equal(a.V, b.V, 0) {
				t.Fatalf("%s: node %d diverges across shard counts", ds.name, i)
			}
		}
		if a, b := plain.AUC(), sharded.AUC(); a != b {
			t.Fatalf("%s: AUC %v vs %v", ds.name, a, b)
		}
	}
}

// TestEvalSetParallelEquivalence: the block-parallel evaluator returns
// exactly what a single-worker pass returns, labels and scores both.
func TestEvalSetParallelEquivalence(t *testing.T) {
	ds := meridianSmall(t, 46)
	tau := ds.Median()
	mk := func(workers int) *Driver {
		cfg := defaultCfg(10, 103)
		cfg.Workers = workers
		drv, err := ClassDriver(ds, tau, cfg)
		if err != nil {
			t.Fatal(err)
		}
		drv.Run(3000)
		return drv
	}
	seq := mk(1)
	par := mk(8)
	sl, ss := seq.EvalSet(0)
	pl, ps := par.EvalSet(0)
	if len(sl) != len(pl) {
		t.Fatalf("eval set sizes %d vs %d", len(sl), len(pl))
	}
	for i := range sl {
		if sl[i] != pl[i] || ss[i] != ps[i] {
			t.Fatalf("entry %d: (%v,%v) vs (%v,%v)", i, sl[i], ss[i], pl[i], ps[i])
		}
	}
	if a, b := seq.Confusion(), par.Confusion(); a != b {
		t.Fatalf("confusion %+v vs %+v", a, b)
	}
}

// TestDriverRunEpochsLearns: the public epoch path through the driver
// reaches the sequential quality bar at the same budget.
func TestDriverRunEpochsLearns(t *testing.T) {
	ds := meridianSmall(t, 47)
	cfg := defaultCfg(10, 104)
	cfg.Shards = 4
	drv, err := ClassDriver(ds, ds.Median(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv.RunEpochs(20, 10) // = DefaultBudget(n, 10) probes
	if drv.Steps() == 0 {
		t.Fatal("no epoch updates")
	}
	if auc := drv.AUC(); auc < 0.85 {
		t.Errorf("epoch-trained AUC = %v, want >= 0.85", auc)
	}
}

// TestClassDriverMatchesClassMatrix: a driver whose engine thresholds
// the ground truth into its neighbor-slot table as it builds it trains
// exactly like one built from the explicit class matrix — sequential
// steps, epochs and AUC — and the two stay equal after both swap to
// another dataset's classes.
func TestClassDriverMatchesClassMatrix(t *testing.T) {
	ds := hps3Small(t, 48)
	tau := ds.Median()
	cfg := defaultCfg(10, 105)
	cfg.Shards = 4
	cfg.Tau = tau
	fromTruth, err := ClassDriver(ds, tau, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromMatrix, err := New(ds, classify.Matrix(ds, tau), cfg)
	if err != nil {
		t.Fatal(err)
	}
	swapped := classify.Matrix(hps3Small(t, 49), tau)
	for round, d := range []*Driver{fromTruth, fromMatrix, fromTruth, fromMatrix} {
		if round == 2 {
			fromTruth.SwapLabels(swapped)
			fromMatrix.SwapLabels(swapped)
		}
		d.Run(2000)
		d.RunEpochs(2, 10)
	}
	for i := 0; i < ds.N(); i++ {
		a, b := fromTruth.Coordinates(i), fromMatrix.Coordinates(i)
		if !vec.Equal(a.U, b.U, 0) || !vec.Equal(a.V, b.V, 0) {
			t.Fatalf("node %d diverges between the threshold-built and matrix-built drivers", i)
		}
	}
	if a, b := fromTruth.AUC(), fromMatrix.AUC(); a != b {
		t.Fatalf("AUC %v vs %v", a, b)
	}
}
