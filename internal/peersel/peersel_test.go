package peersel

import (
	"math"
	"testing"

	"dmfsgd/internal/dataset"
	"dmfsgd/internal/loss"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
)

func TestStrategyString(t *testing.T) {
	if Random.String() != "random" || ClassBased.String() != "classification" || QuantityBased.String() != "regression" {
		t.Error("strategy names")
	}
}

// oraclePredictor predicts with perfect knowledge — an upper bound used to
// test the selection mechanics separately from learning quality.
type oraclePredictor struct {
	ds    *dataset.Dataset
	class bool // emulate classifier scores (larger = more likely good)
	tau   float64
}

func (o oraclePredictor) Predict(i, j int) float64 {
	v := o.ds.Matrix.At(i, j)
	if o.class {
		// A perfect classifier's score: positive margin when good.
		if dataset.IsGood(o.ds.Metric, v, o.tau) {
			return 1 + 1/(1+v)
		}
		return -1 - v/1000
	}
	return v
}

func TestBuildPeerSets(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 50, Seed: 51})
	exclude := make([][]int, 50)
	for i := range exclude {
		exclude[i] = []int{(i + 1) % 50, (i + 2) % 50}
	}
	cfg := Config{PeerSetSize: 10, Tau: ds.Median(), Exclude: exclude, Seed: 9}
	sets := BuildPeerSets(ds, cfg)
	if len(sets) != 50 {
		t.Fatalf("sets = %d", len(sets))
	}
	for i, set := range sets {
		if len(set) != 10 {
			t.Fatalf("node %d set size %d", i, len(set))
		}
		seen := map[int]bool{}
		for _, p := range set {
			if p == i {
				t.Fatalf("node %d has itself", i)
			}
			if p == (i+1)%50 || p == (i+2)%50 {
				t.Fatalf("node %d includes excluded peer %d", i, p)
			}
			if seen[p] {
				t.Fatalf("node %d duplicate peer %d", i, p)
			}
			seen[p] = true
		}
	}
}

func TestBuildPeerSetsDeterministic(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 30, Seed: 52})
	cfg := Config{PeerSetSize: 5, Tau: ds.Median(), Seed: 3}
	a := BuildPeerSets(ds, cfg)
	b := BuildPeerSets(ds, cfg)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("peer sets not deterministic")
			}
		}
	}
}

func TestBuildPeerSetsPanicsOnBadSize(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildPeerSets(ds, Config{PeerSetSize: 0})
}

func TestOracleSelectionIsOptimal(t *testing.T) {
	// With a perfect quantity predictor, stretch must be exactly 1 and no
	// node unsatisfied.
	for _, mk := range []func() *dataset.Dataset{
		func() *dataset.Dataset { return dataset.Meridian(dataset.MeridianConfig{N: 40, Seed: 53}) },
		func() *dataset.Dataset { return dataset.HPS3(dataset.HPS3Config{N: 40, Seed: 53}) },
	} {
		ds := mk()
		cfg := Config{PeerSetSize: 8, Tau: ds.Median(), Seed: 5}
		sets := BuildPeerSets(ds, cfg)
		res := Evaluate(ds, sets, QuantityBased, oraclePredictor{ds: ds}, cfg)
		if math.Abs(res.MeanStretch-1) > 1e-12 {
			t.Errorf("%s: oracle stretch = %v, want 1", ds.Name, res.MeanStretch)
		}
		if res.Unsatisfied != 0 {
			t.Errorf("%s: oracle unsatisfied = %v, want 0", ds.Name, res.Unsatisfied)
		}
	}
}

func TestOracleClassifierSatisfies(t *testing.T) {
	// A perfect classifier guarantees satisfaction (never picks bad when
	// good exists) but not optimality.
	ds := dataset.Meridian(dataset.MeridianConfig{N: 40, Seed: 54})
	cfg := Config{PeerSetSize: 8, Tau: ds.Median(), Seed: 7}
	sets := BuildPeerSets(ds, cfg)
	res := Evaluate(ds, sets, ClassBased, oraclePredictor{ds: ds, class: true, tau: cfg.Tau}, cfg)
	if res.Unsatisfied != 0 {
		t.Errorf("perfect classifier unsatisfied = %v, want 0", res.Unsatisfied)
	}
	if res.MeanStretch < 1 {
		t.Errorf("RTT stretch must be >= 1, got %v", res.MeanStretch)
	}
}

func TestRandomWorseThanOracle(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 60, Seed: 55})
	cfg := Config{PeerSetSize: 20, Tau: ds.Median(), Seed: 11}
	sets := BuildPeerSets(ds, cfg)
	random := Evaluate(ds, sets, Random, nil, cfg)
	oracle := Evaluate(ds, sets, QuantityBased, oraclePredictor{ds: ds}, cfg)
	if random.MeanStretch <= oracle.MeanStretch {
		t.Errorf("random stretch %v should exceed oracle %v", random.MeanStretch, oracle.MeanStretch)
	}
	if random.Unsatisfied <= 0.1 {
		t.Errorf("random selection with 20 peers should often be unsatisfied, got %v", random.Unsatisfied)
	}
}

func TestABWStretchAtMostOne(t *testing.T) {
	ds := dataset.HPS3(dataset.HPS3Config{N: 40, Seed: 56})
	cfg := Config{PeerSetSize: 10, Tau: ds.Median(), Seed: 13}
	sets := BuildPeerSets(ds, cfg)
	for _, strat := range []Strategy{Random, QuantityBased} {
		var pred Predictor
		if strat != Random {
			pred = oraclePredictor{ds: ds}
		}
		res := Evaluate(ds, sets, strat, pred, cfg)
		if res.MeanStretch > 1+1e-9 {
			t.Errorf("%v: ABW stretch %v must be <= 1", strat, res.MeanStretch)
		}
	}
}

func TestEvaluatePanicsWithoutPredictor(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 20, Seed: 57})
	cfg := Config{PeerSetSize: 5, Tau: ds.Median(), Seed: 1}
	sets := BuildPeerSets(ds, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate(ds, sets, ClassBased, nil, cfg)
}

// End-to-end: a trained classifier must beat random selection on both
// criteria, and a trained regressor must beat the classifier on stretch
// (Figure 7's qualitative ordering).
func TestTrainedSelectionOrdering(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 80, Seed: 58})
	tau := ds.Median()
	k := 10

	clsDrv, err := sim.ClassDriver(ds, tau, sim.Config{SGD: sgd.Defaults(), K: k, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	clsDrv.Run(sim.DefaultBudget(ds.N(), k))

	qCfg := sim.Config{SGD: sgd.Defaults(), K: k, Seed: 21}
	qCfg.SGD.Loss = loss.L2
	qDrv, err := sim.QuantityDriver(ds, tau, qCfg)
	if err != nil {
		t.Fatal(err)
	}
	qDrv.Run(sim.DefaultBudget(ds.N(), k))

	cfg := Config{
		PeerSetSize: 20,
		Tau:         tau,
		Exclude:     NeighborExclusion(ds.N(), clsDrv.Neighbors),
		Seed:        23,
	}
	sets := BuildPeerSets(ds, cfg)
	random := Evaluate(ds, sets, Random, nil, cfg)
	class := Evaluate(ds, sets, ClassBased, clsDrv, cfg)
	quant := Evaluate(ds, sets, QuantityBased, qDrv, cfg)

	if class.Unsatisfied >= random.Unsatisfied {
		t.Errorf("classification unsatisfied %v should beat random %v", class.Unsatisfied, random.Unsatisfied)
	}
	if class.MeanStretch >= random.MeanStretch {
		t.Errorf("classification stretch %v should beat random %v", class.MeanStretch, random.MeanStretch)
	}
	if quant.MeanStretch >= random.MeanStretch {
		t.Errorf("regression stretch %v should beat random %v", quant.MeanStretch, random.MeanStretch)
	}
}

func TestNeighborExclusion(t *testing.T) {
	got := NeighborExclusion(3, func(i int) []int { return []int{i + 10} })
	if len(got) != 3 || got[1][0] != 11 {
		t.Errorf("NeighborExclusion = %v", got)
	}
}
