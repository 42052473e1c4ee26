package sim

import (
	"math"
	"testing"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/loss"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
)

func meridianSmall(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	return dataset.Meridian(dataset.MeridianConfig{N: 80, Seed: seed})
}

func hps3Small(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	return dataset.HPS3(dataset.HPS3Config{N: 80, Seed: seed})
}

func defaultCfg(k int, seed int64) Config {
	return Config{SGD: sgd.Defaults(), K: k, Seed: seed}
}

func TestNewValidation(t *testing.T) {
	ds := meridianSmall(t, 1)
	cm := classify.Matrix(ds, ds.Median())

	if _, err := New(ds, cm, Config{SGD: sgd.Defaults(), K: 0, Seed: 1}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New(ds, cm, Config{SGD: sgd.Defaults(), K: 80, Seed: 1}); err == nil {
		t.Error("k=n should fail")
	}
	bad := sgd.Defaults()
	bad.Rank = 0
	if _, err := New(ds, cm, Config{SGD: bad, K: 10, Seed: 1}); err == nil {
		t.Error("invalid SGD config should fail")
	}
	small := classify.Matrix(meridianSmall(t, 2), 50)
	_ = small
	wrong := mat.NewMissing(10, 10)
	if _, err := New(ds, wrong, Config{SGD: sgd.Defaults(), K: 10, Seed: 1}); err == nil {
		t.Error("label dimension mismatch should fail")
	}
	cfg := defaultCfg(10, 1)
	cfg.TrainScale = -1
	if _, err := New(ds, cm, cfg); err == nil {
		t.Error("negative TrainScale should fail")
	}
}

func TestRTTLearningBeatsRandom(t *testing.T) {
	// The headline behavior: after the paper's budget, AUC must be far
	// above 0.5 on a class-based RTT task.
	ds := meridianSmall(t, 3)
	tau := ds.Median()
	drv, err := ClassDriver(ds, tau, defaultCfg(10, 42), nil)
	if err != nil {
		t.Fatal(err)
	}
	drv.Run(DefaultBudget(ds.N(), 10))
	auc := drv.AUC()
	if auc < 0.85 {
		t.Errorf("RTT AUC = %v, want >= 0.85", auc)
	}
}

func TestABWLearningBeatsRandom(t *testing.T) {
	ds := hps3Small(t, 4)
	tau := ds.Median()
	drv, err := ClassDriver(ds, tau, defaultCfg(10, 43), nil)
	if err != nil {
		t.Fatal(err)
	}
	drv.Run(DefaultBudget(ds.N(), 10))
	auc := drv.AUC()
	if auc < 0.80 {
		t.Errorf("ABW AUC = %v, want >= 0.80", auc)
	}
}

func TestDeterminism(t *testing.T) {
	ds := meridianSmall(t, 5)
	tau := ds.Median()
	run := func() float64 {
		drv, err := ClassDriver(ds, tau, defaultCfg(10, 7), nil)
		if err != nil {
			t.Fatal(err)
		}
		drv.Run(5000)
		return drv.AUC()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different AUC: %v vs %v", a, b)
	}
}

func TestSeedChangesRun(t *testing.T) {
	ds := meridianSmall(t, 5)
	tau := ds.Median()
	a, _ := ClassDriver(ds, tau, defaultCfg(10, 1), nil)
	b, _ := ClassDriver(ds, tau, defaultCfg(10, 2), nil)
	a.Run(2000)
	b.Run(2000)
	if a.AUC() == b.AUC() {
		t.Error("different seeds should diverge")
	}
}

func TestStepOnlyTouchesNeighborPairs(t *testing.T) {
	ds := meridianSmall(t, 6)
	tau := ds.Median()
	drv, _ := ClassDriver(ds, tau, defaultCfg(5, 9), nil)
	// Coordinates of nodes must change only through neighbor exchanges;
	// verify the train mask matches the neighbor lists.
	mask := drv.TrainMask()
	for i := 0; i < drv.N(); i++ {
		for _, j := range drv.Neighbors(i) {
			if !mask.At(i, j) {
				t.Fatalf("neighbor pair (%d,%d) not in mask", i, j)
			}
		}
	}
	// RTT mask is symmetric.
	for i := 0; i < drv.N(); i++ {
		for j := 0; j < drv.N(); j++ {
			if mask.At(i, j) != mask.At(j, i) {
				t.Fatal("RTT train mask must be symmetric")
			}
		}
	}
}

func TestEvalSetExcludesTraining(t *testing.T) {
	ds := meridianSmall(t, 7)
	tau := ds.Median()
	drv, _ := ClassDriver(ds, tau, defaultCfg(10, 11), nil)
	labels, scores := drv.EvalSet(0)
	if len(labels) != len(scores) || len(labels) == 0 {
		t.Fatal("empty eval set")
	}
	n := drv.N()
	trainCount := drv.TrainMask().Count()
	// Eval pairs + train pairs = all off-diagonal pairs (Meridian is dense).
	if len(labels)+trainCount != n*(n-1) {
		t.Errorf("eval %d + train %d != %d", len(labels), trainCount, n*(n-1))
	}
	for _, l := range labels {
		if l != 1 && l != -1 {
			t.Fatal("labels must be ±1")
		}
	}
}

func TestEvalSetSubsample(t *testing.T) {
	ds := meridianSmall(t, 8)
	tau := ds.Median()
	drv, _ := ClassDriver(ds, tau, defaultCfg(10, 13), nil)
	labels, _ := drv.EvalSet(100)
	if len(labels) != 100 {
		t.Errorf("subsample size = %d", len(labels))
	}
	// Deterministic subsample.
	l2, _ := drv.EvalSet(100)
	for i := range labels {
		if labels[i] != l2[i] {
			t.Fatal("subsample not deterministic")
		}
	}
}

func TestConvergenceImprovesWithBudget(t *testing.T) {
	// Fig 5(c): AUC improves with the number of measurements.
	ds := meridianSmall(t, 11)
	tau := ds.Median()
	drv, _ := ClassDriver(ds, tau, defaultCfg(10, 19), nil)
	var aucs []float64
	for range 4 {
		drv.Run(4000)
		aucs = append(aucs, drv.AUCSample(3000))
	}
	if aucs[len(aucs)-1] < aucs[0] {
		t.Errorf("AUC should improve with budget: %v", aucs)
	}
	if aucs[len(aucs)-1] < 0.8 {
		t.Errorf("final AUC %v too low", aucs[len(aucs)-1])
	}
}

func TestMissingLabelsAreRetried(t *testing.T) {
	// HP-S3 has missing entries; Run must still complete the exact budget.
	ds := hps3Small(t, 12)
	tau := ds.Median()
	drv, _ := ClassDriver(ds, tau, defaultCfg(10, 23), nil)
	drv.Run(3000)
	if drv.Steps() != 3000 {
		t.Errorf("Steps = %d, want 3000", drv.Steps())
	}
}

func TestQuantityDriverRanksPaths(t *testing.T) {
	// Regression mode (§6.4): train on scaled quantities with L2; the
	// predictions must rank test paths usefully (AUC vs. the median
	// threshold well above chance). For RTT, *small* is good, so scores
	// must be negated for AUC.
	ds := meridianSmall(t, 13)
	tau := ds.Median()
	cfg := defaultCfg(10, 29)
	cfg.SGD.Loss = loss.L2
	drv, err := QuantityDriver(ds, tau, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv.Run(DefaultBudget(ds.N(), 10))
	labels, scores := drv.EvalSet(0)
	for i := range scores {
		scores[i] = -scores[i] // low RTT = good
	}
	auc := evalAUC(labels, scores)
	if auc < 0.8 {
		t.Errorf("quantity-based AUC = %v, want >= 0.8", auc)
	}
}

func TestReplayTraceLearns(t *testing.T) {
	ds := dataset.Harvard(dataset.HarvardConfig{N: 60, Measurements: 150000, Duration: 3600, Seed: 31})
	tau := ds.Median()
	cfg := defaultCfg(10, 37)
	cfg.Tau = tau
	cm := classify.Matrix(ds, tau)
	drv, err := New(ds, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := classify.NewTraceClassifier(ds.Metric, tau)
	used, scanned := drv.ReplayTrace(ds.Trace, func(m dataset.Measurement) (float64, bool) {
		return tc.Classify(m).Value(), true
	}, 0)
	if used == 0 {
		t.Fatal("no trace measurements used")
	}
	if scanned != len(ds.Trace) {
		t.Fatalf("scanned %d of %d", scanned, len(ds.Trace))
	}
	// Only neighbor-set measurements are consumed.
	if used >= len(ds.Trace) {
		t.Fatalf("used %d of %d: neighbor filter not applied", used, len(ds.Trace))
	}
	auc := drv.AUC()
	if auc < 0.75 {
		t.Errorf("trace replay AUC = %v, want >= 0.75", auc)
	}
}

func TestReplayTraceLimit(t *testing.T) {
	ds := dataset.Harvard(dataset.HarvardConfig{N: 40, Measurements: 20000, Duration: 3600, Seed: 41})
	tau := ds.Median()
	cfg := defaultCfg(8, 43)
	cfg.Tau = tau
	drv, _ := New(ds, classify.Matrix(ds, tau), cfg)
	tc := classify.NewTraceClassifier(ds.Metric, tau)
	used, scanned := drv.ReplayTrace(ds.Trace, func(m dataset.Measurement) (float64, bool) {
		return tc.Classify(m).Value(), true
	}, 500)
	if used != 500 {
		t.Errorf("limit not honored: used %d", used)
	}
	if scanned < 500 || scanned > len(ds.Trace) {
		t.Errorf("scanned = %d", scanned)
	}
	// Resuming from trace[scanned:] must consume fresh records.
	used2, _ := drv.ReplayTrace(ds.Trace[scanned:], func(m dataset.Measurement) (float64, bool) {
		return tc.Classify(m).Value(), true
	}, 100)
	if used2 != 100 {
		t.Errorf("resume consumed %d", used2)
	}
}

func TestForceAsymmetricStillLearns(t *testing.T) {
	// Ablation plumbing: one-sided updates on RTT data must run and learn,
	// if typically slower than the symmetric trick.
	ds := meridianSmall(t, 14)
	tau := ds.Median()
	cfg := defaultCfg(10, 47)
	cfg.ForceAsymmetric = true
	drv, err := ClassDriver(ds, tau, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	drv.Run(sim20k(ds.N()))
	if auc := drv.AUC(); auc < 0.7 {
		t.Errorf("asymmetric-update AUC = %v, want >= 0.7", auc)
	}
}

func sim20k(n int) int { return DefaultBudget(n, 10) }

func TestDefaultBudget(t *testing.T) {
	if DefaultBudget(100, 10) != 20000 {
		t.Errorf("DefaultBudget = %d", DefaultBudget(100, 10))
	}
}

// evalAUC avoids importing eval into the test twice (kept tiny here).
func evalAUC(labels, scores []float64) float64 {
	// Mann-Whitney by brute force (test-only, small inputs acceptable).
	var pos, neg int
	var wins float64
	for i, li := range labels {
		if li != 1 {
			continue
		}
		pos++
		for j, lj := range labels {
			if lj != -1 {
				continue
			}
			switch {
			case scores[i] > scores[j]:
				wins++
			case scores[i] == scores[j]:
				wins += 0.5
			}
			_ = j
		}
	}
	for _, l := range labels {
		if l == -1 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	return wins / float64(pos*neg)
}

func BenchmarkDriverStepRTT(b *testing.B) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 200, Seed: 1})
	drv, err := ClassDriver(ds, ds.Median(), Config{SGD: sgd.Defaults(), K: 10, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Step()
	}
}

func BenchmarkDriverStepABW(b *testing.B) {
	ds := dataset.HPS3(dataset.HPS3Config{N: 200, Seed: 1})
	drv, err := ClassDriver(ds, ds.Median(), Config{SGD: sgd.Defaults(), K: 10, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Step()
	}
}
