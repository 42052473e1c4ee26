package dmfsgd

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Rank != 10 || cfg.LearningRate != 0.1 || cfg.Lambda != 0.1 || cfg.Loss != LossLogistic {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}

func TestConfigZeroValueNormalizes(t *testing.T) {
	n, err := NewNode(Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.U()) != 10 {
		t.Errorf("zero config rank = %d, want 10", len(n.U()))
	}
}

func TestConfigWithLossL2(t *testing.T) {
	cfg := Config{}.WithLoss(LossL2).normalize()
	if cfg.Loss != LossL2 {
		t.Errorf("WithLoss(L2) lost: %v", cfg.Loss)
	}
	// Without WithLoss, zero Loss means logistic.
	if got := (Config{}).normalize().Loss; got != LossLogistic {
		t.Errorf("implicit loss = %v, want logistic", got)
	}
}

func TestNewNodeRejectsBadConfig(t *testing.T) {
	if _, err := NewNode(Config{Rank: -1}, 1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := NewNode(Config{Lambda: -3}, 1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(RTT, 50, 100) != Good || ClassOf(RTT, 150, 100) != Bad {
		t.Error("RTT polarity")
	}
	if ClassOf(ABW, 50, 40) != Good || ClassOf(ABW, 30, 40) != Bad {
		t.Error("ABW polarity")
	}
}

func TestNodeObserveAndPredict(t *testing.T) {
	a, _ := NewNode(DefaultConfig(), 1)
	b, _ := NewNode(DefaultConfig(), 2)
	// Ping-pong a Good path until both agree.
	for i := 0; i < 1000; i++ {
		a.ObserveRTT(b.U(), b.V(), Good)
		b.ObserveRTT(a.U(), a.V(), Good)
	}
	if a.PredictClass(b.V()) != Good {
		t.Errorf("learned class = %v, want good (score %v)", a.PredictClass(b.V()), a.Score(b.V()))
	}
	if !a.Healthy() || !b.Healthy() {
		t.Error("nodes unhealthy after training")
	}
}

func TestNodeABWRoles(t *testing.T) {
	sender, _ := NewNode(DefaultConfig(), 3)
	target, _ := NewNode(DefaultConfig(), 4)
	for i := 0; i < 1000; i++ {
		// Algorithm 2: target infers Bad, updates V; sender updates U.
		vPre := target.V()
		target.ObserveABWAsTarget(sender.U(), Bad)
		sender.ObserveABWAsSender(vPre, Bad)
	}
	if sender.PredictClass(target.V()) != Bad {
		t.Errorf("ABW class = %v, want bad", sender.PredictClass(target.V()))
	}
	if sender.ScoreFrom(target.U()) == 0 {
		t.Error("reverse score should be defined")
	}
}

func TestNodeRejectsPoisonedInput(t *testing.T) {
	n, _ := NewNode(DefaultConfig(), 5)
	bad := make([]float64, 10)
	bad[0] = math.NaN()
	good := make([]float64, 10)
	if n.ObserveRTT(bad, good, Good) || n.ObserveABWAsSender(bad, Good) {
		t.Error("poisoned input accepted")
	}
	if !n.Healthy() {
		t.Error("node poisoned")
	}
}

func TestUVAreCopies(t *testing.T) {
	n, _ := NewNode(DefaultConfig(), 6)
	u := n.U()
	u[0] = 1e9
	if n.U()[0] == 1e9 {
		t.Error("U leaked internal storage")
	}
}

func TestDatasetConstructors(t *testing.T) {
	m := NewMeridianDataset(50, 1)
	if m.N() != 50 || m.Metric != RTT {
		t.Errorf("meridian: %+v", m)
	}
	h := NewHarvardDataset(30, 5000, 1)
	if h.N() != 30 || len(h.Trace) != 5000 {
		t.Errorf("harvard: n=%d trace=%d", h.N(), len(h.Trace))
	}
	a := NewHPS3Dataset(40, 1)
	if a.N() != 40 || a.Metric != ABW {
		t.Errorf("hp-s3: %+v", a)
	}
}

func TestLoadDataset(t *testing.T) {
	in := "nan 10\n12 nan\n"
	ds, err := LoadDataset(strings.NewReader(in), "tiny", RTT)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.Matrix.At(0, 1) != 10 {
		t.Errorf("loaded: %+v", ds)
	}
	if _, err := LoadDataset(strings.NewReader("1 2 3\n4 5 6\n"), "rect", RTT); err == nil {
		t.Error("non-square matrix accepted")
	}
	if _, err := LoadDataset(strings.NewReader(""), "empty", RTT); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	ctx := context.Background()
	ds := NewMeridianDataset(80, 7)
	s, err := NewSession(ds, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(ctx, 0); err != nil { // paper budget
		t.Fatal(err)
	}
	auc, err := s.AUC(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.85 {
		t.Errorf("AUC = %v, want >= 0.85", auc)
	}
	c, err := s.Confusion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() < 0.75 {
		t.Errorf("accuracy = %v", c.Accuracy())
	}
	if s.Tau() != ds.Median() {
		t.Errorf("Tau = %v, want median %v", s.Tau(), ds.Median())
	}
	if len(s.Neighbors(0)) != ds.DefaultK {
		t.Errorf("neighbors = %d", len(s.Neighbors(0)))
	}
	_ = s.Predict(0, 1)
	stretch, unsat := s.SelectPeers(15, 9)
	if stretch < 1 {
		t.Errorf("RTT stretch %v must be >= 1", stretch)
	}
	if unsat > 0.5 {
		t.Errorf("unsatisfied %v implausibly high", unsat)
	}
}

func TestSimulationCurves(t *testing.T) {
	ctx := context.Background()
	ds := NewMeridianDataset(60, 13)
	s, err := NewSession(ds, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	roc, err := s.ROC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(roc) < 2 || roc[0].FPR != 0 || roc[len(roc)-1].TPR != 1 {
		t.Errorf("ROC endpoints wrong: %d points", len(roc))
	}
	pr, err := s.PrecisionRecall(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) == 0 || pr[len(pr)-1].Recall != 1 {
		t.Errorf("PR curve must reach recall 1: %d points", len(pr))
	}
}

func TestSimulateHarvardTrace(t *testing.T) {
	ctx := context.Background()
	ds := NewHarvardDataset(50, 80000, 8)
	s, err := NewSession(ds, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	auc, err := s.AUC(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.7 {
		t.Errorf("trace AUC = %v", auc)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	ds := NewMeridianDataset(20, 9)
	if _, err := NewSession(ds, WithK(30)); err == nil {
		t.Error("k >= n accepted")
	}
}

func TestSimulateMulticlass(t *testing.T) {
	ds := NewMeridianDataset(100, 12)
	q1 := ds.TauForGoodPortion(0.25)
	q2 := ds.TauForGoodPortion(0.50)
	q3 := ds.TauForGoodPortion(0.75)
	res, err := SimulateMulticlass(ds, []float64{q1, q2, q3}, DefaultConfig(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact < 0.45 { // 4-class chance is 0.25
		t.Errorf("exact accuracy = %v", res.Exact)
	}
	if res.WithinOne < 0.85 {
		t.Errorf("within-one accuracy = %v", res.WithinOne)
	}
	if len(res.Confusion) != 4 || len(res.Confusion[0]) != 4 {
		t.Errorf("confusion shape %dx%d", len(res.Confusion), len(res.Confusion[0]))
	}
	// Unordered thresholds must be rejected.
	if _, err := SimulateMulticlass(ds, []float64{q3, q1}, DefaultConfig(), 1); err == nil {
		t.Error("descending RTT thresholds accepted")
	}
}

func TestSwarmEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent integration test")
	}
	ds := NewHPS3Dataset(30, 10)
	sw, err := NewSession(ds, WithLive(), WithProbeInterval(200*time.Microsecond), WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(1200 * time.Millisecond)
	sw.Close()
	if sw.Steps() < 500 {
		t.Fatalf("updates = %d", sw.Steps())
	}
	auc, err := sw.AUC(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.65 {
		t.Errorf("swarm AUC = %v", auc)
	}
}
