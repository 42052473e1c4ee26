package batch

import (
	"math/rand"
	"testing"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := []Config{
		{Rank: 0, LearningRate: 0.1, Lambda: 0.1, Epochs: 1},
		{Rank: 1, LearningRate: 0, Lambda: 0.1, Epochs: 1},
		{Rank: 1, LearningRate: 0.1, Lambda: -1, Epochs: 1},
		{Rank: 1, LearningRate: 0.1, Lambda: 0.1, Epochs: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(mat.NewMissing(3, 4), Defaults()); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := Fit(mat.NewMissing(3, 3), Defaults()); err == nil {
		t.Error("all-missing accepted")
	}
	cfg := Defaults()
	cfg.Rank = 0
	m := mat.NewMissing(3, 3)
	m.Set(0, 1, 1)
	if _, err := Fit(m, cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFitDecreasesObjective(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 40, Seed: 101})
	labels := classify.Matrix(ds, ds.Median())
	one := Defaults()
	one.Epochs = 1
	many := Defaults()
	many.Epochs = 30

	m1, err := Fit(labels, one)
	if err != nil {
		t.Fatal(err)
	}
	m30, err := Fit(labels, many)
	if err != nil {
		t.Fatal(err)
	}
	if ObjectiveValue(labels, m30, many) >= ObjectiveValue(labels, m1, one) {
		t.Error("more epochs should reduce the training objective")
	}
}

func TestCentralizedCompletesMaskedMatrix(t *testing.T) {
	// Train on the masked entries, evaluate on the holdout: the essence of
	// matrix completion.
	ds := dataset.Meridian(dataset.MeridianConfig{N: 80, Seed: 102})
	tau := ds.Median()
	full := classify.Matrix(ds, tau)
	trainMask, _ := mat.NeighborMask(ds.N(), 10, true, rng(103))

	train := mat.NewMissing(ds.N(), ds.N())
	for _, p := range trainMask.Pairs() {
		if !full.IsMissing(p.I, p.J) {
			train.Set(p.I, p.J, full.At(p.I, p.J))
		}
	}
	model, err := Fit(train, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var labels, scores []float64
	for _, p := range trainMask.Complement().Pairs() {
		if full.IsMissing(p.I, p.J) {
			continue
		}
		labels = append(labels, full.At(p.I, p.J))
		scores = append(scores, model.Predict(p.I, p.J))
	}
	if auc := eval.AUC(labels, scores); auc < 0.9 {
		t.Errorf("centralized holdout AUC = %v, want >= 0.9", auc)
	}
}

// The headline comparison: the decentralized algorithm must land close to
// the centralized reference on the same dataset and neighbor budget
// (within 0.05 AUC). This validates the paper's claim that
// decentralization costs little accuracy.
func TestDecentralizedMatchesCentralized(t *testing.T) {
	ds := dataset.Meridian(dataset.MeridianConfig{N: 80, Seed: 104})
	tau := ds.Median()

	drv, err := sim.ClassDriver(ds, tau, sim.Config{SGD: sgd.Defaults(), K: 10, Seed: 104})
	if err != nil {
		t.Fatal(err)
	}
	drv.Run(sim.DefaultBudget(ds.N(), 10))
	decAUC := drv.AUC()

	// Central node sees exactly the same observed entries.
	full := classify.Matrix(ds, tau)
	train := mat.NewMissing(ds.N(), ds.N())
	for _, p := range drv.TrainMask().Pairs() {
		if !full.IsMissing(p.I, p.J) {
			train.Set(p.I, p.J, full.At(p.I, p.J))
		}
	}
	model, err := Fit(train, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var labels, scores []float64
	for _, p := range drv.TrainMask().Complement().Pairs() {
		if full.IsMissing(p.I, p.J) {
			continue
		}
		labels = append(labels, full.At(p.I, p.J))
		scores = append(scores, model.Predict(p.I, p.J))
	}
	cenAUC := eval.AUC(labels, scores)

	if decAUC < cenAUC-0.05 {
		t.Errorf("decentralized AUC %v too far below centralized %v", decAUC, cenAUC)
	}
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
