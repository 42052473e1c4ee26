package experiments

import (
	"fmt"
	"math/rand"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/corrupt"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/eval"
	"dmfsgd/internal/loss"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/peersel"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
	"dmfsgd/internal/svd"
)

// Figure1 reproduces the singular-value plot: the top-20 normalized
// singular values of the RTT (Meridian) and ABW (HP-S3) matrices and of
// their binary class matrices, thresholded at the median. The fast decay
// of all four spectra is the premise of the whole paper (§4.1).
func Figure1(b *Bundle) []Table {
	rtt := b.Meridian()
	abw := b.HPS3()
	tauR := rtt.Median()
	tauA := abw.Median()

	const topK = 20
	specOf := func(m *mat.Dense, seed int64) []float64 {
		dense := ImputeColumnMedian(m)
		return svd.Normalize(svd.TopK(dense, topK, rand.New(rand.NewSource(seed))))
	}
	sR := specOf(rtt.Matrix, b.O.Seed+11)
	sRC := specOf(classify.Matrix(rtt, tauR), b.O.Seed+12)
	sA := specOf(abw.Matrix, b.O.Seed+13)
	sAC := specOf(classify.Matrix(abw, tauA), b.O.Seed+14)

	t := Table{
		Title:  "Figure 1: normalized singular values (top 20), tau = dataset median",
		Header: []string{"#", "RTT", "RTT class", "ABW", "ABW class"},
	}
	at := func(s []float64, i int) string {
		if i < len(s) {
			return f(s[i])
		}
		return "-"
	}
	for i := 0; i < topK; i++ {
		t.AddRow(fmt.Sprintf("%d", i+1), at(sR, i), at(sRC, i), at(sA, i), at(sAC, i))
	}
	return []Table{t}
}

// ImputeColumnMedian fills missing entries with their column median (the
// preprocessing applied before SVD; diagonals and HP-S3 holes).
func ImputeColumnMedian(m *mat.Dense) *mat.Dense {
	out := m.Clone()
	for j := 0; j < m.Cols(); j++ {
		var col []float64
		for i := 0; i < m.Rows(); i++ {
			if !m.IsMissing(i, j) {
				col = append(col, m.At(i, j))
			}
		}
		fill := 0.0
		if len(col) > 0 {
			fill = mat.Median(col)
		}
		for i := 0; i < m.Rows(); i++ {
			if out.IsMissing(i, j) {
				out.Set(i, j, fill)
			}
		}
	}
	return out
}

// sweepValues are the η and λ grids of Figure 3.
var sweepValues = []float64{0.001, 0.01, 0.1, 1.0}

// Figure3 reproduces the AUC-vs-η (λ=0.1) and AUC-vs-λ (η=0.1) sweeps for
// the hinge and logistic losses on all three datasets.
func Figure3(b *Bundle) []Table {
	mkTable := func(param string, set func(*RunSpec, float64)) Table {
		t := Table{
			Title: fmt.Sprintf("Figure 3: AUC vs %s (r=10, other params at defaults)", param),
			Header: []string{
				param,
				"harvard/logistic", "harvard/hinge",
				"meridian/logistic", "meridian/hinge",
				"hp-s3/logistic", "hp-s3/hinge",
			},
		}
		for _, v := range sweepValues {
			row := []string{fmt.Sprintf("%.3f", v)}
			for _, ds := range b.All() {
				for _, lk := range []loss.Kind{loss.Logistic, loss.Hinge} {
					spec := RunSpec{DS: ds}
					spec.SGD = defaultSGD()
					spec.SGD.Loss = lk
					set(&spec, v)
					drv, err := b.Train(spec)
					if err != nil {
						panic(err)
					}
					row = append(row, f(drv.AUCSample(b.O.EvalPairs)))
				}
			}
			t.AddRow(row...)
		}
		return t
	}
	eta := mkTable("eta", func(s *RunSpec, v float64) { s.SGD.LearningRate = v })
	lambda := mkTable("lambda", func(s *RunSpec, v float64) { s.SGD.Lambda = v })
	return []Table{eta, lambda}
}

// Figure4a reproduces the AUC-vs-rank sweep (r ∈ {3, 10, 20, 100}).
func Figure4a(b *Bundle) []Table {
	t := Table{
		Title:  "Figure 4(a): AUC vs rank r (k at dataset defaults, tau = median)",
		Header: []string{"r", "harvard", "meridian", "hp-s3"},
	}
	for _, r := range []int{3, 10, 20, 100} {
		row := []string{fmt.Sprintf("%d", r)}
		for _, ds := range b.All() {
			spec := RunSpec{DS: ds}
			spec.SGD = defaultSGD()
			spec.SGD.Rank = r
			drv, err := b.Train(spec)
			if err != nil {
				panic(err)
			}
			row = append(row, f(drv.AUCSample(b.O.EvalPairs)))
		}
		t.AddRow(row...)
	}
	return []Table{t}
}

// Figure4b reproduces the AUC-vs-k sweep: k ∈ {5,10,30,50} for Harvard and
// HP-S3, {16,32,64,128} for Meridian (scaled down proportionally when the
// Options shrink the datasets).
func Figure4b(b *Bundle) []Table {
	t := Table{
		Title:  "Figure 4(b): AUC vs neighbor count k (r=10, tau = median)",
		Header: []string{"k-index", "harvard (k)", "AUC", "meridian (k)", "AUC", "hp-s3 (k)", "AUC"},
	}
	kFor := func(ds *dataset.Dataset, idx int) int {
		var ks []int
		if ds.Name == "meridian" {
			ks = []int{16, 32, 64, 128}
		} else {
			ks = []int{5, 10, 30, 50}
		}
		k := ks[idx]
		if k >= ds.N() {
			k = ds.N() / 2
		}
		return k
	}
	for idx := 0; idx < 4; idx++ {
		row := []string{fmt.Sprintf("k%d", idx+1)}
		for _, ds := range b.All() {
			k := kFor(ds, idx)
			spec := RunSpec{DS: ds, K: k}
			drv, err := b.Train(spec)
			if err != nil {
				panic(err)
			}
			row = append(row, fmt.Sprintf("%d", k), f(drv.AUCSample(b.O.EvalPairs)))
		}
		t.AddRow(row...)
	}
	return []Table{t}
}

// Figure4c reproduces the AUC-vs-τ sweep at good-path portions
// {10, 25, 50, 75, 90}%.
func Figure4c(b *Bundle) []Table {
	t := Table{
		Title:  "Figure 4(c): AUC vs classification threshold (portion of good paths)",
		Header: []string{"good%", "harvard", "meridian", "hp-s3"},
	}
	for _, portion := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		row := []string{pct(portion)}
		for _, ds := range b.All() {
			tau := ds.TauForGoodPortion(portion)
			drv, err := b.Train(RunSpec{DS: ds, Tau: tau})
			if err != nil {
				panic(err)
			}
			row = append(row, f(drv.AUCSample(b.O.EvalPairs)))
		}
		t.AddRow(row...)
	}
	return []Table{t}
}

// Figure5 reproduces the default-configuration accuracy plots: the ROC
// curves (a), the precision-recall curves (b), both downsampled to 21
// points, and the AUC-vs-measurement-count convergence curves (c).
func Figure5(b *Bundle) []Table {
	roc := Table{
		Title:  "Figure 5(a): ROC points under default parameters",
		Header: []string{"FPR@", "harvard TPR", "meridian TPR", "hp-s3 TPR"},
	}
	pr := Table{
		Title:  "Figure 5(b): precision-recall points under default parameters",
		Header: []string{"recall@", "harvard prec", "meridian prec", "hp-s3 prec"},
	}
	conv := Table{
		Title:  "Figure 5(c): AUC vs average measurements per node (in units of k)",
		Header: []string{"meas (xk)", "harvard", "meridian", "hp-s3"},
	}

	type curves struct {
		rocT []float64 // TPR at FPR grid
		prP  []float64 // precision at recall grid
		conv []float64 // AUC at checkpoints
	}
	grid := gridPoints()
	checkpoints := convergenceCheckpoints()
	var all []curves

	for _, ds := range b.All() {
		drv, aucs := b.trainWithConvergence(ds, checkpoints)
		labels, scores := drv.EvalSet(b.O.EvalPairs)
		rocCurve := eval.ROC(labels, scores)
		prCurve := eval.PrecisionRecall(labels, scores)

		var c curves
		for _, g := range grid {
			c.rocT = append(c.rocT, interpROC(rocCurve, g))
			c.prP = append(c.prP, interpPR(prCurve, g))
		}
		c.conv = aucs
		all = append(all, c)
	}
	for gi, g := range grid {
		roc.AddRow(f(g), f(all[0].rocT[gi]), f(all[1].rocT[gi]), f(all[2].rocT[gi]))
		pr.AddRow(f(g), f(all[0].prP[gi]), f(all[1].prP[gi]), f(all[2].prP[gi]))
	}
	for ci, cp := range checkpoints {
		conv.AddRow(fmt.Sprintf("%d", cp), f(all[0].conv[ci]), f(all[1].conv[ci]), f(all[2].conv[ci]))
	}
	return []Table{roc, pr, conv}
}

func gridPoints() []float64 {
	var g []float64
	for v := 0.0; v <= 1.0001; v += 0.05 {
		g = append(g, v)
	}
	return g
}

// convergenceCheckpoints returns the measurement budgets (in units of k per
// node) at which Fig 5(c) samples the AUC.
func convergenceCheckpoints() []int {
	return []int{1, 2, 5, 10, 20, 30, 40, 50}
}

// trainWithConvergence trains to the last checkpoint, recording AUC at each.
func (b *Bundle) trainWithConvergence(ds *dataset.Dataset, checkpoints []int) (*sim.Driver, []float64) {
	spec := RunSpec{DS: ds}
	spec.SGD = defaultSGD()
	k := b.K(ds)
	tau := ds.Median()
	cfg := sim.Config{SGD: spec.SGD, K: k, Tau: tau, Seed: b.O.Seed}
	drv, err := sim.ClassDriver(ds, tau, cfg)
	if err != nil {
		panic(err)
	}
	var aucs []float64
	if ds.Trace != nil {
		tc := classify.NewTraceClassifier(ds.Metric, tau)
		label := func(m dataset.Measurement) (float64, bool) { return tc.Classify(m).Value(), true }
		pos := 0
		for _, cp := range checkpoints {
			target := cp * k * ds.N()
			need := target - drv.Steps()
			if need > 0 && pos < len(ds.Trace) {
				_, scanned := drv.ReplayTrace(ds.Trace[pos:], label, need)
				pos += scanned
			}
			aucs = append(aucs, drv.AUCSample(b.O.EvalPairs))
		}
	} else {
		for _, cp := range checkpoints {
			target := cp * k * ds.N()
			if need := target - drv.Steps(); need > 0 {
				drv.Run(need)
			}
			aucs = append(aucs, drv.AUCSample(b.O.EvalPairs))
		}
	}
	return drv, aucs
}

// interpROC returns the TPR at a given FPR by linear interpolation.
func interpROC(curve []eval.Point, fpr float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR >= fpr {
			a, bb := curve[i-1], curve[i]
			if bb.FPR == a.FPR {
				return bb.TPR
			}
			frac := (fpr - a.FPR) / (bb.FPR - a.FPR)
			return a.TPR + frac*(bb.TPR-a.TPR)
		}
	}
	return curve[len(curve)-1].TPR
}

// interpPR returns the precision at a given recall (nearest achievable).
func interpPR(curve []eval.PRPoint, recall float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	for i := 0; i < len(curve); i++ {
		if curve[i].Recall >= recall {
			return curve[i].Precision
		}
	}
	return curve[len(curve)-1].Precision
}

// Figure6 reproduces the robustness study: AUC under 0/5/10/15% erroneous
// labels. Types 1 and 4 run on every dataset; Types 2 and 3 only on HP-S3,
// matching the paper's threat model.
func Figure6(b *Bundle) []Table {
	var tables []Table
	levels := []float64{0, 0.05, 0.10, 0.15}
	for _, ds := range b.All() {
		types := []corrupt.Type{corrupt.FlipNearTau, corrupt.GoodToBad}
		if ds.Metric == dataset.ABW {
			types = []corrupt.Type{corrupt.FlipNearTau, corrupt.Underestimation, corrupt.FlipRandom, corrupt.GoodToBad}
		}
		t := Table{
			Title:  fmt.Sprintf("Figure 6 (%s): AUC vs erroneous label percentage", ds.Name),
			Header: append([]string{"error%"}, typeNames(types)...),
		}
		tau := ds.Median()
		clean := classify.Matrix(ds, tau)
		for _, level := range levels {
			row := []string{pct(level)}
			for _, typ := range types {
				labels := clean
				if level > 0 {
					labels = corruptedLabels(b, ds, clean, typ, tau, level)
				}
				drv, err := b.Train(RunSpec{DS: ds, Tau: tau, Labels: labels})
				if err != nil {
					panic(err)
				}
				row = append(row, f(drv.AUCSample(b.O.EvalPairs)))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

func typeNames(types []corrupt.Type) []string {
	var out []string
	for _, typ := range types {
		out = append(out, typ.String())
	}
	return out
}

func corruptedLabels(b *Bundle, ds *dataset.Dataset, clean *mat.Dense, typ corrupt.Type, tau, level float64) *mat.Dense {
	p := corrupt.Params{Type: typ, Tau: tau, Level: level}
	switch typ {
	case corrupt.FlipNearTau, corrupt.Underestimation:
		p.Delta = corrupt.CalibrateDelta(ds, typ, tau, level)
	}
	return corrupt.Apply(ds, clean, p, rand.New(rand.NewSource(b.O.Seed+int64(typ)*1000+int64(level*100))))
}

// Figure7 reproduces the peer-selection study: mean stretch (optimality)
// and unsatisfied-node percentage (satisfaction) versus peer-set size, for
// Random / Classification / Regression / Classification-with-noise (10%
// Type-1 + 5% Type-4 errors ≈ 15% total).
func Figure7(b *Bundle) []Table {
	var tables []Table
	peerCounts := []int{10, 20, 30, 40, 50, 60}
	for _, ds := range b.All() {
		tau := ds.Median()
		clean := classify.Matrix(ds, tau)

		// Train the three predictors once per dataset.
		clsDrv, err := b.Train(RunSpec{DS: ds, Tau: tau})
		if err != nil {
			panic(err)
		}
		qSpec := RunSpec{DS: ds, Tau: tau, Quantity: true}
		qSpec.SGD = defaultSGD()
		qSpec.SGD.Loss = loss.L2
		qDrv, err := b.Train(qSpec)
		if err != nil {
			panic(err)
		}
		noisy := corruptedLabels(b, ds, clean, corrupt.FlipNearTau, tau, 0.10)
		noisy = corrupt.Apply(ds, noisy, corrupt.Params{Type: corrupt.GoodToBad, Tau: tau, Level: 0.05},
			rand.New(rand.NewSource(b.O.Seed+555)))
		noisyDrv, err := b.Train(RunSpec{DS: ds, Tau: tau, Labels: noisy})
		if err != nil {
			panic(err)
		}

		stretch := Table{
			Title:  fmt.Sprintf("Figure 7 (%s, top): mean stretch vs peer-set size", ds.Name),
			Header: []string{"peers", "random", "classification", "regression", "classification+noise"},
		}
		satisf := Table{
			Title:  fmt.Sprintf("Figure 7 (%s, bottom): unsatisfied node %% vs peer-set size", ds.Name),
			Header: []string{"peers", "random", "classification", "regression", "classification+noise"},
		}
		for _, m := range peerCounts {
			if m >= ds.N()-b.K(ds) {
				continue // peer set cannot exceed the non-neighbor population
			}
			cfg := peersel.Config{
				PeerSetSize: m,
				Tau:         tau,
				Exclude:     peersel.NeighborExclusion(ds.N(), clsDrv.Neighbors),
				Seed:        b.O.Seed + int64(m),
			}
			sets := peersel.BuildPeerSets(ds, cfg)
			rnd := peersel.Evaluate(ds, sets, peersel.Random, nil, cfg)
			cls := peersel.Evaluate(ds, sets, peersel.ClassBased, clsDrv, cfg)
			qnt := peersel.Evaluate(ds, sets, peersel.QuantityBased, qDrv, cfg)
			nzy := peersel.Evaluate(ds, sets, peersel.ClassBased, noisyDrv, cfg)
			stretch.AddRow(fmt.Sprintf("%d", m),
				f(rnd.MeanStretch), f(cls.MeanStretch), f(qnt.MeanStretch), f(nzy.MeanStretch))
			satisf.AddRow(fmt.Sprintf("%d", m),
				pct(rnd.Unsatisfied), pct(cls.Unsatisfied), pct(qnt.Unsatisfied), pct(nzy.Unsatisfied))
		}
		tables = append(tables, stretch, satisf)
	}
	return tables
}

func defaultSGD() sgd.Config { return sgd.Defaults() }
