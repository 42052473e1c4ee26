// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6) from the synthetic datasets. Each experiment is
// a pure function of an Options value and returns printable Tables whose
// rows/series correspond to what the paper plots.
//
// The per-experiment index lives in DESIGN.md §4; cmd/dmfbench prints the
// tables.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/sim"
)

// Options sizes the experiments. The paper's datasets are large (Meridian
// has 2500 nodes); Default keeps wall-clock reasonable while preserving
// every qualitative result, and Full restores paper-scale sizes.
type Options struct {
	// HarvardN, MeridianN, HPS3N are the node counts.
	HarvardN, MeridianN, HPS3N int
	// HarvardMeasurements sizes the dynamic trace.
	HarvardMeasurements int
	// HarvardK, MeridianK, HPS3K are the neighbor counts (paper defaults
	// 10/32/10).
	HarvardK, MeridianK, HPS3K int
	// BudgetPerNode is the number of measurements consumed per node, in
	// units of k (paper: converged by 20).
	BudgetPerNode int
	// EvalPairs caps the evaluation set for sweep points (0 = all pairs).
	EvalPairs int
	// Seed drives everything.
	Seed int64
}

// Default returns the standard scaled-down options used by cmd/dmfbench.
func Default() Options {
	return Options{
		HarvardN: 226, MeridianN: 400, HPS3N: 231,
		HarvardMeasurements: 1_000_000,
		HarvardK:            10, MeridianK: 32, HPS3K: 10,
		BudgetPerNode: 20,
		EvalPairs:     50_000,
		Seed:          1,
	}
}

// Quick returns small options for unit tests and testing.B benchmarks.
func Quick() Options {
	return Options{
		HarvardN: 80, MeridianN: 120, HPS3N: 80,
		HarvardMeasurements: 120_000,
		HarvardK:            8, MeridianK: 16, HPS3K: 8,
		BudgetPerNode: 20,
		EvalPairs:     20_000,
		Seed:          1,
	}
}

// Full returns paper-scale options (Meridian 2500 nodes; expect long runs).
func Full() Options {
	o := Default()
	o.MeridianN = 2500
	o.HarvardMeasurements = 2_492_546
	return o
}

// Bundle caches the generated datasets for one Options value so the three
// generators run once per invocation of the harness.
type Bundle struct {
	O Options

	once [3]sync.Once
	ds   [3]*dataset.Dataset
}

// NewBundle creates a dataset cache.
func NewBundle(o Options) *Bundle { return &Bundle{O: o} }

// Harvard returns the Harvard-like dynamic RTT dataset.
func (b *Bundle) Harvard() *dataset.Dataset {
	b.once[0].Do(func() {
		b.ds[0] = dataset.Harvard(dataset.HarvardConfig{
			N:            b.O.HarvardN,
			Measurements: b.O.HarvardMeasurements,
			Seed:         b.O.Seed,
		})
	})
	return b.ds[0]
}

// Meridian returns the Meridian-like static RTT dataset.
func (b *Bundle) Meridian() *dataset.Dataset {
	b.once[1].Do(func() {
		b.ds[1] = dataset.Meridian(dataset.MeridianConfig{N: b.O.MeridianN, Seed: b.O.Seed})
	})
	return b.ds[1]
}

// HPS3 returns the HP-S3-like ABW dataset.
func (b *Bundle) HPS3() *dataset.Dataset {
	b.once[2].Do(func() {
		b.ds[2] = dataset.HPS3(dataset.HPS3Config{N: b.O.HPS3N, Seed: b.O.Seed})
	})
	return b.ds[2]
}

// All returns the three datasets in paper order.
func (b *Bundle) All() []*dataset.Dataset {
	return []*dataset.Dataset{b.Harvard(), b.Meridian(), b.HPS3()}
}

// K returns the default neighbor count for a dataset.
func (b *Bundle) K(ds *dataset.Dataset) int {
	switch ds.Name {
	case "harvard":
		return b.O.HarvardK
	case "meridian":
		return b.O.MeridianK
	case "hp-s3":
		return b.O.HPS3K
	default:
		return ds.DefaultK
	}
}

// RunSpec fully describes one training run.
type RunSpec struct {
	// DS is the dataset.
	DS *dataset.Dataset
	// SGD overrides the hyper-parameters (zero value = paper defaults).
	SGD sgd.Config
	// K is the neighbor count (0 = bundle default).
	K int
	// Tau is the threshold (0 = dataset median).
	Tau float64
	// Labels overrides the training class matrix (corrupted labels); nil
	// trains on clean classes.
	Labels *mat.Dense
	// Quantity trains on raw values with scaling (regression mode).
	Quantity bool
	// ForceAsymmetric disables the symmetric RTT update (ablation).
	ForceAsymmetric bool
	// BudgetPerNode overrides Options.BudgetPerNode when positive.
	BudgetPerNode int
	// Seed offsets the bundle seed so repeated runs differ deliberately.
	Seed int64
}

// Train builds and runs a driver to the configured budget. Harvard runs
// replay the trace in time order; static datasets consume measurements in
// random order (§6.1).
func (b *Bundle) Train(spec RunSpec) (*sim.Driver, error) {
	ds := spec.DS
	if spec.SGD.Rank == 0 {
		spec.SGD = sgd.Defaults()
	}
	if spec.K == 0 {
		spec.K = b.K(ds)
	}
	if spec.Tau == 0 {
		spec.Tau = ds.Median()
	}
	budget := b.O.BudgetPerNode
	if spec.BudgetPerNode > 0 {
		budget = spec.BudgetPerNode
	}
	cfg := sim.Config{
		SGD:             spec.SGD,
		K:               spec.K,
		Tau:             spec.Tau,
		Seed:            b.O.Seed + spec.Seed,
		ForceAsymmetric: spec.ForceAsymmetric,
	}

	var drv *sim.Driver
	var err error
	switch {
	case spec.Quantity:
		drv, err = sim.QuantityDriver(ds, spec.Tau, cfg)
	case spec.Labels != nil:
		cfg.Tau = spec.Tau
		drv, err = sim.New(ds, spec.Labels, cfg)
	default:
		drv, err = sim.ClassDriver(ds, spec.Tau, cfg)
	}
	if err != nil {
		return nil, err
	}

	total := budget * spec.K * ds.N()
	if ds.Trace != nil {
		// Time-ordered replay; labels come from the measurement stream
		// (or the persistent corrupted label matrix when provided).
		drv.ReplayTrace(ds.Trace, b.traceLabeler(spec, ds), total)
	} else {
		drv.Run(total)
	}
	return drv, nil
}

// traceLabeler builds the per-measurement label function for replay.
func (b *Bundle) traceLabeler(spec RunSpec, ds *dataset.Dataset) func(dataset.Measurement) (float64, bool) {
	switch {
	case spec.Quantity:
		return func(m dataset.Measurement) (float64, bool) { return m.Value, true }
	case spec.Labels != nil:
		labels := spec.Labels
		return func(m dataset.Measurement) (float64, bool) {
			if labels.IsMissing(m.I, m.J) {
				return 0, false
			}
			return labels.At(m.I, m.J), true
		}
	default:
		tc := classify.NewTraceClassifier(ds.Metric, spec.Tau)
		return func(m dataset.Measurement) (float64, bool) {
			return tc.Classify(m).Value(), true
		}
	}
}

// Table is a printable experiment result: a title, a header row, and data
// rows. String renders aligned ASCII.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// f formats a float at sensible precision for tables.
func f(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// f1 formats with one decimal (thresholds, deltas).
func f1(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", v)
}

// pct formats a fraction as a percentage.
func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}
