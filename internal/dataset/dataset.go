// Package dataset provides the three evaluation datasets of the paper in
// synthetic form, plus loaders for externally supplied matrices.
//
// The paper evaluates on publicly distributed measurement sets that are not
// shipped with this repository (see DESIGN.md §4 for the substitution
// rationale):
//
//   - Harvard: 2,492,546 dynamic application-level RTTs with timestamps
//     between 226 Azureus clients over 4 hours.
//   - Meridian: static RTTs between 2500 nodes from the Meridian project.
//   - HP-S3: available-bandwidth measurements between 459 nodes collected
//     with pathchirp; the paper extracts a dense 231-node subset with 4%
//     missing entries.
//
// The generators here reproduce the statistical structure those datasets
// contribute to the experiments: low effective rank from shared
// infrastructure (clusters for RTT, shared tree bottlenecks for ABW),
// realistic value ranges (medians near the paper's Table 1), measurement
// noise, asymmetry for ABW, dynamics for Harvard.
package dataset

import (
	"fmt"
	"math/rand"

	"dmfsgd/internal/mat"
)

// Metric is the performance metric a dataset measures (§3.1).
type Metric uint8

const (
	// RTT is round-trip time in milliseconds. Symmetric, measured by the
	// sender, "good" means small.
	RTT Metric = iota
	// ABW is available bandwidth in Mbit/s. Asymmetric, inferred by the
	// target, "good" means large.
	ABW
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case RTT:
		return "rtt"
	case ABW:
		return "abw"
	default:
		return fmt.Sprintf("dataset.Metric(%d)", uint8(m))
	}
}

// Unit returns the measurement unit of the metric.
func (m Metric) Unit() string {
	switch m {
	case RTT:
		return "ms"
	case ABW:
		return "Mbps"
	default:
		return "?"
	}
}

// GoodIsLow reports whether smaller metric values are better. RTT: yes
// (short delay); ABW: no (more bandwidth).
func (m Metric) GoodIsLow() bool { return m == RTT }

// Symmetric reports whether the metric is treated as symmetric
// (xᵢⱼ = xⱼᵢ). The paper treats RTT as symmetric (§3.1.1) and ABW as
// asymmetric (§3.1.2).
func (m Metric) Symmetric() bool { return m == RTT }

// Dataset is a ground-truth pairwise performance matrix plus the metadata
// the experiments need.
type Dataset struct {
	// Name identifies the dataset ("harvard", "meridian", "hp-s3", or the
	// name given by a loader).
	Name string
	// Metric is the measured quantity.
	Metric Metric
	// Matrix is the n×n ground truth. Diagonal entries are NaN (a node does
	// not probe itself); other entries may be NaN where the source data had
	// holes (HP-S3: 4%).
	Matrix *mat.Dense
	// DefaultK is the paper's default neighbor count for this dataset
	// (§6.2.2): 10 for Harvard, 32 for Meridian, 10 for HP-S3.
	DefaultK int
	// Trace carries timestamped dynamic measurements for datasets that have
	// them (Harvard). Nil for static datasets. Measurements are sorted by
	// time; Matrix then holds the per-pair medians, which §6.1 uses as the
	// ground truth.
	Trace []Measurement
}

// Measurement is one timestamped directed measurement from a dynamic trace.
type Measurement struct {
	// T is the measurement time as an offset from the trace start, seconds.
	T float64
	// I is the observing node and J the probed node.
	I, J int
	// Value is the measured metric quantity.
	Value float64
}

// N returns the number of nodes.
func (d *Dataset) N() int { return d.Matrix.Rows() }

// Values returns all present off-diagonal ground-truth values.
func (d *Dataset) Values() []float64 { return d.Matrix.PresentOffDiag() }

// Median returns the dataset median, the paper's default classification
// threshold τ: mat.Median(d.Values()), selected from the matrix itself
// without copying its values (see mat.Dense.PercentileOffDiag).
func (d *Dataset) Median() float64 { return d.Matrix.PercentileOffDiag(50) }

// TauForGoodPortion returns the classification threshold τ that labels the
// given fraction (0..1) of paths "good". For RTT, good paths are those with
// value ≤ τ, so τ is the portion-quantile; for ABW, good paths have value
// ≥ τ, so τ is the (1−portion)-quantile. This is how Table 1 is generated.
// Like Median, it selects the percentile of Values() from the matrix
// without copying it.
func (d *Dataset) TauForGoodPortion(portion float64) float64 {
	if portion <= 0 || portion >= 1 {
		panic(fmt.Sprintf("dataset: portion %v out of (0,1)", portion))
	}
	if d.Metric.GoodIsLow() {
		return d.Matrix.PercentileOffDiag(portion * 100)
	}
	return d.Matrix.PercentileOffDiag((1 - portion) * 100)
}

// GoodPortion returns the fraction of paths labelled "good" by threshold
// tau under this dataset's metric polarity.
func (d *Dataset) GoodPortion(tau float64) float64 {
	vals := d.Values()
	if len(vals) == 0 {
		return 0
	}
	var good int
	for _, v := range vals {
		if IsGood(d.Metric, v, tau) {
			good++
		}
	}
	return float64(good) / float64(len(vals))
}

// IsGood reports whether a metric value counts as "good" under threshold
// tau: RTT ≤ τ or ABW ≥ τ (§3.2).
func IsGood(m Metric, value, tau float64) bool {
	if m.GoodIsLow() {
		return value <= tau
	}
	return value >= tau
}

// rngFor derives a deterministic rand.Rand from a seed, used by all
// generators so every experiment is reproducible.
func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
