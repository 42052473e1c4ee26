// Package classify turns metric quantities into binary performance classes
// (§3.2 of the paper): a path is "good" (+1) or "bad" (−1) relative to a
// classification threshold τ chosen by the application.
//
// For RTT the class is obtained by thresholding a cheap ping measurement.
// For ABW the class can be measured *directly* without estimating the
// quantity: send one UDP train at rate τ and observe whether the path
// congests (pathload-style), or run a shortened pathchirp and threshold its
// rough estimate. Package classify models both, including their
// characteristic inaccuracy on paths whose quantity lies near τ.
package classify

import (
	"fmt"
	"math"
	"math/rand"

	"dmfsgd/internal/dataset"
	"dmfsgd/internal/mat"
)

// Class is a binary performance class.
type Class int8

const (
	// Good marks a well-performing path (+1 in the paper's matrices).
	Good Class = 1
	// Bad marks a poorly-performing path (−1).
	Bad Class = -1
)

// String returns "good" or "bad".
func (c Class) String() string {
	switch c {
	case Good:
		return "good"
	case Bad:
		return "bad"
	default:
		return fmt.Sprintf("classify.Class(%d)", int8(c))
	}
}

// Value returns the numeric label (+1 / −1) used by the SGD losses.
func (c Class) Value() float64 { return float64(c) }

// FromValue converts a ±1 (or any signed) numeric label to a Class.
// Zero maps to Bad, matching sign-based decisions where x̂ must be
// strictly positive to be called good.
func FromValue(v float64) Class {
	if v > 0 {
		return Good
	}
	return Bad
}

// Of classifies a metric quantity against threshold tau under the metric's
// polarity: RTT ≤ τ is good; ABW ≥ τ is good.
func Of(m dataset.Metric, value, tau float64) Class {
	if dataset.IsGood(m, value, tau) {
		return Good
	}
	return Bad
}

// Labels returns the entries of the class matrix as a function, without
// building the matrix: (i, j) is d's ground truth thresholded at tau,
// NaN where it is missing — Matrix(d, tau).At, read from d.Matrix.
func Labels(d *dataset.Dataset, tau float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		v := d.Matrix.At(i, j)
		if math.IsNaN(v) {
			return v
		}
		return Of(d.Metric, v, tau).Value()
	}
}

// Matrix builds the class matrix of a ground-truth quantity matrix:
// entry (i,j) is +1/−1 by thresholding at tau; missing entries stay NaN.
// This is the matrix X of Fig. 2.
func Matrix(d *dataset.Dataset, tau float64) *mat.Dense {
	out := d.Matrix.Clone()
	out.Apply(func(i, j int, v float64) float64 {
		return Of(d.Metric, v, tau).Value()
	})
	return out
}

// Prober produces class measurements for node pairs. Implementations model
// the measurement tools of §3.2.
type Prober interface {
	// ProbeClass returns the measured class of the path i→j under the
	// prober's threshold, and false if the pair cannot be measured (missing
	// ground truth).
	ProbeClass(i, j int) (Class, bool)
}

// ExactProber returns the true class of each pair: ideal measurement with
// no tool error. The erroneous-measurement experiments (§6.3) layer
// corruption on top of this via package corrupt.
type ExactProber struct {
	ds  *dataset.Dataset
	tau float64
}

// NewExactProber builds an ExactProber with threshold tau.
func NewExactProber(ds *dataset.Dataset, tau float64) *ExactProber {
	return &ExactProber{ds: ds, tau: tau}
}

// Tau returns the classification threshold.
func (p *ExactProber) Tau() float64 { return p.tau }

// ProbeClass implements Prober.
func (p *ExactProber) ProbeClass(i, j int) (Class, bool) {
	if p.ds.Matrix.IsMissing(i, j) {
		return Bad, false
	}
	return Of(p.ds.Metric, p.ds.Matrix.At(i, j), p.tau), true
}

// NoisyProber models a real measurement tool: paths whose quantity lies
// near τ are misclassified with a probability that decays with distance
// from τ (§3.2: "directly measured performance classes may be inaccurate
// especially for those paths with metric quantities close to τ").
//
// The error model is P(flip) = 0.5·exp(−|v−τ| / (Width·τ)): a path exactly
// at τ is a coin flip, a path far from τ is essentially never wrong. Width
// expresses the tool's resolution as a fraction of τ; pathload-style
// single-train probes have larger Width than full-length runs, which is the
// cost/accuracy dilemma the paper describes.
type NoisyProber struct {
	ds    *dataset.Dataset
	tau   float64
	width float64
	rng   *rand.Rand
}

// NewNoisyProber builds a NoisyProber. width must be positive; typical
// values are 0.05 (careful tool) to 0.3 (single short train).
func NewNoisyProber(ds *dataset.Dataset, tau, width float64, rng *rand.Rand) *NoisyProber {
	if width <= 0 {
		panic(fmt.Sprintf("classify: width must be positive, got %v", width))
	}
	return &NoisyProber{ds: ds, tau: tau, width: width, rng: rng}
}

// ProbeClass implements Prober.
func (p *NoisyProber) ProbeClass(i, j int) (Class, bool) {
	if p.ds.Matrix.IsMissing(i, j) {
		return Bad, false
	}
	v := p.ds.Matrix.At(i, j)
	c := Of(p.ds.Metric, v, p.tau)
	if p.rng.Float64() < p.flipProb(v) {
		c = -c
	}
	return c, true
}

func (p *NoisyProber) flipProb(v float64) float64 {
	scale := p.width * math.Abs(p.tau)
	if scale == 0 {
		return 0
	}
	return 0.5 * math.Exp(-math.Abs(v-p.tau)/scale)
}

// TraceClassifier converts dynamic quantity measurements (the Harvard
// trace) to class measurements on the fly.
type TraceClassifier struct {
	metric dataset.Metric
	tau    float64
}

// NewTraceClassifier builds a classifier for trace replay.
func NewTraceClassifier(metric dataset.Metric, tau float64) *TraceClassifier {
	return &TraceClassifier{metric: metric, tau: tau}
}

// Classify returns the class of one trace measurement.
func (tc *TraceClassifier) Classify(m dataset.Measurement) Class {
	return Of(tc.metric, m.Value, tc.tau)
}
