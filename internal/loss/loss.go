// Package loss implements the three loss functions of the paper (§4.1) and
// their gradients with respect to the factor coordinates (§5.2.3):
//
//   - L2 (square) loss for quantity-based prediction:  l(x, x̂) = (x−x̂)²
//   - hinge loss for classification:                   l(x, x̂) = max(0, 1−x·x̂)
//   - logistic loss for classification:                l(x, x̂) = ln(1+e^(−x·x̂))
//
// where x is the reference value (±1 for classes, a real quantity for L2)
// and x̂ = u·vᵀ is the factorization estimate. The hinge loss is not
// differentiable at x·x̂ = 1; following the paper (footnote 2) the
// subgradient is used and referred to as the gradient.
//
// Gradient conventions match the paper exactly: the factor 2 from the L2
// derivative is dropped (§5.2.1, "for mathematical convenience"), so
//
//	L2:       ∂l/∂u = −(x − u·vᵀ)·v            (eq. 18)
//	hinge:    ∂l/∂u = −x·v if 1 − x·u·vᵀ > 0   (eq. 14), else 0
//	logistic: ∂l/∂u = −x·v / (1 + e^{x·u·vᵀ})  (eq. 16)
//
// and symmetrically for v with u and v exchanged (eqs. 15, 17, 19).
package loss

import (
	"fmt"
	"math"
)

// Kind identifies one of the paper's loss functions.
type Kind uint8

const (
	// L2 is the square loss used for quantity-based prediction (regression).
	L2 Kind = iota
	// Hinge is the max-margin classification loss.
	Hinge
	// Logistic is the log-loss; the paper's recommended default for
	// class-based prediction (§6.2.1).
	Logistic
)

// String returns the human-readable name of the loss.
func (k Kind) String() string {
	switch k {
	case L2:
		return "l2"
	case Hinge:
		return "hinge"
	case Logistic:
		return "logistic"
	default:
		return fmt.Sprintf("loss.Kind(%d)", uint8(k))
	}
}

// IsClassification reports whether the loss expects ±1 class labels.
func (k Kind) IsClassification() bool { return k == Hinge || k == Logistic }

// Value returns l(x, xhat) for the loss kind.
func (k Kind) Value(x, xhat float64) float64 {
	switch k {
	case L2:
		d := x - xhat
		return d * d
	case Hinge:
		return math.Max(0, 1-x*xhat)
	case Logistic:
		return log1pExpNeg(x * xhat)
	default:
		panic("loss: invalid Kind")
	}
}

// Scalar returns the scalar multiplier g such that the gradient of
// l(x, u·vᵀ) with respect to u equals g·v and with respect to v equals g·u.
// All three of the paper's losses share this structure because they depend
// on u and v only through the bilinear form u·vᵀ:
//
//	L2:       g = −(x − x̂)
//	hinge:    g = −x   if 1 − x·x̂ > 0, else 0
//	logistic: g = −x / (1 + e^{x·x̂})
//
// Callers apply the SGD update as coordinate ← (1−ηλ)·coordinate − η·g·other,
// which is exactly eqs. 9–13 with zero extra allocation.
func (k Kind) Scalar(x, xhat float64) float64 {
	switch k {
	case L2:
		return xhat - x
	case Hinge:
		if 1-x*xhat > 0 {
			return -x
		}
		return 0
	case Logistic:
		// −x·σ(−x·x̂) where σ is the logistic function, computed stably.
		return -x * sigmoid(-x*xhat)
	default:
		panic("loss: invalid Kind")
	}
}

// log1pExpNeg computes ln(1+e^(−z)) without overflow for large |z|.
func log1pExpNeg(z float64) float64 {
	if z < -35 {
		// e^{-z} dominates; ln(1+e^{-z}) ≈ −z.
		return -z
	}
	if z > 35 {
		// e^{-z} underflows to 0 but log1p handles tiny values exactly.
		return math.Exp(-z)
	}
	return math.Log1p(math.Exp(-z))
}

// sigmoid computes 1/(1+e^(−z)) stably for all z.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Kinds lists every supported loss, in declaration order. Useful for sweeps.
func Kinds() []Kind { return []Kind{L2, Hinge, Logistic} }

// ClassificationKinds lists the losses valid for class-based prediction.
func ClassificationKinds() []Kind { return []Kind{Hinge, Logistic} }
