// Package vec provides the small dense-vector kernel used throughout the
// DMFSGD library. Coordinates of a node (the rows uᵢ and vᵢ of the factor
// matrices U and V) are plain []float64 slices; the stochastic gradient
// updates in the paper (eqs. 9, 10, 12, 13) reduce to a handful of
// dot/axpy/scale primitives which live here.
//
// All functions panic on dimension mismatch: a mismatch is always a
// programming error in this library, never an input error.
package vec

import (
	"fmt"
	"math"
	"math/rand"
)

// Dot returns the inner product a·b.
//
// The loop is unrolled four ways into a single accumulator — the adds
// stay in ascending index order, exactly like the naive loop, so results
// are bit-identical to it (unrolling only removes loop and bounds-check
// overhead, it never reassociates the float64 summation). Small fixed
// ranks get fully unrolled fast paths: r = 10 is the paper's default
// coordinate dimensionality, and every snapshot/SGD hot loop lands there.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(dimErr("Dot", len(a), len(b)))
	}
	if len(a) == 10 {
		return dot10(a, b)
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot10 is the rank-10 fast path: fully unrolled, one accumulator, adds
// in ascending index order (bit-identical to the generic loop).
func dot10(a, b []float64) float64 {
	a = a[:10]
	b = b[:10]
	var s float64
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	return s
}

// Axpy performs dst += alpha*x element-wise. Like ScaleAxpy, elements are
// independent, so the unroll is bit-identical to the naive loop.
func Axpy(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic(dimErr("Axpy", len(x), len(dst)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		dst[i] += alpha * x[i]
		dst[i+1] += alpha * x[i+1]
		dst[i+2] += alpha * x[i+2]
		dst[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of dst by alpha in place.
func Scale(alpha float64, dst []float64) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// ScaleAxpy performs dst = beta*dst + alpha*x in a single pass. This is the
// exact shape of the SGD update rules: uᵢ ← (1−ηλ)uᵢ − η·grad.
//
// Each element is independent (no cross-element summation), so the 4-way
// unroll and the rank-10 fast path are trivially bit-identical to the
// naive loop.
func ScaleAxpy(beta float64, dst []float64, alpha float64, x []float64) {
	if len(x) != len(dst) {
		panic(dimErr("ScaleAxpy", len(x), len(dst)))
	}
	if len(x) == 10 {
		scaleAxpy10(beta, dst, alpha, x)
		return
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		dst[i] = beta*dst[i] + alpha*x[i]
		dst[i+1] = beta*dst[i+1] + alpha*x[i+1]
		dst[i+2] = beta*dst[i+2] + alpha*x[i+2]
		dst[i+3] = beta*dst[i+3] + alpha*x[i+3]
	}
	for ; i < len(x); i++ {
		dst[i] = beta*dst[i] + alpha*x[i]
	}
}

// scaleAxpy10 is the rank-10 fast path of ScaleAxpy.
func scaleAxpy10(beta float64, dst []float64, alpha float64, x []float64) {
	dst = dst[:10]
	x = x[:10]
	dst[0] = beta*dst[0] + alpha*x[0]
	dst[1] = beta*dst[1] + alpha*x[1]
	dst[2] = beta*dst[2] + alpha*x[2]
	dst[3] = beta*dst[3] + alpha*x[3]
	dst[4] = beta*dst[4] + alpha*x[4]
	dst[5] = beta*dst[5] + alpha*x[5]
	dst[6] = beta*dst[6] + alpha*x[6]
	dst[7] = beta*dst[7] + alpha*x[7]
	dst[8] = beta*dst[8] + alpha*x[8]
	dst[9] = beta*dst[9] + alpha*x[9]
}

// Add returns a+b as a new slice.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(dimErr("Add", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, av := range a {
		out[i] = av + b[i]
	}
	return out
}

// Sub returns a−b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(dimErr("Sub", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, av := range a {
		out[i] = av - b[i]
	}
	return out
}

// Copy returns an independent copy of a.
func Copy(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Norm2 returns the Euclidean norm ‖a‖₂, guarding against overflow for
// large components by scaling.
func Norm2(a []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range a {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// SqNorm returns a·a. This is the regularization term λ·uuᵀ of eq. 3.
func SqNorm(a []float64) float64 { return Dot(a, a) }

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(dimErr("Dist", len(a), len(b)))
	}
	var scale, ssq float64
	ssq = 1
	for i := range a {
		v := a[i] - b[i]
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// RandUniform fills dst with independent draws from Uniform[0,1) using rng.
// The paper initializes all node coordinates this way (§5.3).
func RandUniform(rng *rand.Rand, dst []float64) {
	for i := range dst {
		dst[i] = rng.Float64()
	}
}

// NewRandUniform allocates a length-n vector initialized from Uniform[0,1).
func NewRandUniform(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	RandUniform(rng, out)
	return out
}

// HasNaN reports whether any element is NaN or ±Inf. The runtime uses this
// to reject coordinate updates poisoned by corrupted wire input.
func HasNaN(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Clamp limits every element of dst to [−limit, +limit]. A cheap safeguard
// against coordinate blow-up when a caller disables regularization.
func Clamp(dst []float64, limit float64) {
	for i, v := range dst {
		if v > limit {
			dst[i] = limit
		} else if v < -limit {
			dst[i] = -limit
		}
	}
}

// Equal reports element-wise equality within tolerance tol.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func dimErr(op string, a, b int) string {
	return fmt.Sprintf("vec: %s dimension mismatch: %d vs %d", op, a, b)
}
