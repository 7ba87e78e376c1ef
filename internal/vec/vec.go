// Package vec provides the small dense linear-algebra kernel used by every
// embedding component in the system: float32 vector operations, embedding
// matrices, and initialization schemes.
//
// All operations are written as straight loops over []float32. Embeddings in
// this system are short (tens to hundreds of elements), so bounds-check
// hoisting via an explicit length prefix is the only optimization applied.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float32) float32 {
	checkLen(a, b)
	var s float32
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// DotAxpy fuses an accumulation with an inner product in one pass:
// dst += alpha*x, returning Dot(x, y). It exists for gradient kernels that
// would otherwise traverse x twice — once to apply it, once to reduce it
// against y (RESCAL's row-wise ∂/∂t plus M·t product, for example).
func DotAxpy(dst []float32, alpha float32, x, y []float32) float32 {
	checkLen(dst, x)
	checkLen(x, y)
	var s float32
	for i, v := range x {
		dst[i] += alpha * v
		s += v * y[i]
	}
	return s
}

// Dot2 returns Dot(a, x) and Dot(a, y) in a single fused pass over a —
// the two-projection reduction models with relation hyperplanes need
// (TransH computes wᵀh and wᵀt for every score and gradient).
func Dot2(a, x, y []float32) (ax, ay float32) {
	checkLen(a, x)
	checkLen(a, y)
	for i, v := range a {
		ax += v * x[i]
		ay += v * y[i]
	}
	return ax, ay
}

// Add stores a+b into dst. dst may alias a or b.
func Add(dst, a, b []float32) {
	checkLen(a, b)
	checkLen(dst, a)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub stores a-b into dst. dst may alias a or b.
func Sub(dst, a, b []float32) {
	checkLen(a, b)
	checkLen(dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Axpy computes dst += alpha*x, the classic BLAS saxpy.
func Axpy(dst []float32, alpha float32, x []float32) {
	checkLen(dst, x)
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// L2 returns the l2 (Euclidean) norm of x.
func L2(x []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2(x))))
}

// SquaredL2 returns the squared l2 norm of x.
func SquaredL2(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v * v
	}
	return s
}

// SquaredL2Dist returns the squared l2 distance between a and b.
func SquaredL2Dist(a, b []float32) float32 {
	checkLen(a, b)
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// L2Dist returns the l2 distance between a and b.
func L2Dist(a, b []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2Dist(a, b))))
}

// Zero sets every element of x to zero.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Normalize scales x to unit l2 norm. A zero vector is left untouched.
func Normalize(x []float32) {
	n := L2(x)
	if n == 0 {
		return
	}
	Scale(x, 1/n)
}

func checkLen(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d != %d", len(a), len(b)))
	}
}
