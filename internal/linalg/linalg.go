// Package linalg provides the dense linear-algebra kernels that back the
// SIA super instructions.
//
// The paper implements super instructions in Fortran on top of vendor
// DGEMM.  This package is the pure-Go substitute: a packed,
// register-tiled GEMM plus the transpose and vector helpers the block
// operations need.  Only float64 is supported, matching the paper's
// double-precision tensors.
//
// The GEMM copies kc-deep panels of B into nr-wide column strips and
// mr-row slivers of A (scaled by alpha) into packed buffers, then runs
// an mr×nr micro-kernel that keeps its C tile in registers across the
// panel; partial tiles at the edges take a scalar loop.  Packing reads
// each operand through per-row and per-column offset tables (Matrix),
// so an operand whose axes are stored in any order is gathered while
// it is packed and never permuted into a copy.  Each element of C is
// still summed in the order of a naive loop, without fused
// multiply-adds, so every entry point gives bit-identical results.
package linalg

import (
	"fmt"
	"math"
)

// Gemm computes C = alpha*A*B + beta*C for row-major matrices:
// A is m×k, B is k×n, C is m×n.  It panics if the slice lengths are too
// small for the given dimensions, since that is always a programming
// error in the caller.
//
// C is first scaled by beta (beta = 0 overwrites it, so NaNs already in
// C do not survive).  Then every element accumulates
// c += (alpha*a[i][l])*b[l][j] for l ascending, each product rounded
// before the add: no fused multiply-add and no reassociation.  Every
// kernel in this package sums in that order, so Gemm, GemmParallel,
// GemmAuto and GemmMatrix agree bit for bit with each other and with a
// naive triple loop in that order.  When k = 0 or alpha = 0, A and B
// are not read.  Otherwise every product is formed, so a zero in A
// times an Inf or NaN in B gives NaN in C, as IEEE 754 requires.
func Gemm(m, n, k int, alpha float64, a []float64, b []float64, beta float64, c []float64) {
	checkGemm(m, n, k, a, b, c)
	gemmMatrix(alpha, rowMajor(m, k, a), rowMajor(k, n, b), beta, c, 1)
}

// checkGemm panics unless a, b and c hold the m×k, k×n and m×n
// row-major matrices of a Gemm call.
func checkGemm(m, n, k int, a, b, c []float64) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("linalg: negative dimension m=%d n=%d k=%d", m, n, k))
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("linalg: short slice for m=%d n=%d k=%d: len(a)=%d len(b)=%d len(c)=%d",
			m, n, k, len(a), len(b), len(c)))
	}
}

// Transpose writes the transpose of the m×n row-major matrix src into
// dst, which must have room for n*m elements.  src and dst must not
// alias.
func Transpose(m, n int, src, dst []float64) {
	if len(src) < m*n || len(dst) < m*n {
		panic(fmt.Sprintf("linalg: transpose short slice m=%d n=%d", m, n))
	}
	for i := 0; i < m; i++ {
		row := src[i*n : i*n+n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

// Axpy computes y += alpha*x elementwise.  x and y must have equal
// length.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d != %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(v float64, x []float64) {
	for i := range x {
		x[i] = v
	}
}

// Dot returns the inner product of x and y, which must have equal
// length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute value in x, or 0 for an empty
// slice.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
