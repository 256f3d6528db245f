package linalg

import "runtime"

// parallelThreshold is the flop count (2*m*n*k) above which GemmAuto
// fans the multiply out over goroutines.  Below it the fork/join
// overhead outweighs the speedup.
const parallelThreshold = 4 << 20 // ~4 Mflop

// GemmParallel computes C = alpha*A*B + beta*C like Gemm, splitting the
// rows of C into bands computed by `workers` goroutines.  Bands are
// disjoint, so the result is bit-identical to the serial Gemm.  The
// paper notes super instructions may exploit "thread-level parallelism"
// within a node (§V-A); this is that option for the contraction kernel.
func GemmParallel(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64, workers int) {
	checkGemm(m, n, k, a, b, c)
	gemmMatrix(alpha, rowMajor(m, k, a), rowMajor(k, n, b), beta, c, max(1, workers))
}

// GemmAuto dispatches to the serial or parallel kernel by problem size.
func GemmAuto(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	checkGemm(m, n, k, a, b, c)
	gemmMatrix(alpha, rowMajor(m, k, a), rowMajor(k, n, b), beta, c, autoWorkers)
}

// autoBands is GemmAuto's choice of band count for an m×k by k×n
// product.
func autoBands(m, n, k int) int {
	if 2*int64(m)*int64(n)*int64(k) >= parallelThreshold {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}
