package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// gemmSameOrder is the reference for the bit-identity contract of Gemm:
// C = beta*C, then c += (alpha*a[i][l])*b[l][j] for l ascending, every
// product rounded before its add.  A and B are read through element
// functions so a Matrix view can be checked the same way.
func gemmSameOrder(m, n, k int, alpha float64, a, b func(i, j int) float64, beta float64, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := c[i*n+j]
			switch beta {
			case 0:
				v = 0
			case 1:
			default:
				v *= beta
			}
			if alpha != 0 {
				for l := 0; l < k; l++ {
					v += float64(alpha * a(i, l) * b(l, j))
				}
			}
			c[i*n+j] = v
		}
	}
}

func rowMajorAt(cols int, x []float64) func(i, j int) float64 {
	return func(i, j int) float64 { return x[i*cols+j] }
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: c[%d] = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestGemmBitIdenticalToNaive pins the summation order: every kernel
// path (full micro-tiles, partial edge tiles in m and n, several kc
// panels in k, several nc panels in n, row bands) must reproduce the
// naive loop bit for bit.
func TestGemmBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {2, 4, 3}, {3, 5, 7}, {5, 3, 1}, {1, 9, 17},
		{2*mr + 1, 3*nr + 3, 2}, // partial tiles in m and n
		{7, 6, kc + 1},          // k > kc
		{4, 11, 2*kc + 37},      // three kc panels
		{3, nc + 9, 5},          // n > nc
		{5, 2*nc + 3, kc + 3},   // n > 2nc and k > kc
		{6, 5, 0},               // k = 0
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, struct{ m, n, k int }{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(300)})
	}
	for _, sh := range shapes {
		for _, alpha := range []float64{1, 0, -0.75} {
			for _, beta := range []float64{0, 1, 2.5} {
				a := randSlice(rng, sh.m*sh.k)
				b := randSlice(rng, sh.k*sh.n)
				c := randSlice(rng, sh.m*sh.n)
				want := append([]float64(nil), c...)
				gemmSameOrder(sh.m, sh.n, sh.k, alpha, rowMajorAt(sh.k, a), rowMajorAt(sh.n, b), beta, want)
				for _, workers := range []int{1, 2, 3} {
					got := append([]float64(nil), c...)
					GemmParallel(sh.m, sh.n, sh.k, alpha, a, b, beta, got, workers)
					sameBits(t, "GemmParallel", got, want)
				}
				got := append([]float64(nil), c...)
				Gemm(sh.m, sh.n, sh.k, alpha, a, b, beta, got)
				sameBits(t, "Gemm", got, want)
			}
		}
	}
}

// TestGemmMatrixGathersPermutedView multiplies operands stored with
// their axes in a different order from the matrix view, the layout a
// tensor contraction hands to GemmMatrix, and requires the same bits
// as the naive loop reading through the view.
func TestGemmMatrixGathersPermutedView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// A is stored as [l1][i][l0] and viewed as rows i, columns (l0, l1);
	// B is stored as [j][l0][l1] and viewed as rows (l0, l1), columns j.
	// k = l0*l1 = 299 spans several kc panels.
	const m, n, l0, l1 = 9, 7, 23, 13
	k := l0 * l1
	as := randSlice(rng, l1*m*l0)
	bs := randSlice(rng, n*l0*l1)
	am := Matrix{Data: as, Rows: []Axis{{m, l0}}, Cols: []Axis{{l0, 1}, {l1, m * l0}}}
	bm := Matrix{Data: bs, Rows: []Axis{{l0, l1}, {l1, 1}}, Cols: []Axis{{n, l0 * l1}}}
	aAt := func(i, l int) float64 { return as[(l%l1)*m*l0+i*l0+l/l1] }
	bAt := func(l, j int) float64 { return bs[j*l0*l1+(l/l1)*l1+l%l1] }
	want := make([]float64, m*n)
	gemmSameOrder(m, n, k, 1.5, aAt, bAt, 0, want)
	got := randSlice(rng, m*n) // beta = 0 overwrites
	GemmMatrix(1.5, am, bm, 0, got)
	sameBits(t, "GemmMatrix", got, want)
}

// TestGemmZeroTimesInfIsNaN pins the IEEE behaviour: with alpha != 0
// and k > 0 every product is formed, so a zero in A against an Inf or
// NaN in B poisons C.  Only alpha = 0 or k = 0 leave A and B unread.
func TestGemmZeroTimesInfIsNaN(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		c := []float64{1, 1}
		Gemm(1, 2, 1, 1, []float64{0}, []float64{bad, 2}, 0, c)
		if !math.IsNaN(c[0]) || c[1] != 0 {
			t.Errorf("0*%v: c = %v, want [NaN 0]", bad, c)
		}
		c = []float64{1, 1}
		Gemm(1, 2, 1, 0, []float64{0}, []float64{bad, 2}, 1, c)
		if c[0] != 1 || c[1] != 1 {
			t.Errorf("alpha=0 with %v in B: c = %v, want [1 1]", bad, c)
		}
	}
}

// TestGemmMatrixRejectsOutOfRangeView checks the bounds check on a view
// whose axes reach past its data.
func TestGemmMatrixRejectsOutOfRangeView(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a view reaching past its data")
		}
	}()
	a := Matrix{Data: make([]float64, 5), Rows: []Axis{{2, 3}}, Cols: []Axis{{3, 1}}}
	GemmMatrix(1, a, rowMajor(3, 1, make([]float64, 3)), 0, make([]float64, 2))
}
