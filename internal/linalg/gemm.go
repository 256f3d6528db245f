package linalg

import (
	"fmt"
	"sync"
)

// Tile sizes of the packed kernel.  A 2×4 micro-tile keeps its 8
// accumulators plus 2 A and 1 B operand in registers; a 4×4 tile needs
// more than amd64's 16 vector registers and spills.  A kc-deep sliver of
// A (2 KiB) and strip of B (4 KiB) stay in L1 while a packed kc×nc
// panel of B (256 KiB) stays in L2.  Larger panels measured no faster
// and would keep more memory in the scratch free list.
const (
	mr = 2   // micro-tile rows
	nr = 4   // micro-tile columns
	kc = 128 // depth of a packed panel
	nc = 256 // width of a packed B panel
)

// An Axis is one tensor dimension seen by a Matrix: Len indices whose
// elements lie Stride apart in the Matrix's Data.
type Axis struct{ Len, Stride int }

// A Matrix is a read-only matrix view of a dense tensor.  Its row index
// enumerates the Rows axes in row-major order (last axis fastest), its
// column index the Cols axes, and element (i, j) is Data[row(i)+col(j)]
// where row and col sum index times stride over their axes.  An empty
// axis list is one row (or column) at offset 0.
//
// A row-major m×k slice is Matrix{a, []Axis{{m, k}}, []Axis{{k, 1}}}.
// Any split of a tensor's axes into a row group and a column group, in
// any order, is a Matrix over the tensor's own storage, so a contraction
// needs no transposed copy of its operands.
type Matrix struct {
	Data       []float64
	Rows, Cols []Axis
}

// rowMajor views the first rows*cols elements of data as a row-major
// matrix.
func rowMajor(rows, cols int, data []float64) Matrix {
	return Matrix{Data: data, Rows: []Axis{{rows, cols}}, Cols: []Axis{{cols, 1}}}
}

// extent returns the number of indices the axes enumerate and the
// largest offset they reach, panicking on a negative length or stride.
func extent(axes []Axis) (count, maxOff int) {
	count = 1
	for _, ax := range axes {
		if ax.Len < 0 || ax.Stride < 0 {
			panic(fmt.Sprintf("linalg: negative axis %+v", ax))
		}
		count *= ax.Len
		maxOff += (ax.Len - 1) * ax.Stride
	}
	return count, maxOff
}

// shape returns the matrix's row and column counts after checking that
// every element it addresses lies inside Data.
func (x Matrix) shape() (rows, cols int) {
	rows, rowOff := extent(x.Rows)
	cols, colOff := extent(x.Cols)
	if rows > 0 && cols > 0 && rowOff+colOff >= len(x.Data) {
		panic(fmt.Sprintf("linalg: %d×%d matrix view reaches offset %d of %d elements",
			rows, cols, rowOff+colOff, len(x.Data)))
	}
	return rows, cols
}

// offsets appends to dst[:0] the offset of every index the axes
// enumerate, in row-major order.
func offsets(axes []Axis, dst []int) []int {
	dst = append(dst[:0], 0)
	for _, ax := range axes {
		n := len(dst)
		dst = grow(dst, n*ax.Len)
		// Expand in place from the back: entry o moves to o*Len, which
		// is never below an entry still to be read.
		for o := n - 1; o >= 0; o-- {
			base := dst[o]
			for x := ax.Len - 1; x >= 0; x-- {
				dst[o*ax.Len+x] = base + x*ax.Stride
			}
		}
	}
	return dst
}

// gathered is a Matrix with its axes expanded to offset tables: element
// (i, j) is data[row[i]+col[j]].
type gathered struct {
	data     []float64
	row, col []int
}

// scratch holds one multiply's offset tables and the packing buffers of
// each of its row bands.
type scratch struct {
	idx   []int
	bands []packer
}

// packer holds the packed A sliver and B panel of one row band.
type packer struct{ a, b []float64 }

// scratches is a free list of scratch space, so repeated multiplies
// allocate nothing once it is warm.  A sync.Pool does not fit: it drops
// idle items at garbage collections, and a contraction allocates a
// fresh result every call, so collections come every few calls and the
// packing buffers would be allocated again and again.  The list
// keeps at most cap(scratches) of them, enough for that many multiplies
// running at once (one per SIP worker).
var scratches = make(chan *scratch, 8)

func getScratch() *scratch {
	select {
	case s := <-scratches:
		return s
	default:
		return new(scratch)
	}
}

func putScratch(s *scratch) {
	select {
	case scratches <- s:
	default:
	}
}

// grow returns s resized to n elements, keeping its contents.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		t := make([]T, n)
		copy(t, s)
		return t
	}
	return s[:n]
}

// GemmMatrix computes C = alpha*A*B + beta*C, where A and B are matrix
// views of any dense storage and C is a row-major slice of
// rows(A)×cols(B) elements.  cols(A) must equal rows(B).  Like GemmAuto
// it splits large products into row bands over GOMAXPROCS goroutines.
// Results and their IEEE behaviour are those of Gemm.
func GemmMatrix(alpha float64, a, b Matrix, beta float64, c []float64) {
	gemmMatrix(alpha, a, b, beta, c, autoWorkers)
}

// autoWorkers asks gemmMatrix to choose serial or parallel by size.
const autoWorkers = 0

// gemmMatrix is the one GEMM driver behind Gemm, GemmParallel, GemmAuto
// and GemmMatrix.  workers is the number of row bands, or autoWorkers.
func gemmMatrix(alpha float64, a, b Matrix, beta float64, c []float64, workers int) {
	m, k := a.shape()
	kb, n := b.shape()
	if k != kb {
		panic(fmt.Sprintf("linalg: inner dimensions differ: A is %d×%d, B is %d×%d", m, k, kb, n))
	}
	if len(c) < m*n {
		panic(fmt.Sprintf("linalg: C has %d elements, want %d×%d", len(c), m, n))
	}
	// Scale C by beta first so the kernels can always add.
	switch beta {
	case 1:
	case 0:
		clear(c[:m*n])
	default:
		for i := range c[:m*n] {
			c[i] *= beta
		}
	}
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}
	if workers == autoWorkers {
		workers = autoBands(m, n, k)
	}
	workers = max(1, min(workers, m))

	s := getScratch()
	defer putScratch(s)
	s.idx = grow(s.idx, m+2*k+n)
	idx := s.idx
	ag := gathered{data: a.Data, row: offsets(a.Rows, idx[:0:m]), col: offsets(a.Cols, idx[m:m:m+k])}
	bg := gathered{data: b.Data, row: offsets(b.Rows, idx[m+k:m+k:m+2*k]), col: offsets(b.Cols, idx[m+2*k:m+2*k:m+2*k+n])}
	if len(s.bands) < workers {
		s.bands = append(s.bands, make([]packer, workers-len(s.bands))...)
	}
	if workers == 1 {
		s.bands[0].gemm(alpha, ag, bg, c)
		return
	}
	// Bands of C rows are disjoint and each element is summed in the
	// same order as in the serial kernel, so the result is bit-identical.
	// The last band runs on this goroutine.
	band := func(w int) {
		lo, hi := m*w/workers, m*(w+1)/workers
		s.bands[w].gemm(alpha, gathered{data: ag.data, row: ag.row[lo:hi], col: ag.col}, bg, c[lo*n:hi*n])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			band(w)
		}(w)
	}
	band(workers - 1)
	wg.Wait()
}

// gemm adds alpha*A*B into the row-major C, which has len(a.row) rows
// of len(b.col) elements.  Every element is accumulated as
// c += float64(alpha*a[i][l]) * b[l][j] for l ascending, exactly the
// order of a naive triple loop; the float64 conversions keep the
// compiler from fusing the multiply and add.
func (p *packer) gemm(alpha float64, a, b gathered, c []float64) {
	m, k, n := len(a.row), len(a.col), len(b.col)
	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kb := min(kc, k-pc)
			bp := p.packB(b, pc, kb, jc, nb)
			for i := 0; i < m; i += mr {
				mb := min(mr, m-i)
				ap := p.packA(alpha, a, i, mb, pc, kb)
				for j := 0; j < nb; j += nr {
					strip := bp[j*kb : (j+nr)*kb]
					ci := i*n + jc + j
					if mb == mr && j+nr <= nb {
						kernel2x4(ap, strip, c[ci:ci+nr], c[ci+n:ci+n+nr])
					} else {
						edge(ap, strip, c[ci:], n, mb, min(nr, nb-j))
					}
				}
			}
		}
	}
}

// packA copies rows i..i+mb-1, columns pc..pc+kb-1 of A, scaled by
// alpha, into an mr-interleaved sliver: entry l*mr+r is
// alpha*A(i+r, pc+l).  Rows past mb are zero.
func (p *packer) packA(alpha float64, a gathered, i, mb, pc, kb int) []float64 {
	ap := grow(p.a, mr*kb)
	p.a = ap
	cols := a.col[pc : pc+kb]
	for r := 0; r < mr; r++ {
		if r >= mb {
			for l := range cols {
				ap[l*mr+r] = 0
			}
			continue
		}
		row := a.data[a.row[i+r]:]
		for l, off := range cols {
			ap[l*mr+r] = alpha * row[off]
		}
	}
	return ap
}

// packB copies rows pc..pc+kb-1, columns jc..jc+nb-1 of B into strips
// of nr columns: entry l*nr+q of the strip starting at column j is
// B(pc+l, jc+j+q), and the strip itself starts at j*kb.  Columns past
// nb in the last strip are zero.
func (p *packer) packB(b gathered, pc, kb, jc, nb int) []float64 {
	width := (nb + nr - 1) / nr * nr
	bp := grow(p.b, width*kb)
	p.b = bp
	cols := b.col[jc : jc+nb]
	for l, rowOff := range b.row[pc : pc+kb] {
		row := b.data[rowOff:]
		for j, off := range cols {
			bp[(j/nr*nr)*kb+l*nr+j%nr] = row[off]
		}
		for j := nb; j < width; j++ {
			bp[(j/nr*nr)*kb+l*nr+j%nr] = 0
		}
	}
	return bp
}

// kernel2x4 accumulates a packed A sliver times a packed B strip into
// the 2×4 tile whose rows are c0 and c1, holding the tile in registers
// across the whole depth.  The loop is unrolled twice: that makes the
// compiler finish each step's adds before the next step's multiplies,
// so the 8 accumulators, 2 A values and 1 B value fit in registers
// without spills (twice the speed of the plain loop).
func kernel2x4(ap, bp, c0, c1 []float64) {
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	for len(ap) >= 2*mr && len(bp) >= 2*nr {
		a0, a1 := ap[0], ap[1]
		b := bp[0]
		c00 += float64(a0 * b)
		c10 += float64(a1 * b)
		b = bp[1]
		c01 += float64(a0 * b)
		c11 += float64(a1 * b)
		b = bp[2]
		c02 += float64(a0 * b)
		c12 += float64(a1 * b)
		b = bp[3]
		c03 += float64(a0 * b)
		c13 += float64(a1 * b)
		a0, a1 = ap[2], ap[3]
		b = bp[4]
		c00 += float64(a0 * b)
		c10 += float64(a1 * b)
		b = bp[5]
		c01 += float64(a0 * b)
		c11 += float64(a1 * b)
		b = bp[6]
		c02 += float64(a0 * b)
		c12 += float64(a1 * b)
		b = bp[7]
		c03 += float64(a0 * b)
		c13 += float64(a1 * b)
		ap, bp = ap[2*mr:], bp[2*nr:]
	}
	if len(ap) >= mr && len(bp) >= nr { // odd depth
		a0, a1 := ap[0], ap[1]
		c00 += float64(a0 * bp[0])
		c10 += float64(a1 * bp[0])
		c01 += float64(a0 * bp[1])
		c11 += float64(a1 * bp[1])
		c02 += float64(a0 * bp[2])
		c12 += float64(a1 * bp[2])
		c03 += float64(a0 * bp[3])
		c13 += float64(a1 * bp[3])
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// edge is the scalar kernel for a partial mb×nb tile at the bottom or
// right edge of C; c starts at the tile's first element and has rows
// ldc apart.
func edge(ap, bp, c []float64, ldc, mb, nb int) {
	kb := len(ap) / mr
	for r := 0; r < mb; r++ {
		for q := 0; q < nb; q++ {
			v := c[r*ldc+q]
			for l := 0; l < kb; l++ {
				v += float64(ap[l*mr+r] * bp[l*nr+q])
			}
			c[r*ldc+q] = v
		}
	}
}
