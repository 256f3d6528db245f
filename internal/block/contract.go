package block

import (
	"fmt"

	"repro/internal/linalg"
)

// Spec describes a tensor contraction C = A * B between blocks in terms
// of index labels (paper §III, footnote 3): labels shared by A and B are
// summed over; every label of C must appear in exactly one of A or B.
// Labels are arbitrary integers; the compiler uses interned index-variable
// names.
//
// Matrix multiplication is Spec{A:[i,k], B:[k,j], C:[i,j]}; the paper's
// example R(M,N,I,J) = V(M,N,L,S)*T(L,S,I,J) is
// Spec{A:[m,n,l,s], B:[l,s,i,j], C:[m,n,i,j]}.
type Spec struct {
	A, B, C []int
}

// plan is the analyzed form of a Spec: positions of free and contracted
// labels in each operand, plus the permutation taking the raw GEMM output
// [freeA..., freeB...] to the requested C order.
type plan struct {
	freeA       []int // positions in A of labels free in A
	freeB       []int // positions in B of labels free in B
	contractedA []int // positions in A of contracted labels
	contractedB []int // positions in B of the same labels, same order
	outPerm     []int // outPerm[d] = position in [freeA...,freeB...] of C dim d
}

// analyze validates the spec and produces an execution plan.
func (s Spec) analyze() (plan, error) {
	var p plan
	posA := labelPositions(s.A)
	posB := labelPositions(s.B)
	if posA == nil {
		return p, fmt.Errorf("block: duplicate label in A %v", s.A)
	}
	if posB == nil {
		return p, fmt.Errorf("block: duplicate label in B %v", s.B)
	}
	inC := map[int]bool{}
	for _, l := range s.C {
		if inC[l] {
			return p, fmt.Errorf("block: duplicate label in C %v", s.C)
		}
		inC[l] = true
	}
	for i, l := range s.A {
		if j, ok := posB[l]; ok {
			if inC[l] {
				return p, fmt.Errorf("block: label %d appears in A, B, and C", l)
			}
			p.contractedA = append(p.contractedA, i)
			p.contractedB = append(p.contractedB, j)
		} else {
			if !inC[l] {
				return p, fmt.Errorf("block: label %d of A appears nowhere else", l)
			}
			p.freeA = append(p.freeA, i)
		}
	}
	for j, l := range s.B {
		if _, ok := posA[l]; !ok {
			if !inC[l] {
				return p, fmt.Errorf("block: label %d of B appears nowhere else", l)
			}
			p.freeB = append(p.freeB, j)
		}
	}
	if len(s.C) != len(p.freeA)+len(p.freeB) {
		return p, fmt.Errorf("block: C labels %v do not match free labels of A %v and B %v", s.C, s.A, s.B)
	}
	// rawLabel[d] is the label of dimension d of the raw GEMM result.
	rawLabel := make([]int, 0, len(s.C))
	for _, i := range p.freeA {
		rawLabel = append(rawLabel, s.A[i])
	}
	for _, j := range p.freeB {
		rawLabel = append(rawLabel, s.B[j])
	}
	rawPos := labelPositions(rawLabel)
	p.outPerm = make([]int, len(s.C))
	for d, l := range s.C {
		i, ok := rawPos[l]
		if !ok {
			return p, fmt.Errorf("block: C label %d not free in A or B", l)
		}
		p.outPerm[d] = i
	}
	return p, nil
}

func labelPositions(labels []int) map[int]int {
	m := make(map[int]int, len(labels))
	for i, l := range labels {
		if _, dup := m[l]; dup {
			return nil
		}
		m[l] = i
	}
	return m
}

// Contract computes the contraction of a and b described by spec and
// returns the result.  The ranks of a, b and the label lists must match.
//
// Implementation follows the paper (§III footnote 3): the contraction
// becomes a single matrix multiply whose product is permuted into the
// requested output order.  The paper permutes the operands into GEMM
// order first; here GEMM reads each operand in place through a
// linalg.Matrix view that groups its axes into free and contracted
// labels, so no operand is copied.
func Contract(spec Spec, a, b *Block) (*Block, error) {
	if len(spec.A) != a.Rank() {
		return nil, fmt.Errorf("block: spec A rank %d != block rank %d", len(spec.A), a.Rank())
	}
	if len(spec.B) != b.Rank() {
		return nil, fmt.Errorf("block: spec B rank %d != block rank %d", len(spec.B), b.Rank())
	}
	p, err := spec.analyze()
	if err != nil {
		return nil, err
	}
	// Check contracted extents agree.
	for x, i := range p.contractedA {
		j := p.contractedB[x]
		if a.dims[i] != b.dims[j] {
			return nil, fmt.Errorf("block: contracted extent mismatch: A dim %d (%d) vs B dim %d (%d)",
				i, a.dims[i], j, b.dims[j])
		}
	}
	// A is the matrix [freeA..., contracted...] and B is
	// [contracted..., freeB...], each over its block's own storage.
	am := a.matrix(p.freeA, p.contractedA)
	bm := b.matrix(p.contractedB, p.freeB)

	m := prodDims(a.dims, p.freeA)
	n := prodDims(b.dims, p.freeB)
	raw := make([]float64, m*n)
	// GemmMatrix exploits thread-level parallelism for large blocks, one
	// of the kernel-tuning options the paper reserves for super
	// instructions (§V-A).
	linalg.GemmMatrix(1, am, bm, 0, raw)

	rawDims := make([]int, 0, len(p.freeA)+len(p.freeB))
	for _, i := range p.freeA {
		rawDims = append(rawDims, a.dims[i])
	}
	for _, j := range p.freeB {
		rawDims = append(rawDims, b.dims[j])
	}
	rawBlock := &Block{dims: rawDims, data: raw}
	if IdentityPerm(p.outPerm) {
		return rawBlock, nil
	}
	return rawBlock.Permute(p.outPerm), nil
}

// matrix views b as the matrix whose row index runs over its dimensions
// at positions rows and whose column index runs over those at cols.
func (b *Block) matrix(rows, cols []int) linalg.Matrix {
	ax := make([]linalg.Axis, 0, len(rows)+len(cols))
	for _, group := range [2][]int{rows, cols} {
		for _, i := range group {
			stride := 1
			for _, d := range b.dims[i+1:] {
				stride *= d
			}
			ax = append(ax, linalg.Axis{Len: b.dims[i], Stride: stride})
		}
	}
	return linalg.Matrix{Data: b.data, Rows: ax[:len(rows)], Cols: ax[len(rows):]}
}

// IdentityPerm reports whether perm maps every position to itself, i.e.
// applying it would only copy.  Callers use it to skip permutations.
func IdentityPerm(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// MustContract is Contract that panics on error; used where the spec was
// already validated by the compiler.
func MustContract(spec Spec, a, b *Block) *Block {
	c, err := Contract(spec, a, b)
	if err != nil {
		panic(err)
	}
	return c
}

// ContractFlops returns the number of floating-point operations (counting
// one multiply-add as two flops) performed by a contraction with the
// given spec and operand dimensions.  The runtime profiler and the
// performance model use this to cost super instructions.
func ContractFlops(spec Spec, adims, bdims []int) (int64, error) {
	p, err := spec.analyze()
	if err != nil {
		return 0, err
	}
	m := int64(prodDims(adims, p.freeA))
	k := int64(prodDims(adims, p.contractedA))
	n := int64(prodDims(bdims, p.freeB))
	return 2 * m * n * k, nil
}

// ContractNaive is a reference implementation of Contract using direct
// index loops; it exists to validate the GEMM-based path in tests.
func ContractNaive(spec Spec, a, b *Block) (*Block, error) {
	if len(spec.A) != a.Rank() || len(spec.B) != b.Rank() {
		return nil, fmt.Errorf("block: spec rank mismatch")
	}
	p, err := spec.analyze()
	if err != nil {
		return nil, err
	}
	for x, i := range p.contractedA {
		if a.dims[i] != b.dims[p.contractedB[x]] {
			return nil, fmt.Errorf("block: contracted extent mismatch")
		}
	}
	cdims := make([]int, len(spec.C))
	posA := labelPositions(spec.A)
	posB := labelPositions(spec.B)
	for d, l := range spec.C {
		if i, ok := posA[l]; ok {
			cdims[d] = a.dims[i]
		} else {
			cdims[d] = b.dims[posB[l]]
		}
	}
	out := New(cdims...)

	// Enumerate all assignments of values to free labels and, inside,
	// to contracted labels.
	aIdx := make([]int, a.Rank())
	bIdx := make([]int, b.Rank())
	cIdx := make([]int, len(cdims))
	kDims := make([]int, len(p.contractedA))
	for x, i := range p.contractedA {
		kDims[x] = a.dims[i]
	}
	var walkC func(d int)
	walkC = func(d int) {
		if d == len(cdims) {
			// Set free positions of aIdx/bIdx from cIdx.
			for dd, l := range spec.C {
				if i, ok := posA[l]; ok {
					aIdx[i] = cIdx[dd]
				} else {
					bIdx[posB[l]] = cIdx[dd]
				}
			}
			var sum float64
			kIdx := make([]int, len(kDims))
			for {
				for x, i := range p.contractedA {
					aIdx[i] = kIdx[x]
					bIdx[p.contractedB[x]] = kIdx[x]
				}
				// Rounding the product before the add (no FMA) is the
				// order Contract's GEMM uses, so the two agree exactly.
				sum += float64(a.At(aIdx...) * b.At(bIdx...))
				x := len(kIdx) - 1
				for ; x >= 0; x-- {
					kIdx[x]++
					if kIdx[x] < kDims[x] {
						break
					}
					kIdx[x] = 0
				}
				if x < 0 {
					break
				}
				if len(kIdx) == 0 {
					break
				}
			}
			out.Set(sum, cIdx...)
			return
		}
		for v := 0; v < cdims[d]; v++ {
			cIdx[d] = v
			walkC(d + 1)
		}
	}
	walkC(0)
	return out, nil
}

func prodDims(dims []int, positions []int) int {
	n := 1
	for _, i := range positions {
		n *= dims[i]
	}
	return n
}
