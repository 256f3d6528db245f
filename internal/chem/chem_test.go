package chem

import (
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/ga"
	"repro/internal/sip"
)

func TestERISymmetry(t *testing.T) {
	// Full 8-fold permutational symmetry of (pq|rs).
	f := func(p8, q8, r8, s8 uint8) bool {
		p, q, r, s := int(p8%30)+1, int(q8%30)+1, int(r8%30)+1, int(s8%30)+1
		v := ERI(p, q, r, s)
		perms := [][4]int{
			{q, p, r, s}, {p, q, s, r}, {q, p, s, r},
			{r, s, p, q}, {s, r, p, q}, {r, s, q, p}, {s, r, q, p},
		}
		for _, pm := range perms {
			if ERI(pm[0], pm[1], pm[2], pm[3]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestERIDecay(t *testing.T) {
	near := ERI(5, 5, 5, 5)
	far := ERI(5, 5, 50, 50)
	if far >= near {
		t.Fatalf("ERI should decay: near=%g far=%g", near, far)
	}
	if near <= 0 {
		t.Fatalf("diagonal ERI should be positive, got %g", near)
	}
}

func TestHcoreSymmetric(t *testing.T) {
	if Hcore(3, 7) != Hcore(7, 3) {
		t.Fatal("Hcore must be symmetric")
	}
	if Hcore(3, 3) >= 0 {
		t.Fatal("diagonal Hcore should be negative (bound electrons)")
	}
}

func TestMoleculeCatalog(t *testing.T) {
	if len(Catalog) != 6 {
		t.Fatalf("catalog size %d", len(Catalog))
	}
	for name, m := range Catalog {
		if m.Name != name {
			t.Errorf("catalog key %q != molecule name %q", name, m.Name)
		}
		if m.Basis <= m.Occupied || m.Occupied < 1 {
			t.Errorf("%s: implausible sizes n=%d N=%d", name, m.Basis, m.Occupied)
		}
		if m.Virtual() != m.Basis-m.Occupied {
			t.Errorf("%s: Virtual() wrong", name)
		}
	}
	if DiamondNano.Basis != 2944 {
		t.Fatal("diamond nanocrystal basis must be the paper's 2944")
	}
	s := Luciferin.Scaled(0.1)
	if s.Basis >= Luciferin.Basis || s.Occupied < 1 || s.Basis <= s.Occupied {
		t.Fatalf("Scaled: %+v", s)
	}
}

func TestOrbitalEnergies(t *testing.T) {
	// All MP2 denominators must be negative.
	if OccEps(100) >= 0 {
		t.Fatal("occupied energies must stay negative")
	}
	if VirtEps(1) <= 0 {
		t.Fatal("virtual energies must be positive")
	}
}

func tInitTest(idx []int) float64 {
	s := 0
	for d, v := range idx {
		s += (2*d + 1) * v
	}
	return float64(s%7)*0.5 - 1.5
}

func TestCCSDTermMatchesReference(t *testing.T) {
	const norb, nocc = 6, 2
	res, err := CCSDTermSIP(norb, nocc, 3, 2, tInitTest)
	if err != nil {
		t.Fatal(err)
	}
	want := CCSDTermReference(norb, nocc, tInitTest)
	got := denseR(t, norb, nocc, res)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-11 {
			t.Fatalf("R[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMP2SIPMatchesReference(t *testing.T) {
	const no, nv = 4, 6
	got, err := MP2SIP(no, nv, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := MP2Reference(no, nv)
	if math.Abs(got-want) > 1e-11*math.Abs(want) {
		t.Fatalf("MP2 SIP = %.14g, reference = %.14g", got, want)
	}
	if want >= 0 {
		t.Fatalf("MP2 correlation energy should be negative, got %g", want)
	}
}

// TestMP2RunCreatesNoScratch: a run whose program has no served arrays,
// no blocks_to_list/list_to_blocks and no snapshots never touches disk,
// so it must not create (and pay for) a scratch directory.  TMPDIR is
// inspected mid-run, from the super instruction, because a scratch
// directory would already be removed again when the run returns.
func TestMP2RunCreatesNoScratch(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	super := MP2Super()
	denom := super["mp2_denom"]
	var mu sync.Mutex
	seen := map[string]bool{}
	super["mp2_denom"] = func(ctx *sip.ExecCtx, blocks []*block.Block, scalars []*float64) error {
		entries, err := os.ReadDir(tmp)
		if err != nil {
			return err
		}
		mu.Lock()
		for _, e := range entries {
			seen[e.Name()] = true
		}
		mu.Unlock()
		return denom(ctx, blocks, scalars)
	}
	const no, nv = 4, 6
	res, err := sip.RunSource(MP2EnergyProgram(), sip.Config{
		Workers:   3,
		Params:    map[string]int{"no": no, "nv": nv},
		Seg:       bytecode.DefaultSegConfig(2),
		Integrals: MOIntegrals(no),
		Super:     super,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := MP2Reference(no, nv); math.Abs(res.Scalars["emp2"]-want) > 1e-11*math.Abs(want) {
		t.Fatalf("MP2 SIP = %.14g, reference = %.14g", res.Scalars["emp2"], want)
	}
	for name := range seen {
		t.Errorf("MP2 run created %s in TMPDIR", name)
	}
}

func TestMP2GAMatchesReference(t *testing.T) {
	const no, nv = 4, 6
	c := ga.NewCluster(4, 0)
	got, err := MP2GA(c, no, nv)
	if err != nil {
		t.Fatal(err)
	}
	want := MP2Reference(no, nv)
	if math.Abs(got-want) > 1e-11*math.Abs(want) {
		t.Fatalf("MP2 GA = %.14g, reference = %.14g", got, want)
	}
}

func TestMP2GAOutOfMemory(t *testing.T) {
	// A tight per-core budget must fail with ErrNoMemory — the Fig 7
	// NWChem behaviour.
	c := ga.NewCluster(2, 1200*1024) // ~1.17 MiB/core, 1 MiB is buffers
	_, err := MP2GA(c, 16, 48)       // arrays: 2 * 16*48*16*48*8 B = 9 MiB
	var nomem *ga.ErrNoMemory
	if !errors.As(err, &nomem) {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
}

func TestFockBuildMatchesReference(t *testing.T) {
	const norb = 6
	density := func(idx []int) float64 {
		// Symmetric, diagonally dominant model density.
		d := math.Abs(float64(idx[0] - idx[1]))
		return 1.0 / (1.0 + d)
	}
	res, err := FockBuildSIP(norb, 3, 2, density)
	if err != nil {
		t.Fatal(err)
	}
	want := FockBuildReference(norb, density)
	// The SIAL program computes only blocks with M <= N; verify those.
	for _, ab := range res.Arrays["F"] {
		// Ordinal encodes (M,N) block of a norb x norb shape with seg 2.
		segs := (norb + 1) / 2
		mBlk := ab.Ord/segs + 1
		nBlk := ab.Ord%segs + 1
		if mBlk > nBlk {
			t.Fatalf("block (%d,%d) written despite where M <= N", mBlk, nBlk)
		}
		bm := 2
		if mBlk*2 > norb {
			bm = norb - (mBlk-1)*2
		}
		bn := 2
		if nBlk*2 > norb {
			bn = norb - (nBlk-1)*2
		}
		for x := 0; x < bm; x++ {
			for y := 0; y < bn; y++ {
				mEl := (mBlk-1)*2 + x + 1
				nEl := (nBlk-1)*2 + y + 1
				got := ab.Data[x*bn+y]
				w := want[(mEl-1)*norb+(nEl-1)]
				if math.Abs(got-w) > 1e-11 {
					t.Fatalf("F[%d,%d] = %g, want %g", mEl, nEl, got, w)
				}
			}
		}
	}
	if len(res.Arrays["F"]) == 0 {
		t.Fatal("no Fock blocks gathered")
	}
}

func TestCCSDEnergyMatchesReference(t *testing.T) {
	const norb, nocc, iters = 4, 2, 2
	got, err := CCSDEnergySIP(norb, nocc, iters, 3, 2, 2, tInitTest)
	if err != nil {
		t.Fatal(err)
	}
	want := CCSDEnergyReference(norb, nocc, iters, tInitTest)
	if math.Abs(got-want) > 1e-10*math.Abs(want) {
		t.Fatalf("CCSD energy = %.14g, reference = %.14g", got, want)
	}
}

// denseR assembles the gathered R blocks of the CCSD-term program into a
// flat dense array in (m,n,i,j) order.
func denseR(t *testing.T, norb, nocc int, res *sip.Result) []float64 {
	t.Helper()
	prog, err := compiler.CompileSource(CCSDTermProgram())
	if err != nil {
		t.Fatal(err)
	}
	layout, err := prog.Resolve(map[string]int{"norb": norb, "nocc": nocc}, bytecode.DefaultSegConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	shape := layout.Shapes[prog.ArrayID("R")]
	out := make([]float64, shape.NumElements())
	dims := []int{norb, norb, nocc, nocc}
	strides := []int{norb * nocc * nocc, nocc * nocc, nocc, 1}
	for _, ab := range res.Arrays["R"] {
		coord := shape.CoordOf(ab.Ord)
		lo, hi := shape.BlockBounds(coord)
		bdims := make([]int, 4)
		for d := range lo {
			bdims[d] = hi[d] - lo[d] + 1
		}
		idx := make([]int, 4)
		for off, v := range ab.Data {
			rem := off
			for d := 3; d >= 0; d-- {
				idx[d] = rem % bdims[d]
				rem /= bdims[d]
			}
			pos := 0
			for d := range idx {
				pos += (lo[d] - 1 + idx[d]) * strides[d]
			}
			out[pos] = v
		}
	}
	_ = dims
	return out
}
