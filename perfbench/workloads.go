package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/sip"
)

// jobEnv is what one batch job runs with.  Every field but workers is
// nil in untraced jobs.
type jobEnv struct {
	tr         *tracer
	root       *span
	p          *probe
	reg        *obs.Registry
	progTracer *obs.Tracer // the program's own tracer (obs baseline only)
	workers    int
	prof       *profileSum // receives the job's runtime profile when non-nil
}

// batchWorkload is a closed loop of one client running one job at a
// time: compile and run (gathering results), then check the answer.
type batchWorkload struct {
	// tailQ is the tail percentile reported as job_s_tail, fixed per
	// workload so a faster build cannot change which percentile it is.
	tailQ float64
	// prepare builds the references, outside every timed region.
	prepare func() error
	run     func(e jobEnv) (answer any, err error)
	check   func(answer any) error
	// flops is the contraction flop count of one job, from its shapes.
	flops int64
	// contractBytes is the operand and result bytes of one job's
	// contractions, computed from the block shapes.
	contractBytes int64
}

// relTol is the relative tolerance, scaled by the reference's largest
// magnitude, within which a job's answer must match its reference.  It
// allows for the summation order of parallel accumulation and nothing
// more.
const relTol = 1e-10

func checkScalar(name string, got, want float64) error {
	if math.IsNaN(got) || math.Abs(got-want) > relTol*math.Abs(want) {
		return fmt.Errorf("%s = %.15g, reference %.15g", name, got, want)
	}
	return nil
}

// seededAmplitudes is the element function T is preset from: smooth,
// bounded, and different for every seed.
func seededAmplitudes(seed int64) func(idx []int) float64 {
	rng := rand.New(rand.NewSource(seed))
	a := 0.05 + 0.1*rng.Float64()
	b := 0.5 + rng.Float64()
	c := math.Pi * rng.Float64()
	return func(idx []int) float64 {
		var s float64
		for d, v := range idx {
			s += float64(v * (d + 1))
		}
		return a * math.Cos(b*s/10+c) / (1 + 0.1*math.Abs(float64(idx[0]-idx[1])))
	}
}

func compile(e jobEnv, src string) (*core.Program, error) {
	sp := e.tr.begin("compile", e.root)
	defer e.tr.end(sp)
	return core.Compile(src)
}

// mp2Batch is the small-segment regime: 729 tiny pardo iterations of
// on-demand integrals and a user super instruction, no contraction.
func mp2Batch() *batchWorkload {
	const no, nv, seg = 12, 36, 4
	var ref float64
	src := chem.MP2EnergyProgram()
	return &batchWorkload{
		tailQ:   90,
		prepare: func() error { ref = chem.MP2Reference(no, nv); return nil },
		run: func(e jobEnv) (any, error) {
			prog, err := compile(e, src)
			if err != nil {
				return nil, err
			}
			sp := e.tr.begin("run", e.root)
			defer e.tr.end(sp)
			e.p.under(sp)
			res, err := core.Run(prog, core.Config{
				Workers:   e.workers,
				Params:    map[string]int{"no": no, "nv": nv},
				Seg:       core.DefaultSegConfig(seg),
				Integrals: e.p.integrals(chem.MOIntegrals(no)),
				Super:     e.p.supers(chem.MP2Super()),
				Gate:      e.p.gate(nil),
				Metrics:   e.reg,
				Tracer:    e.progTracer,
				Output:    io.Discard,
			})
			if err != nil {
				return nil, err
			}
			e.prof.add(res.Profile)
			return res.Scalars["emp2"], nil
		},
		check: func(answer any) error { return checkScalar("emp2", answer.(float64), ref) },
	}
}

// ccsdPaper is the paper's regime (§III): the §IV-D contraction with
// 20-wide segments, about 1.3e8 flops per block pair.
func ccsdPaper(seed int64) *batchWorkload {
	const norb, nocc, seg = 40, 20, 20
	tInit := seededAmplitudes(seed)
	src := chem.CCSDTermProgram()
	var ref []float64
	segs := int64(norb / seg)
	// One contraction per (L,S) pair in each pardo iteration (M,N,I,J);
	// nocc is one segment, so every block is seg^4 elements.
	contractions := segs * segs * segs * segs
	elems := int64(seg * seg * seg * seg)
	return &batchWorkload{
		tailQ:         50,
		flops:         contractions * 2 * elems * int64(seg*seg),
		contractBytes: contractions * 3 * elems * 8,
		prepare: func() error {
			ref = ccsdTermReference(norb, nocc, tInit)
			return nil
		},
		run: func(e jobEnv) (any, error) {
			prog, err := compile(e, src)
			if err != nil {
				return nil, err
			}
			sp := e.tr.begin("run", e.root)
			defer e.tr.end(sp)
			e.p.under(sp)
			res, err := core.Run(prog, core.Config{
				Workers:      e.workers,
				Params:       map[string]int{"norb": norb, "nocc": nocc},
				Seg:          core.DefaultSegConfig(seg),
				Integrals:    e.p.integrals(chem.AOIntegrals()),
				Preset:       map[string]core.PresetFunc{"T": chem.PresetFromElem(tInit)},
				GatherArrays: true,
				Gate:         e.p.gate(nil),
				Metrics:      e.reg,
				Output:       io.Discard,
			})
			if err != nil {
				return nil, err
			}
			e.prof.add(res.Profile)
			return denseR(prog, res, norb, nocc, seg)
		},
		check: func(answer any) error { return checkArray("R", answer.([]float64), ref) },
	}
}

// ccsdTermReference evaluates R(m,n,i,j) = sum_ls (mn|ls) T(l,s,i,j)
// with plain loops over integrals computed once (chem's reference
// re-evaluates each integral for every (i,j)).
func ccsdTermReference(norb, nocc int, tInit func(idx []int) float64) []float64 {
	n2, o2 := norb*norb, nocc*nocc
	v := make([]float64, n2*n2)
	for m := 1; m <= norb; m++ {
		for n := 1; n <= norb; n++ {
			row := v[((m-1)*norb+n-1)*n2:]
			for l := 1; l <= norb; l++ {
				for s := 1; s <= norb; s++ {
					row[(l-1)*norb+s-1] = chem.ERI(m, n, l, s)
				}
			}
		}
	}
	t := make([]float64, n2*o2)
	idx := make([]int, 4)
	for l := 1; l <= norb; l++ {
		for s := 1; s <= norb; s++ {
			for i := 1; i <= nocc; i++ {
				for j := 1; j <= nocc; j++ {
					idx[0], idx[1], idx[2], idx[3] = l, s, i, j
					t[((l-1)*norb+s-1)*o2+(i-1)*nocc+j-1] = tInit(idx)
				}
			}
		}
	}
	r := make([]float64, n2*o2)
	for mn := 0; mn < n2; mn++ {
		out := r[mn*o2 : (mn+1)*o2]
		for ls, vv := range v[mn*n2 : (mn+1)*n2] {
			for ij, tv := range t[ls*o2 : (ls+1)*o2] {
				out[ij] += vv * tv
			}
		}
	}
	return r
}

// denseR lays the gathered R blocks out as R[m][n][i][j].
func denseR(prog *core.Program, res *core.Result, norb, nocc, seg int) ([]float64, error) {
	layout, err := prog.Resolve(map[string]int{"norb": norb, "nocc": nocc}, core.DefaultSegConfig(seg))
	if err != nil {
		return nil, err
	}
	shape := layout.Shapes[prog.ArrayID("R")]
	out := make([]float64, norb*norb*nocc*nocc)
	strides := []int{norb * nocc * nocc, nocc * nocc, nocc, 1}
	bdims, idx := make([]int, 4), make([]int, 4)
	for _, ab := range res.Arrays["R"] {
		lo, hi := shape.BlockBounds(shape.CoordOf(ab.Ord))
		for d := range lo {
			bdims[d] = hi[d] - lo[d] + 1
		}
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
	return out, nil
}

func checkArray(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d elements, reference %d", name, len(got), len(want))
	}
	var scale, worst float64
	at := 0
	for i, w := range want {
		scale = math.Max(scale, math.Abs(w))
		if d := math.Abs(got[i] - w); d > worst || math.IsNaN(d) {
			worst, at = d, i
		}
	}
	if worst > relTol*scale || math.IsNaN(worst) {
		return fmt.Errorf("%s[%d] = %.15g, reference %.15g (max |R| %.3g)", name, at, got[at], want[at], scale)
	}
	return nil
}

// ccsdServedTCP runs the CCSD iteration driver as four ranks (master,
// two workers, one I/O server) over loopback TCP, with caches small
// enough that the served array lives on the server's disk.
func ccsdServedTCP(seed int64) *batchWorkload {
	const norb, nocc, iters, seg = 24, 4, 2, 4
	const servers = 1
	tInit := seededAmplitudes(seed)
	src := chem.CCSDEnergyProgram()
	var ref float64
	segs := int64(norb / seg)
	elems := int64(seg * seg * seg * seg)
	// Per iteration, each (K,P) block pair contracts with every (L,S).
	contractions := int64(iters) * segs * segs * segs * segs
	return &batchWorkload{
		tailQ:         90,
		flops:         contractions * 2 * elems * int64(seg*seg),
		contractBytes: contractions * 3 * elems * 8,
		prepare: func() error {
			ref = chem.CCSDEnergyReference(norb, nocc, iters, tInit)
			return nil
		},
		run: func(e jobEnv) (any, error) {
			prog, err := compile(e, src)
			if err != nil {
				return nil, err
			}
			sp := e.tr.begin("run", e.root)
			defer e.tr.end(sp)
			e.p.under(sp)
			n := 1 + e.workers + servers
			lns := make([]net.Listener, n)
			addrs := make([]string, n)
			for i := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					for _, l := range lns[:i] {
						l.Close()
					}
					return nil, err
				}
				lns[i], addrs[i] = ln, ln.Addr().String()
			}
			results := make([]*sip.Result, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for rank := 0; rank < n; rank++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rs := e.tr.begin(fmt.Sprintf("rank.%d", rank), sp)
					defer e.tr.end(rs)
					tr, err := transport.NewTCP(transport.TCPConfig{
						Rank: rank, Addrs: addrs, Listener: lns[rank], Observer: e.p.observer(),
					})
					if err != nil {
						lns[rank].Close()
						errs[rank] = err
						return
					}
					world, err := mpi.NewDistributedWorld(n, []int{rank}, e.p.transport(tr))
					if err != nil {
						tr.Close()
						errs[rank] = err
						return
					}
					defer world.Close()
					results[rank], errs[rank] = sip.RunRank(prog, sip.Config{
						Workers:           e.workers,
						Servers:           servers,
						Params:            map[string]int{"norb": norb, "nocc": nocc, "iters": iters},
						Seg:               core.DefaultSegConfig(seg),
						CacheBlocks:       2,
						ServerCacheBlocks: 8,
						Integrals:         e.p.integrals(chem.AOIntegrals()),
						Preset:            map[string]sip.PresetFunc{"T": chem.PresetFromElem(tInit)},
						Gate:              e.p.gate(nil),
						Metrics:           e.reg,
						Output:            io.Discard,
					}, world, rank)
				}()
			}
			wg.Wait()
			for rank, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("rank %d: %w", rank, err)
				}
			}
			for _, r := range results[1:] {
				e.prof.add(r.Profile)
			}
			return results[0].Scalars["e"], nil
		},
		check: func(answer any) error { return checkScalar("e", answer.(float64), ref) },
	}
}

// profileSum folds the runtime profiles of a phase's jobs.
type profileSum struct {
	mu                     sync.Mutex
	ops                    map[string]sip.OpStat
	wait                   time.Duration
	flops                  int64
	cacheHits, cacheMisses int64
	poolAllocs, poolReuses int64
	srvHits, srvMisses     int64
	diskReads, diskWrites  int64
}

func (s *profileSum) add(p *sip.Profile) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ops == nil {
		s.ops = map[string]sip.OpStat{}
	}
	for op, st := range p.Ops {
		cur := s.ops[op.String()]
		cur.Count += st.Count
		cur.Time += st.Time
		s.ops[op.String()] = cur
	}
	s.wait += p.TotalWait
	s.flops += p.Flops
	s.cacheHits += p.CacheHits
	s.cacheMisses += p.CacheMisses
	s.poolAllocs += p.PoolAllocs
	s.poolReuses += p.PoolReuses
	for _, sv := range p.Servers {
		s.srvHits += sv.CacheHits
		s.srvMisses += sv.CacheMisses
		s.diskReads += sv.DiskReads
		s.diskWrites += sv.DiskWrites
	}
}

// isoContract times a serial block.Contract on ccsd_paper's block
// shapes, V(M,N,L,S) * T(L,S,I,J) with every extent 20, and returns
// the median GFLOP/s of reps calls.
func isoContract(reps int) (float64, error) {
	const seg = 20
	a, b := block.New(seg, seg, seg, seg), block.New(seg, seg, seg, seg)
	for i := range a.Data() {
		a.Data()[i] = 1 / float64(1+i%97)
		b.Data()[i] = 1 / float64(1+i%89)
	}
	spec := block.Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	flops, err := block.ContractFlops(spec, a.Dims(), b.Dims())
	if err != nil {
		return 0, err
	}
	var rates sample
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := block.Contract(spec, a, b); err != nil {
			return 0, err
		}
		rates = append(rates, float64(flops)/time.Since(start).Seconds()/1e9)
	}
	return rates.median(), nil
}
