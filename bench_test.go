package repro

// The benchmark harness: one benchmark per evaluation figure of the
// paper (regenerating its series through the performance model and
// reporting the modelled seconds as custom metrics), plus benchmarks of
// the real runtime and its kernels.
//
//	go test -bench=. -benchmem
//
// Figure benches report "model_s" (modelled elapsed seconds) and
// "wait_pct" so the series can be read straight off the benchmark
// output; cmd/figures prints the same data as tables.

import (
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/perfmodel"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/sip"
)

// benchSweep runs one modelled configuration per sub-benchmark and
// reports the figure metrics.
func benchSweep(b *testing.B, w perfmodel.Workload, m machine.Machine, procs []int, window int, blockBytes float64) {
	for _, p := range procs {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			var rep perfmodel.Report
			for i := 0; i < b.N; i++ {
				rep = perfmodel.Simulate(w, perfmodel.Params{
					Machine: m, Workers: p, PrefetchWindow: window, BlockBytes: blockBytes,
				})
			}
			b.ReportMetric(rep.Elapsed, "model_s")
			b.ReportMetric(100*rep.WaitFrac, "wait_pct")
		})
	}
}

func segBytes(seg int) float64 {
	s := float64(seg)
	return s * s * s * s * 8
}

// BenchmarkFig2LuciferinCCSD regenerates Figure 2: luciferin RHF CCSD
// per-iteration time, efficiency, and wait on the Sun Opteron cluster.
func BenchmarkFig2LuciferinCCSD(b *testing.B) {
	const seg = 28
	benchSweep(b, perfmodel.CCSDIteration(chem.Luciferin, seg), machine.Midnight,
		[]int{32, 64, 128, 256}, 64, segBytes(seg))
}

// BenchmarkFig3WaterClusterCCSD regenerates Figure 3: the water cluster
// on Cray XT5 and XT4.
func BenchmarkFig3WaterClusterCCSD(b *testing.B) {
	const seg = 30
	w := perfmodel.CCSDIteration(chem.WaterCluster21, seg)
	b.Run("XT5", func(b *testing.B) {
		benchSweep(b, w, machine.Pingo, []int{512, 1024, 2048}, 64, segBytes(seg))
	})
	b.Run("XT4", func(b *testing.B) {
		benchSweep(b, w, machine.Kraken, []int{512, 1024, 2048, 4096}, 64, segBytes(seg))
	})
}

// BenchmarkFig4RdxHmxCCSD regenerates Figure 4: RDX and HMX CCSD on
// jaguar.
func BenchmarkFig4RdxHmxCCSD(b *testing.B) {
	const seg = 20
	procs := []int{1000, 2000, 4000, 6000, 8000}
	for _, mol := range []chem.Molecule{chem.RDX, chem.HMX} {
		w := perfmodel.CCSDIteration(mol, seg)
		w.Repeat = 16
		b.Run(mol.Name, func(b *testing.B) {
			benchSweep(b, w, machine.Jaguar, procs, 64, segBytes(seg))
		})
	}
}

// BenchmarkFig5RdxCCSDT regenerates Figure 5: RDX CCSD(T) up to 80,000
// processors.
func BenchmarkFig5RdxCCSDT(b *testing.B) {
	const seg = 32
	benchSweep(b, perfmodel.CCSDTriples(chem.RDX, seg), machine.Jaguar,
		[]int{10000, 20000, 30000, 40000, 60000, 80000}, 64, segBytes(seg))
}

// BenchmarkFig6FockBuild regenerates Figure 6: the diamond-nanocrystal
// Fock build to 108,000 cores, including the 84,000-core segment
// retune.
func BenchmarkFig6FockBuild(b *testing.B) {
	cores := []int{4000, 8000, 16000, 32000, 48000, 64000, 72000, 84000, 96000, 108000}
	b.Run("seg=8", func(b *testing.B) {
		benchSweep(b, perfmodel.FockBuild(chem.DiamondNano, 8), machine.Jaguar, cores, 64, segBytes(8))
	})
	b.Run("seg=6-retuned", func(b *testing.B) {
		benchSweep(b, perfmodel.FockBuild(chem.DiamondNano, 6), machine.Jaguar, []int{84000}, 64, segBytes(6))
	})
}

// BenchmarkFig7Mp2VsGA regenerates Figure 7: ACES III versus the
// NWChem/Global-Arrays baseline for the cytosine+OH MP2 gradient.
func BenchmarkFig7Mp2VsGA(b *testing.B) {
	const seg = 15
	procs := []int{16, 32, 64, 128, 256}
	b.Run("acesIII-1GB", func(b *testing.B) {
		benchSweep(b, perfmodel.MP2Gradient(chem.CytosineOH, seg), machine.Pople, procs, 64, segBytes(seg))
	})
	b.Run("nwchem-2GB", func(b *testing.B) {
		w := perfmodel.MP2GradientGA(chem.CytosineOH, seg, 0.25)
		m := machine.Pople.WithMemPerCore(2 << 30)
		for _, p := range procs {
			b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
				if !perfmodel.GAMemoryFeasible(chem.CytosineOH, p, m.MemPerCore) {
					b.Skip("DNF: out of memory (as in the paper)")
				}
				var rep perfmodel.Report
				for i := 0; i < b.N; i++ {
					rep = perfmodel.Simulate(w, perfmodel.Params{Machine: m, Workers: p, BlockBytes: segBytes(seg)})
				}
				b.ReportMetric(rep.Elapsed*1.15, "model_s")
			})
		}
	})
	b.Run("nwchem-1GB-oom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if perfmodel.GAMemoryFeasible(chem.CytosineOH, 256, 1<<30) {
				b.Fatal("1 GB/core should be infeasible")
			}
		}
	})
}

// BenchmarkAblationPrefetchBGP regenerates the §VI-A BlueGene/P port
// anecdote: naive versus bounded prefetching.
func BenchmarkAblationPrefetchBGP(b *testing.B) {
	const seg = 20
	w := perfmodel.CCSDIteration(chem.Luciferin, seg)
	w.Repeat = 8
	cases := []struct {
		name   string
		m      machine.Machine
		window int
	}{
		{"xt5-bounded", machine.Pingo, 64},
		{"bgp-naive", machine.BlueGeneP, -1},
		{"bgp-bounded", machine.BlueGeneP, 64},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var rep perfmodel.Report
			for i := 0; i < b.N; i++ {
				rep = perfmodel.Simulate(w, perfmodel.Params{
					Machine: tc.m, Workers: 512, PrefetchWindow: tc.window, BlockBytes: segBytes(seg),
				})
			}
			b.ReportMetric(rep.Elapsed, "model_s")
			b.ReportMetric(rep.RefetchFactor, "refetch_x")
		})
	}
}

// BenchmarkAblationSegmentSize sweeps the paper's primary tuning knob.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, seg := range []int{12, 20, 28, 36} {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			w := perfmodel.CCSDIteration(chem.Luciferin, seg)
			var rep perfmodel.Report
			for i := 0; i < b.N; i++ {
				rep = perfmodel.Simulate(w, perfmodel.Params{
					Machine: machine.Midnight, Workers: 128, PrefetchWindow: 64, BlockBytes: segBytes(seg),
				})
			}
			b.ReportMetric(rep.Elapsed, "model_s")
		})
	}
}

// BenchmarkAblationScheduling compares the SIP's guided master against
// static splitting on the triangular Fock space.
func BenchmarkAblationScheduling(b *testing.B) {
	w := perfmodel.FockBuild(chem.DiamondNano.Scaled(0.5), 8)
	p := perfmodel.Params{Machine: machine.Jaguar, Workers: 2000, PrefetchWindow: 64, BlockBytes: segBytes(8)}
	b.Run("guided", func(b *testing.B) {
		var rep perfmodel.Report
		for i := 0; i < b.N; i++ {
			rep = perfmodel.Simulate(w, p)
		}
		b.ReportMetric(rep.Elapsed, "model_s")
	})
	b.Run("static", func(b *testing.B) {
		var rep perfmodel.Report
		for i := 0; i < b.N; i++ {
			rep = perfmodel.SimulateStatic(w, p)
		}
		b.ReportMetric(rep.Elapsed, "model_s")
	})
}

// --- Real runtime and kernel benchmarks ---

// BenchmarkSIPPaperExample executes the paper's §IV-D program for real
// on an in-process SIP.
func BenchmarkSIPPaperExample(b *testing.B) {
	prog, err := core.Compile(chem.CCSDTermProgram())
	if err != nil {
		b.Fatal(err)
	}
	preset := func(coord segment.Coord, lo, hi []int) *block.Block {
		dims := make([]int, len(lo))
		for d := range lo {
			dims[d] = hi[d] - lo[d] + 1
		}
		blk := block.New(dims...)
		blk.Fill(0.5)
		return blk
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{
				Workers:        workers,
				Params:         map[string]int{"norb": 12, "nocc": 4},
				Seg:            bytecode.DefaultSegConfig(4),
				PrefetchWindow: 2,
				Integrals:      chem.AOIntegrals(),
				Output:         io.Discard,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Preset = map[string]core.PresetFunc{"T": preset}
				if _, err := core.Run(prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMP2EndToEnd runs the complete MP2 example on the in-process
// SIP — compile, master dispatch, contractions, the mp2_denom user
// super instruction, and the collective — at growing orbital counts.
// scripts/bench.sh records this series in BENCH_mp2.json.
func BenchmarkMP2EndToEnd(b *testing.B) {
	for _, sz := range []struct{ no, nv, seg int }{
		{2, 4, 2}, {4, 8, 4}, {6, 12, 4},
	} {
		b.Run(fmt.Sprintf("no=%d/nv=%d", sz.no, sz.nv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chem.MP2SIP(sz.no, sz.nv, 4, sz.seg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContraction measures the block contraction super instruction
// at the paper's representative segment sizes (§III: "2 x 100^3 to
// 2 x 2,500^3 floating point operations" per 4-index block pair).
func BenchmarkContraction(b *testing.B) {
	spec := block.Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	for _, seg := range []int{6, 10, 14, 20} {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			x := block.New(seg, seg, seg, seg)
			y := block.New(seg, seg, seg, seg)
			x.Fill(1.1)
			y.Fill(0.9)
			fl, _ := block.ContractFlops(spec, x.Dims(), y.Dims())
			b.SetBytes(int64(x.Size() * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := block.Contract(spec, x, y); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fl)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// BenchmarkGemm measures the pure-Go DGEMM substitute.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{64, 128, 256, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]float64, n*n)
			y := make([]float64, n*n)
			z := make([]float64, n*n)
			for i := range x {
				x[i] = float64(i % 7)
				y[i] = float64(i % 5)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.Gemm(n, n, n, 1, x, y, 0, z)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// BenchmarkMPIRoundTrip measures the in-process message-passing layer.
func BenchmarkMPIRoundTrip(b *testing.B) {
	w := mpi.NewWorld(2)
	payload := make([]float64, 4096)
	go func() {
		c := w.Comm(1)
		for {
			m := c.Recv(0, 1)
			if m.Data == nil {
				return
			}
			c.Send(0, 2, m.Data)
		}
	}()
	c := w.Comm(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(1, 1, payload)
		c.Recv(1, 2)
	}
	b.StopTimer()
	c.Send(1, 1, nil)
}

// BenchmarkGAPatch measures the Global-Arrays baseline patch access.
func BenchmarkGAPatch(b *testing.B) {
	c := ga.NewCluster(4, 0)
	g, err := c.Create("bench", 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 64*64)
	b.SetBytes(int64(len(buf) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := []int{(i % 4) * 64, (i % 4) * 64}
		hi := []int{lo[0] + 63, lo[1] + 63}
		if err := g.Put(lo, hi, buf); err != nil {
			b.Fatal(err)
		}
		if err := g.Get(lo, hi, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedArrays measures a prepare/request round trip through
// the I/O servers with a cache small enough to force disk traffic.
func BenchmarkServedArrays(b *testing.B) {
	src := `
sial bench_served
param n = 16
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp t(I,J)
pardo I, J
  t(I,J) = 1.0
  prepare S(I,J) = t(I,J)
endpardo
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = 2.0 * S(I,J)
endpardo
endsial
`
	prog, err := core.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	scratch := b.TempDir()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Workers: 4, Servers: 2, ServerCacheBlocks: 2,
			Seg: bytecode.DefaultSegConfig(4), ScratchDir: scratch,
			Output: io.Discard,
		}
		if _, err := core.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterp measures the interpreter's instruction dispatch on a
// do-loop-heavy program with trivial block math, so the fixed per-
// instruction cost dominates.  The sub-benchmarks compare the
// observability layer disabled (the nil-check fast path) against fully
// enabled tracing and metrics; "off" must not regress against a build
// without the layer.
func BenchmarkInterp(b *testing.B) {
	prog, err := core.Compile(`
sial interp_bench
param n = 64
aoindex I = 1, n
temp a(I,I)
scalar s
do I
  a(I,I) = 1.5
  s += dot(a(I,I), a(I,I))
enddo I
endsial
`)
	if err != nil {
		b.Fatal(err)
	}
	scratch := b.TempDir()
	base := core.Config{
		Workers:    1,
		Seg:        bytecode.DefaultSegConfig(2),
		ScratchDir: scratch,
		Output:     io.Discard,
	}
	b.Run("off", func(b *testing.B) {
		cfg := base
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Tracer = core.NewTracer(core.TracerConfig{})
			cfg.Metrics = core.NewMetricsRegistry()
			if _, err := core.Run(prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransportLoopback compares a block echo (send + reply) over
// the in-process Router against the TCP transport on loopback — the
// per-message cost of the wire codec, framing, and kernel round trip.
func BenchmarkTransportLoopback(b *testing.B) {
	const side = 32 // 32x32 block = 8 KiB payload
	echo := func(w *mpi.World) {
		c := w.Comm(1)
		for {
			m := c.Recv(0, 1)
			if s, ok := m.Data.(string); ok && s == "done" {
				return
			}
			c.Send(0, 2, m.Data)
		}
	}
	drive := func(b *testing.B, worlds []*mpi.World) {
		go echo(worlds[1])
		c := worlds[0].Comm(0)
		payload := block.New(side, side)
		payload.Fill(1.25)
		b.SetBytes(2 * int64(payload.Size()) * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Send(1, 1, payload)
			c.Recv(1, 2)
		}
		b.StopTimer()
		c.Send(1, 1, "done")
	}
	b.Run("router", func(b *testing.B) {
		r := transport.NewRouter()
		eps := []*transport.Local{r.Endpoint(0), r.Endpoint(1)}
		worlds := make([]*mpi.World, 2)
		for i := range worlds {
			w, err := mpi.NewDistributedWorld(2, []int{i}, eps[i])
			if err != nil {
				b.Fatal(err)
			}
			worlds[i] = w
		}
		defer worlds[0].Close()
		defer worlds[1].Close()
		drive(b, worlds)
	})
	b.Run("tcp", func(b *testing.B) {
		lns := make([]net.Listener, 2)
		addrs := make([]string, 2)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		worlds := make([]*mpi.World, 2)
		for i := range worlds {
			tr, err := transport.NewTCP(transport.TCPConfig{Rank: i, Addrs: addrs, Listener: lns[i]})
			if err != nil {
				b.Fatal(err)
			}
			w, err := mpi.NewDistributedWorld(2, []int{i}, tr)
			if err != nil {
				b.Fatal(err)
			}
			worlds[i] = w
		}
		defer worlds[0].Close()
		defer worlds[1].Close()
		drive(b, worlds)
	})
}

// BenchmarkServeThroughput measures the multi-tenant job service: a
// persistent pool absorbing overlapping MP2 submissions through the
// serve queue (admission, fairness gate, per-job tag windows), reported
// as jobs/sec.  scripts/bench.sh records this in BENCH_serve.json.
func BenchmarkServeThroughput(b *testing.B) {
	svc, err := serve.New(serve.Config{
		Pool:          sip.PoolConfig{Workers: 4, Servers: 1, Output: io.Discard},
		MaxConcurrent: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	svc.RegisterPack("mp2", serve.Pack{
		Source: chem.MP2EnergyProgram(),
		Env: func(params map[string]int) serve.Env {
			return serve.Env{Super: chem.MP2Super(), Integrals: chem.MOIntegrals(2)}
		},
	})
	const overlap = 8 // jobs in flight per round
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]int, 0, overlap)
		for j := 0; j < overlap; j++ {
			st, err := svc.Submit(serve.SubmitRequest{Pack: "mp2"})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			if st, _ := svc.Wait(id); st.State != serve.StateDone {
				b.Fatalf("job %d: %s (%s)", id, st.State, st.Error)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*overlap)/b.Elapsed().Seconds(), "jobs_per_s")
}
