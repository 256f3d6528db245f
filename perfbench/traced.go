package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// layerSpec is one per-layer metric: its unit and the base its value
// is taken over.  Every traced run reports every one of them; a layer a
// workload does not exercise reads 0.
type layerSpec struct{ name, unit, base string }

var workerOps = []string{"compute_integrals", "contract", "block_copy", "block_scale", "execute",
	"request", "get", "put", "barrier", "collective"}

func layerSpecs() []layerSpec {
	specs := []layerSpec{
		{"compiler.compile_s", "s", "per job: self time of the compile span (serve_jobs: core.Compile replayed on the probe's sources)"},
		{"sip.dryrun_s", "s", "per job: core.DryRun replayed on the submitted program and config (serve_jobs only)"},
		{"sip.master.chunks", "count", "per job (registry sip.master.chunks)"},
		{"sip.master.iters", "count", "per job (registry sip.master.iters)"},
		{"sip.master.acquires", "count", "per job (pass-through Config.Gate wrapper; batch workloads)"},
		{"sip.parallel_eff", "ratio", "ccsd_paper job_s_p50 at 1 worker / (2 x job_s_p50 at 2 workers)"},
	}
	for _, op := range workerOps {
		specs = append(specs, layerSpec{"sip.worker.op_s." + op, "s", "per job, summed over workers (Result.Profile.Ops)"})
	}
	return append(specs, []layerSpec{
		{"sip.worker.wait_s", "s", "per job, summed over workers (Result.Profile.TotalWait)"},
		{"sip.worker.cache_hit_ratio", "ratio", "worker block-cache hits / (hits + misses)"},
		{"sip.worker.pool_reuse_ratio", "ratio", "worker block-pool reuses / (reuses + allocs)"},
		{"chem.integral_calls", "count", "per job (wrapped IntegralFunc)"},
		{"chem.integral_s", "s", "busy seconds per job summed over ranks; base trace.job_s_mean"},
		{"chem.integral_elems_per_s", "1/s", "integral block elements / integral busy seconds"},
		{"chem.super_s", "s", "busy seconds per job summed over ranks (wrapped SuperFunc); base trace.job_s_mean"},
		{"block.contract_flops", "count", "per job, exact (Result.Profile.Flops)"},
		{"block.contract_gflop_per_s", "GFLOP/s", "contract flops / contract op seconds summed over workers"},
		{"block.contract_iso_gflop_per_s", "GFLOP/s", "serial block.Contract on ccsd_paper's 20^4 x 20^4 shapes, median of 5"},
		{"block.contract_bytes", "bytes", "per job, computed from block shapes: A + B + C of every contraction"},
		{"block.ops_per_byte", "flop/byte", "computed: block.contract_flops / block.contract_bytes"},
		{"sip.scratch_dirs", "count", "per job: directories created under the run's own TMPDIR"},
		{"mpi.msgs", "count", "per job (sum of registry mpi.msgs.*)"},
		{"mpi.bytes", "bytes", "per job (sum of registry mpi.bytes.*)"},
		{"transport.sends", "count", "per job: messages through the wrapped Transport (Send, SendMulti destinations)"},
		{"transport.send_s", "s", "per job, summed over ranks: time in the wrapped Send (TCP encodes before returning)"},
		{"transport.frames_out", "count", "per job: TCPConfig.Observer OnFrameSend calls (one per message written)"},
		{"transport.bytes_out", "bytes", "per job: payload bytes reported to the Observer"},
		{"transport.msgs_per_frame", "ratio", "transport.sends / transport.frames_out"},
		{"sip.server.cache_hit_ratio", "ratio", "I/O-server cache hits / (hits + misses)"},
		{"sip.server.disk_reads", "count", "per job (Result.Profile.Servers)"},
		{"sip.server.disk_writes", "count", "per job (Result.Profile.Servers)"},
		{"serve.ack_s_p50", "s", "open-loop probe: Service.Submit blocking time, median"},
		{"serve.ack_s_p99", "s", "open-loop probe: Service.Submit blocking time, p99"},
		{"serve.queue_s_p50", "s", "open-loop probe: Started - Submitted, median"},
		{"serve.queue_s_p99", "s", "open-loop probe: Started - Submitted, p99"},
		{"serve.exec_s_p50", "s", "open-loop probe: Finished - Started, median"},
		{"serve.exec_s_p99", "s", "open-loop probe: Finished - Started, p99"},
		{"serve.open_job_s_p50", "s", "open-loop probe: scheduled arrival -> Finished, median"},
		{"serve.open_job_s_p99", "s", "open-loop probe: scheduled arrival -> Finished, p99"},
		{"serve.open_ok_rate_jobs_per_s", "jobs/s", "open-loop probe: highest ladder rate within the limits"},
		{"go.alloc_mb_per_job", "MB", "per job, untraced phase (runtime.MemStats.TotalAlloc)"},
		{"go.gc_cycles_per_job", "count", "per job, untraced phase (runtime.MemStats.NumGC)"},
		{"go.gc_pause_s", "s", "stop-the-world pause per job, untraced phase"},
		{"obs.trace_overhead_x", "ratio", "traced / untraced job_s_p50 in the same run"},
		{"obs.tracer_overhead_x", "ratio", "mp2_batch job_s_p50 with the program's Config.Tracer and Metrics on / off"},
		{"loadgen.late_s_p99", "s", "open-loop probe: generator lateness behind schedule, p99"},
		{"loadgen.late_s_max", "s", "open-loop probe: generator lateness behind schedule, max"},
		{"trace.phase_coverage", "ratio", "median over jobs: union of the root job span's direct phases / its wall time"},
		{"trace.job_s_mean", "s", "mean traced job wall time (root job span): the base of per-job busy seconds"},
	}...)
}

func emitLayers(rep *report, vals map[string]float64) {
	for _, s := range layerSpecs() {
		rep.layer(s.name, vals[s.name], s.unit, s.base)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// goStats is the Go runtime's allocation and GC work over a phase.
type goStats struct{ before runtime.MemStats }

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.before)
	return g
}

func (g *goStats) finish(vals map[string]float64, jobs int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(jobs)
	vals["go.alloc_mb_per_job"] = ratio(float64(after.TotalAlloc-g.before.TotalAlloc)/(1<<20), n)
	vals["go.gc_cycles_per_job"] = ratio(float64(after.NumGC-g.before.NumGC), n)
	vals["go.gc_pause_s"] = ratio(float64(after.PauseTotalNs-g.before.PauseTotalNs)/1e9, n)
}

// profileLayers fills the worker, kernel and I/O-server metrics from a
// phase's folded profiles.
func profileLayers(vals map[string]float64, prof *profileSum, n float64) {
	for _, op := range workerOps {
		vals["sip.worker.op_s."+op] = ratio(prof.ops[op].Time.Seconds(), n)
	}
	vals["sip.worker.wait_s"] = ratio(prof.wait.Seconds(), n)
	vals["sip.worker.cache_hit_ratio"] = ratio(float64(prof.cacheHits), float64(prof.cacheHits+prof.cacheMisses))
	vals["sip.worker.pool_reuse_ratio"] = ratio(float64(prof.poolReuses), float64(prof.poolReuses+prof.poolAllocs))
	vals["block.contract_flops"] = ratio(float64(prof.flops), n)
	vals["block.contract_gflop_per_s"] = ratio(float64(prof.flops)/1e9, prof.ops["contract"].Time.Seconds())
	vals["sip.server.cache_hit_ratio"] = ratio(float64(prof.srvHits), float64(prof.srvHits+prof.srvMisses))
	vals["sip.server.disk_reads"] = ratio(float64(prof.diskReads), n)
	vals["sip.server.disk_writes"] = ratio(float64(prof.diskWrites), n)
}

// probeLayers fills the callback metrics from the probes of a phase.
func probeLayers(vals map[string]float64, probes []*probe, n float64) {
	var ic, ie, ins, sns, acq, sends, sendNs, frames, bytes float64
	for _, p := range probes {
		ic += float64(p.integralCalls.Load())
		ie += float64(p.integralElems.Load())
		ins += float64(p.integralNs.Load()) / 1e9
		sns += float64(p.superNs.Load()) / 1e9
		acq += float64(p.acquires.Load())
		sends += float64(p.sends.Load())
		sendNs += float64(p.sendNs.Load()) / 1e9
		frames += float64(p.framesOut.Load())
		bytes += float64(p.bytesOut.Load())
	}
	vals["chem.integral_calls"] = ratio(ic, n)
	vals["chem.integral_s"] = ratio(ins, n)
	vals["chem.integral_elems_per_s"] = ratio(ie, ins)
	vals["chem.super_s"] = ratio(sns, n)
	vals["sip.master.acquires"] = ratio(acq, n)
	vals["transport.sends"] = ratio(sends, n)
	vals["transport.send_s"] = ratio(sendNs, n)
	vals["transport.frames_out"] = ratio(frames, n)
	vals["transport.bytes_out"] = ratio(bytes, n)
	vals["transport.msgs_per_frame"] = ratio(sends, frames)
}

// registryLayers fills the master and messaging metrics from per-job
// registry counters.
func registryLayers(vals map[string]float64, counters []map[string]int64, n float64) {
	var chunks, iters, msgs, bytes float64
	for _, c := range counters {
		for name, v := range c {
			switch {
			case name == "sip.master.chunks":
				chunks += float64(v)
			case name == "sip.master.iters":
				iters += float64(v)
			case strings.HasPrefix(name, "mpi.msgs."):
				msgs += float64(v)
			case strings.HasPrefix(name, "mpi.bytes."):
				bytes += float64(v)
			}
		}
	}
	vals["sip.master.chunks"] = ratio(chunks, n)
	vals["sip.master.iters"] = ratio(iters, n)
	vals["mpi.msgs"] = ratio(msgs, n)
	vals["mpi.bytes"] = ratio(bytes, n)
}

// batchTraced runs an untraced phase, then a traced phase with every
// probe, then the workload's baselines.
func (b bench) batchTraced(rep *report) (*tracer, error) {
	w := b.batch()
	if err := w.prepare(); err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	plain := func() jobEnv { return jobEnv{workers: 2} }
	b.loop(w, rep, time.Second/2, 1, plain) // warm-up
	gs := startGoStats()
	untraced := b.loop(w, rep, 2*b.seconds/5, 0, plain)
	gs.finish(vals, len(untraced))

	tr := newTracer()
	watch, err := watchDir(b.tmp)
	if err != nil {
		return nil, err
	}
	prof := &profileSum{}
	recs := b.loop(w, rep, 3*b.seconds/5, 0, func() jobEnv {
		root := tr.begin("job", nil)
		return jobEnv{tr: tr, root: root, p: &probe{tr: tr, parent: root}, reg: obs.NewRegistry(), workers: 2, prof: prof}
	})
	watch.close()
	n := float64(len(recs))
	var probes []*probe
	var counters []map[string]int64
	for _, r := range recs {
		probes = append(probes, r.p)
		counters = append(counters, r.reg)
	}
	profileLayers(vals, prof, n)
	probeLayers(vals, probes, n)
	registryLayers(vals, counters, n)
	vals["sip.scratch_dirs"] = ratio(float64(watch.created.Load()), n)
	self, count := tr.selfTimes()
	vals["compiler.compile_s"] = ratio(self["compile"].Seconds(), float64(count["compile"]))
	if vals["block.contract_flops"] > 0 {
		vals["block.contract_bytes"] = float64(w.contractBytes)
		vals["block.ops_per_byte"] = ratio(vals["block.contract_flops"], float64(w.contractBytes))
		if got, want := vals["block.contract_flops"], float64(w.flops); got != want {
			return nil, fmt.Errorf("profiled contraction flops %g per job, shapes give %g", got, want)
		}
	}
	tracedS := seconds(recs)
	vals["obs.trace_overhead_x"] = ratio(tracedS.median(), seconds(untraced).median())
	vals["trace.phase_coverage"] = tr.phaseCoverage("job")
	vals["trace.job_s_mean"] = tr.durations("job").mean()

	switch b.workload {
	case "mp2_batch":
		// The program's own tracer and metrics registry, on vs off.
		var on, off sample
		for i := 0; i < 8; i++ {
			off = append(off, runJob(w, rep, jobEnv{workers: 2}).seconds)
			on = append(on, runJob(w, rep, jobEnv{workers: 2,
				progTracer: core.NewTracer(core.TracerConfig{}), reg: core.NewMetricsRegistry()}).seconds)
		}
		vals["obs.tracer_overhead_x"] = ratio(on.median(), off.median())
	case "ccsd_paper":
		var one sample
		for i := 0; i < 2; i++ {
			one = append(one, runJob(w, rep, jobEnv{workers: 1}).seconds)
		}
		vals["sip.parallel_eff"] = ratio(one.median(), 2*seconds(untraced).median())
		iso, err := isoContract(5)
		if err != nil {
			return nil, err
		}
		vals["block.contract_iso_gflop_per_s"] = iso
	}
	emitLayers(rep, vals)
	return tr, nil
}

// serveTraced runs the closed loop untraced, then on a fresh service
// traced, then probes a third service with the open loop and its rate
// ladder, and replays compile and dry run on submitted programs.
func (b bench) serveTraced(rep *report) (*tracer, error) {
	w := newServeJobs()
	vals := map[string]float64{}
	latencies := func(recs []serveRecord) sample {
		var s sample
		for _, r := range recs {
			s = append(s, r.latency)
		}
		return s
	}
	svc, err := w.newService(false, nil)
	if err != nil {
		return nil, err
	}
	warm := w.closedLoop(svc, b.seed, time.Second/2, 0, nil)
	countServe(rep, warm)
	n := len(warm)
	gs := startGoStats()
	untraced := w.closedLoop(svc, b.seed+1, 2*b.seconds/5, n, nil)
	gs.finish(vals, len(untraced))
	countServe(rep, untraced)
	n += len(untraced)
	svc.Close()

	tr := newTracer()
	p := &probe{tr: tr}
	watch, err := watchDir(b.tmp)
	if err != nil {
		return nil, err
	}
	svc, err = w.newService(true, p)
	if err != nil {
		watch.close()
		return nil, err
	}
	recs := w.closedLoop(svc, b.seed+2, 3*b.seconds/5, n, tr)
	svc.Close()
	watch.close()
	countServe(rep, recs)
	n += len(recs)

	prof := &profileSum{}
	var counters []map[string]int64
	for _, r := range recs {
		prof.add(r.prof)
		counters = append(counters, r.metrics)
	}
	jobs := float64(len(recs))
	profileLayers(vals, prof, jobs)
	probeLayers(vals, []*probe{p}, jobs)
	registryLayers(vals, counters, jobs)
	vals["sip.scratch_dirs"] = ratio(float64(watch.created.Load()), jobs)
	vals["obs.trace_overhead_x"] = ratio(latencies(recs).median(), latencies(untraced).median())
	vals["trace.phase_coverage"] = tr.phaseCoverage("job")
	vals["trace.job_s_mean"] = tr.durations("job").mean()

	// The open-loop probe: seeded Poisson arrivals of openMix at
	// openRate, each job timed from its scheduled arrival, then the
	// rate ladder.
	svc, err = w.newService(false, nil)
	if err != nil {
		return nil, err
	}
	arr := schedule(b.seed+3, openRate, b.seconds/5, openMix)
	start := time.Now()
	open := w.phase(svc, arr, n, nil)
	countServe(rep, open)
	n += len(arr)
	base := judgeRung(openRate, open, start.Add(arr[len(arr)-1].At), time.Now())
	okOpen, _, ladderRecs := w.runLadder(svc, b.seed, n, b.seconds/5/time.Duration(len(ladder)), base)
	svc.Close()
	for _, r := range ladderRecs {
		// Overload refusals on the ladder are its measurement, not
		// failures of the workload; wrong answers still are.
		if r.wrong != nil {
			rep.job(r.wrong, nil)
		}
	}
	var ack, queue, exec, late sample
	for _, r := range open {
		ack = append(ack, r.ack)
		late = append(late, r.late)
		if r.ok {
			queue = append(queue, r.queue)
			exec = append(exec, r.exec)
		}
	}
	pct := func(s sample, q float64) float64 { v, _ := s.percentile(q); return v }
	vals["serve.ack_s_p50"], vals["serve.ack_s_p99"] = ack.median(), pct(ack, 99)
	vals["serve.queue_s_p50"], vals["serve.queue_s_p99"] = queue.median(), pct(queue, 99)
	vals["serve.exec_s_p50"], vals["serve.exec_s_p99"] = exec.median(), pct(exec, 99)
	vals["loadgen.late_s_p99"], vals["loadgen.late_s_max"] = pct(late, 99), late.max()
	vals["serve.open_job_s_p50"] = latencies(open).median()
	vals["serve.open_job_s_p99"] = pct(latencies(open), 99)
	vals["serve.open_ok_rate_jobs_per_s"] = okOpen

	// Admission work the service does inside Submit, replayed on the
	// probe's requests: compile, then the dry run that prices the job.
	const replay = 200
	for i, a := range arr[:min(replay, len(arr))] {
		req := w.request(a.Kind, n+i)
		src := req.Source
		if src == "" {
			src = w.src
		}
		root := tr.begin("admission", nil)
		sp := tr.begin("compile", root)
		prog, err := core.Compile(src)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("dryrun", root)
		_, err = core.DryRun(prog, core.Config{Workers: 2, Servers: 1, Params: req.Params, Seg: core.DefaultSegConfig(4)}, 0)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	self, cnt := tr.selfTimes()
	vals["compiler.compile_s"] = ratio(self["compile"].Seconds(), float64(cnt["compile"]))
	vals["sip.dryrun_s"] = ratio(self["dryrun"].Seconds(), float64(cnt["dryrun"]))
	emitLayers(rep, vals)
	return tr, nil
}
