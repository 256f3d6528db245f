// Command perfbench is the repository's benchmark: four workloads that
// drive the SIAL/SIP stack end to end, check every job's answer, and
// report end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	perfbench --workload mp2_batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  See NOTES.md for the
// workloads, the metrics and the layer each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

var workloadNames = []string{"mp2_batch", "ccsd_paper", "ccsd_served_tcp", "serve_jobs"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome: the contract metrics, a readable
// table of every metric with its sample count, and per-layer bases.
type report struct {
	res   result
	lines []string
	bases map[string]string
	wrong []error
	errs  []error
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metric{}}, bases: map[string]string{}}
}

// metric adds a metric to the JSON result and the table.
func (r *report) metric(name string, v float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, v, unit, n)
}

// show adds a line to the table only.
func (r *report) show(name string, v float64, unit string, n int) {
	r.lines = append(r.lines, fmt.Sprintf("%-34s %14.6g %-10s n=%d", name, v, unit, n))
}

// layer adds a per-layer metric with the base its ratio is taken over.
func (r *report) layer(name string, v float64, unit, base string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.bases[name] = base
	r.lines = append(r.lines, fmt.Sprintf("%-34s %14.6g %-10s base: %s", name, v, unit, base))
}

// job counts one attempted job.
func (r *report) job(wrong, err error) {
	r.res.Attempted++
	if err != nil || wrong != nil {
		r.res.Failed++
	}
	if wrong != nil {
		r.wrong = append(r.wrong, wrong)
	} else if err != nil {
		r.errs = append(r.errs, err)
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload   = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Int("seconds", 20, "measured seconds")
		trace      = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out        = flag.String("out", ".bench_out", "directory for the trace and per-layer summary")
		setupChild = flag.Bool("setup-child", false, "internal: time one cold set-up and exit")
	)
	flag.Parse()
	// A hang anywhere (a rank waiting for a peer that never started, a
	// wedged service) must still end the run with an error.  A set-up
	// child gets less time than its parent, so the parent outlives it.
	limit := 170 * time.Second
	if *setupChild {
		limit = 60 * time.Second
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", limit)
		os.Exit(1)
	})
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}

	// Scratch directories the runtime creates land in a directory of
	// this process's own, where the traced run counts them.
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	os.Setenv("TMPDIR", tmp)

	if *setupChild {
		return childSetup(*workload, *seed)
	}
	b := bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: tmp, out: *out}
	rep := newReport()
	if *trace == 1 {
		err = b.traced(rep)
	} else {
		err = b.untraced(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed job: %v\n", e)
	}
	for _, e := range rep.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG ANSWER: %v\n", e)
	}
	rep.res.Correct = rep.res.Failed == 0 && len(rep.wrong) == 0
	fmt.Printf("workload %s seed %d trace %d: %d jobs, %d failed\n", *workload, *seed, *trace, rep.res.Attempted, rep.res.Failed)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tmp      string
	out      string
}

func (b bench) batch() *batchWorkload {
	switch b.workload {
	case "mp2_batch":
		return mp2Batch()
	case "ccsd_paper":
		return ccsdPaper(b.seed)
	default:
		return ccsdServedTCP(b.seed)
	}
}

// setupRuns is how many cold set-ups a run times, each in a fresh
// process; setup_s is their median.
func setupRuns(workload string) int {
	if workload == "ccsd_paper" {
		return 3 // each child also builds the 1e9-flop reference
	}
	return 7
}

// childOutcome is what a set-up child reports on its last line.
type childOutcome struct {
	SetupS float64 `json:"setup_s"`
	Wrong  string  `json:"wrong,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// childSetup times a cold start of the workload to its first completed
// job, then checks that job's answer.
func childSetup(workload string, seed int64) int {
	var o childOutcome
	if workload == "serve_jobs" {
		w := newServeJobs()
		start := time.Now()
		svc, err := w.newService(false, nil)
		if err != nil {
			o.Error = err.Error()
		} else {
			rec := w.submit(svc, closedMix[0], 0, start, nil)
			o.SetupS = time.Since(start).Seconds()
			svc.Close()
			if rec.wrong != nil {
				o.Wrong = rec.wrong.Error()
			} else if rec.err != nil {
				o.Error = rec.err.Error()
			}
		}
	} else {
		w := bench{workload: workload, seed: seed}.batch()
		start := time.Now()
		ans, err := w.run(jobEnv{workers: 2})
		o.SetupS = time.Since(start).Seconds()
		if err != nil {
			o.Error = err.Error()
		} else if err := w.prepare(); err != nil {
			o.Error = err.Error()
		} else if err := w.check(ans); err != nil {
			o.Wrong = err.Error()
		}
	}
	line, _ := json.Marshal(o)
	fmt.Println(string(line))
	return 0
}

// setup runs the cold set-ups and adds setup_s.
func (b bench) setup(rep *report) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var times sample
	for i := 0; i < setupRuns(b.workload); i++ {
		cmd := exec.Command(self, "-setup-child", "-workload", b.workload, "-seed", fmt.Sprint(b.seed))
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("set-up child: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var o childOutcome
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
			return fmt.Errorf("set-up child output %q: %w", outb, err)
		}
		var wrong, jerr error
		if o.Wrong != "" {
			wrong = fmt.Errorf("set-up job: %s", o.Wrong)
		}
		if o.Error != "" {
			jerr = fmt.Errorf("set-up job: %s", o.Error)
		}
		rep.job(wrong, jerr)
		times = append(times, o.SetupS)
	}
	rep.metric("setup_s", times.median(), "s", len(times))
	return nil
}

// batchRecord is one closed-loop job's outcome.
type batchRecord struct {
	seconds float64 // compile + run (+ gather); +Inf when the job failed
	p       *probe
	reg     map[string]int64
}

// loop runs jobs one after another for at least d and until it has n
// jobs, but no longer than 3d.  mk builds each job's environment.
func (b bench) loop(w *batchWorkload, rep *report, d time.Duration, n int, mk func() jobEnv) []batchRecord {
	var recs []batchRecord
	start := time.Now()
	for time.Since(start) < d || (len(recs) < n && time.Since(start) < 3*d) {
		recs = append(recs, runJob(w, rep, mk()))
	}
	return recs
}

// runJob runs, times and checks one job and counts it.
func runJob(w *batchWorkload, rep *report, e jobEnv) batchRecord {
	t0 := time.Now()
	ans, err := w.run(e)
	r := batchRecord{seconds: time.Since(t0).Seconds(), p: e.p}
	var wrong error
	if err == nil {
		sp := e.tr.begin("check", e.root)
		wrong = w.check(ans)
		e.tr.end(sp)
	}
	e.tr.end(e.root)
	rep.job(wrong, err)
	if err != nil || wrong != nil {
		r.seconds = math.Inf(1)
	}
	if e.reg != nil {
		r.reg = e.reg.Snapshot().Counters
	}
	return r
}

func seconds(recs []batchRecord) sample {
	s := make(sample, len(recs))
	for i, r := range recs {
		s[i] = r.seconds
	}
	return s
}

func (b bench) untraced(rep *report) error {
	if b.workload == "serve_jobs" {
		return b.serveUntraced(rep)
	}
	w := b.batch()
	if err := b.setup(rep); err != nil {
		return err
	}
	if err := w.prepare(); err != nil {
		return err
	}
	debug.FreeOSMemory()
	rss := sampleRSS(10*time.Millisecond, 100)
	plain := func() jobEnv { return jobEnv{workers: 2} }
	b.loop(w, rep, time.Second, 1, plain) // warm-up
	start := time.Now()
	recs := b.loop(w, rep, b.seconds, minJobs(w.tailQ), plain)
	elapsed := time.Since(start).Seconds()
	peak, windows := rss.finish()

	s := seconds(recs)
	ok := 0
	for _, v := range s {
		if !math.IsInf(v, 1) {
			ok++
		}
	}
	p50, blocks := s.blockPercentile(50)
	rep.metric("job_s_p50", p50, "s", len(s))
	tail, tailBlocks := s.blockPercentile(w.tailQ)
	rep.metric("job_s_tail", tail, "s", len(s))
	if w.tailQ > 50 {
		rep.show(fmt.Sprintf("job_s_p%.0f", w.tailQ), tail, "s", len(s))
	}
	rep.lines = append(rep.lines, fmt.Sprintf("  (p50 is the median over %d blocks of %d jobs, the tail over %d blocks of %d)",
		blocks, minJobs(50), tailBlocks, minJobs(w.tailQ)))
	rep.metric("ok_rate_jobs_per_s", float64(ok)/elapsed, "jobs/s", len(s))
	rep.metric("peak_rss_mb", peak, "MB", windows)
	if w.flops > 0 {
		rep.show("gflop_per_s", float64(w.flops)*float64(ok)/elapsed/1e9, "GFLOP/s", len(s))
	}
	rep.show("failed_frac", float64(rep.res.Failed)/float64(rep.res.Attempted), "ratio", rep.res.Attempted)
	return nil
}

func (b bench) serveUntraced(rep *report) error {
	w := newServeJobs()
	if err := b.setup(rep); err != nil {
		return err
	}
	debug.FreeOSMemory()
	rss := sampleRSS(10*time.Millisecond, 100)
	svc, err := w.newService(false, nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	warm := w.closedLoop(svc, b.seed, time.Second, 0, nil)
	countServe(rep, warm)
	start := time.Now()
	recs := w.closedLoop(svc, b.seed+1, b.seconds, len(warm), nil)
	elapsed := time.Since(start).Seconds()
	countServe(rep, recs)
	peak, windows := rss.finish()

	var lat, ack sample
	ok := 0
	for _, r := range recs {
		lat = append(lat, r.latency)
		ack = append(ack, r.ack)
		if r.ok {
			ok++
		}
	}
	p50, blocks := lat.blockPercentile(50)
	rep.metric("job_s_p50", p50, "s", len(lat))
	tail, tailBlocks := lat.blockPercentile(serveTailQ)
	rep.metric("job_s_tail", tail, "s", len(lat))
	rep.show(fmt.Sprintf("job_s_p%d", serveTailQ), tail, "s", len(lat))
	rep.lines = append(rep.lines, fmt.Sprintf("  (p50 is the median over %d blocks of %d jobs, the tail over %d blocks of %d)",
		blocks, minJobs(50), tailBlocks, minJobs(serveTailQ)))
	rep.metric("ok_rate_jobs_per_s", float64(ok)/elapsed, "jobs/s", len(lat))
	rep.metric("peak_rss_mb", peak, "MB", windows)
	ack50, _ := ack.blockPercentile(50)
	ack99, _ := ack.blockPercentile(99)
	rep.show("ack_s_p50", ack50, "s", len(ack))
	rep.show("ack_s_p99", ack99, "s", len(ack))
	rep.show("failed_frac", float64(rep.res.Failed)/float64(rep.res.Attempted), "ratio", rep.res.Attempted)
	return nil
}

// countServe counts served jobs in the report.
func countServe(rep *report, recs []serveRecord) {
	for _, r := range recs {
		rep.job(r.wrong, r.err)
	}
}

func (b bench) traced(rep *report) error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	var tr *tracer
	var err error
	if b.workload == "serve_jobs" {
		tr, err = b.serveTraced(rep)
	} else {
		tr, err = b.batchTraced(rep)
	}
	if err != nil {
		return err
	}
	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	self, count := tr.selfTimes()
	spans := map[string]any{}
	for name, d := range self {
		spans[name] = map[string]any{"count": count[name], "self_s": d.Seconds()}
	}
	layers := map[string]any{}
	for name, m := range rep.res.Metrics {
		layers[name] = map[string]any{"value": m.Value, "unit": m.Unit, "base": rep.bases[name]}
	}
	return writeJSON(base+".layers.json", map[string]any{
		"workload": b.workload, "seed": b.seed, "spans": spans, "metrics": layers,
	})
}
