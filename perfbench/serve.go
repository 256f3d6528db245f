package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chem"
	"repro/internal/serve"
	"repro/internal/sip"
)

// maxInFlight bounds the generator's outstanding jobs; an arrival
// beyond it is counted as refused rather than spawning without limit.
const maxInFlight = 4096

// serveJobs submits seeded job mixes to a serve.Service in its default
// configuration (no journal, no checkpointing).
type serveJobs struct {
	src  string
	refs map[[2]int]float64
}

func newServeJobs() *serveJobs {
	w := &serveJobs{src: chem.MP2EnergyProgram(), refs: map[[2]int]float64{}}
	for _, k := range append(append([]jobKind(nil), closedMix...), openMix...) {
		w.refs[[2]int{k.No, k.Nv}] = chem.MP2Reference(k.No, k.Nv)
	}
	return w
}

// newService starts the service.  traced turns on the per-job metric
// registries, and p wraps the pack callbacks.
func (w *serveJobs) newService(traced bool, p *probe) (*serve.Service, error) {
	svc, err := serve.New(serve.Config{
		Pool:          sip.PoolConfig{Workers: 2, Servers: 1, Output: io.Discard},
		MaxConcurrent: 4,
		JobMetrics:    traced,
	})
	if err != nil {
		return nil, err
	}
	// The mp2 pack, as the sial CLI registers it.
	svc.RegisterPack("mp2", serve.Pack{
		Source: w.src,
		Env: func(params map[string]int) serve.Env {
			return serve.Env{Super: p.supers(chem.MP2Super()), Integrals: p.integrals(chem.MOIntegrals(params["no"]))}
		},
	})
	return svc, nil
}

func (w *serveJobs) request(k jobKind, n int) serve.SubmitRequest {
	req := serve.SubmitRequest{Name: k.Name, Pack: "mp2", Params: map[string]int{"no": k.No, "nv": k.Nv}}
	if k.AdHoc {
		req.Source = adHocSource(w.src, n)
	}
	return req
}

// serveRecord is one submission's outcome.  Times are seconds; a job
// that was refused or failed has latency +Inf, so it misses any limit.
type serveRecord struct {
	ack, latency, queue, exec, late float64
	ok                              bool
	wrong                           error // the answer missed its reference
	err                             error // refused, failed, or wrong
	prof                            *sip.Profile
	metrics                         map[string]int64
}

// submit runs one job through the service and checks its answer.
func (w *serveJobs) submit(svc *serve.Service, k jobKind, n int, due time.Time, tr *tracer) serveRecord {
	rec := serveRecord{late: time.Since(due).Seconds(), latency: math.Inf(1)}
	root := tr.begin("job", nil)
	defer tr.end(root)
	sp := tr.begin("submit", root)
	start := time.Now()
	st, err := svc.Submit(w.request(k, n))
	rec.ack = time.Since(start).Seconds()
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("%s refused: %w", k.Name, err)
		return rec
	}
	sp = tr.begin("wait", root)
	st, _ = svc.Wait(st.ID)
	tr.end(sp)
	sp = tr.begin("check", root)
	defer tr.end(sp)
	if st.State != serve.StateDone {
		rec.err = fmt.Errorf("%s job %d %s: %s", k.Name, st.ID, st.State, st.Error)
		return rec
	}
	rec.latency = st.Finished.Sub(due).Seconds()
	rec.queue = st.Started.Sub(st.Submitted).Seconds()
	rec.exec = st.Finished.Sub(st.Started).Seconds()
	if err := checkScalar("emp2", st.Scalars["emp2"], w.refs[[2]int{k.No, k.Nv}]); err != nil {
		rec.wrong = fmt.Errorf("%s job %d: %w", k.Name, st.ID, err)
		rec.err = rec.wrong
		return rec
	}
	rec.ok = true
	if tr != nil {
		rec.metrics = st.Metrics
		if res := svc.Result(st.ID); res != nil {
			rec.prof = res.Profile
		}
	}
	return rec
}

// phase plays the arrivals against svc as an open loop: each job is
// sent at its scheduled time whatever the state of earlier ones, and
// timed from that scheduled time.  first numbers the ad-hoc sources.
// phase returns once every job has finished.
func (w *serveJobs) phase(svc *serve.Service, arrivals []arrival, first int, tr *tracer) []serveRecord {
	recs := make([]serveRecord, len(arrivals))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInFlight)
	t0 := time.Now()
	for i, a := range arrivals {
		due := t0.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			recs[i] = serveRecord{late: time.Since(due).Seconds(), latency: math.Inf(1),
				err: fmt.Errorf("generator: %d jobs in flight", maxInFlight)}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = w.submit(svc, a.Kind, first+i, due, tr)
			<-sem
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop is one client running jobs one at a time for d, their
// kinds drawn from closedMix by seed, each timed from its submission.
func (w *serveJobs) closedLoop(svc *serve.Service, seed int64, d time.Duration, first int, tr *tracer) []serveRecord {
	rng := rand.New(rand.NewSource(seed))
	var recs []serveRecord
	for start := time.Now(); time.Since(start) < d; {
		recs = append(recs, w.submit(svc, pick(rng.Float64(), closedMix), first+len(recs), time.Now(), tr))
	}
	return recs
}

// openRate is the open-loop probe's offered load in jobs/s.
const openRate = 1000

// ladder is the fixed set of offered rates, in jobs/s, above openRate
// at which the probe's ok rate is measured.
var ladder = []float64{1250, 1500, 1750, 2000, 2250, 2500, 2750}

// serveTailQ is the latency percentile serve_jobs reports as its tail
// and judges ladder rungs by.
const serveTailQ = 90

// latencyLimit is the p90 job latency a rung must stay under to pass.
const latencyLimit = 25 * time.Millisecond

// drainLimit bounds the backlog a passing rung may leave: the last job
// must finish within it of the last scheduled arrival.  A rate 10% over
// capacity leaves about 100ms of backlog after a 1s rung.
const drainLimit = 100 * time.Millisecond

// rungResult is one ladder rung's verdict.
type rungResult struct {
	rate     float64
	tail     float64 // job latency at serveTailQ, seconds
	failFrac float64
	drain    float64 // seconds from the last scheduled arrival to the last finish
	pass     bool
}

// judgeRung applies the ladder's rule: the tail latency (blockPercentile
// at serveTailQ) under latencyLimit, at most 1% of jobs failed or
// refused, and the backlog drained within drainLimit once arrivals stop.
func judgeRung(rate float64, recs []serveRecord, lastDue, lastFinish time.Time) rungResult {
	var lat sample
	failed := 0
	for _, r := range recs {
		lat = append(lat, r.latency)
		if !r.ok {
			failed++
		}
	}
	tail, _ := lat.blockPercentile(serveTailQ)
	res := rungResult{rate: rate, tail: tail, drain: lastFinish.Sub(lastDue).Seconds()}
	if len(recs) > 0 {
		res.failFrac = float64(failed) / float64(len(recs))
	}
	res.pass = len(recs) > 0 && tail <= latencyLimit.Seconds() && res.failFrac <= 0.01 && res.drain <= drainLimit.Seconds()
	return res
}

// runLadder climbs the ladder from base, the verdict on the workload's
// own rate, each rung lasting rung, until a rung fails.  It returns the
// highest passing rate, moved toward the failing rung as okRate says,
// and every rung played.
func (w *serveJobs) runLadder(svc *serve.Service, seed int64, first int, rung time.Duration, base rungResult) (float64, []rungResult, []serveRecord) {
	var all []serveRecord
	rungs := []rungResult{base}
	for i, rate := range ladder {
		if !rungs[len(rungs)-1].pass {
			break
		}
		arr := schedule(seed*1000+int64(i), rate, rung, openMix)
		start := time.Now()
		recs := w.phase(svc, arr, first, nil)
		first += len(arr)
		lastDue := start
		if len(arr) > 0 {
			lastDue = start.Add(arr[len(arr)-1].At)
		}
		rungs = append(rungs, judgeRung(rate, recs, lastDue, time.Now()))
		all = append(all, recs...)
	}
	return okRate(rungs), rungs[1:], all
}

// okRate is the ladder's result: the last passing rate, moved toward
// the failing rung by the smallest share of the step at which a failed
// criterion, interpolated between the two rungs, crosses its limit (tail
// latency log-linear, failed share and drain linear).  It is 0 when the
// first rung fails.
func okRate(rungs []rungResult) float64 {
	n := len(rungs)
	if n == 0 || !rungs[0].pass {
		return 0
	}
	last := rungs[n-1]
	if last.pass {
		return last.rate
	}
	prev := rungs[n-2]
	f := 1.0
	// A tail made infinite by refused jobs is covered by the failed share.
	if limit := latencyLimit.Seconds(); last.tail > limit && !math.IsInf(last.tail, 1) {
		f = math.Min(f, math.Log(limit/prev.tail)/math.Log(last.tail/prev.tail))
	}
	if last.failFrac > 0.01 {
		f = math.Min(f, (0.01-prev.failFrac)/(last.failFrac-prev.failFrac))
	}
	if limit := drainLimit.Seconds(); last.drain > limit {
		f = math.Min(f, (limit-prev.drain)/(last.drain-prev.drain))
	}
	if math.IsNaN(f) {
		f = 0
	}
	return prev.rate + math.Min(1, math.Max(0, f))*(last.rate-prev.rate)
}
