package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func TestScheduleReproducibleFromSeed(t *testing.T) {
	a := schedule(7, 1000, 2*time.Second, openMix)
	if !reflect.DeepEqual(a, schedule(7, 1000, 2*time.Second, openMix)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 1000, 2*time.Second, openMix)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", n)
	}
	counts := map[string]int{}
	for i, x := range a {
		if x.At < 0 || x.At >= 2*time.Second || (i > 0 && x.At < a[i-1].At) {
			t.Fatalf("arrival %d at %v out of order or range", i, x.At)
		}
		counts[x.Kind.Name]++
	}
	for _, k := range openMix {
		if got := float64(counts[k.Name]) / float64(len(a)); math.Abs(got-k.Share) > 0.04 {
			t.Errorf("%s share %.3f, want %.2f", k.Name, got, k.Share)
		}
	}
}

func TestAdHocSourcesDiffer(t *testing.T) {
	w := newServeJobs()
	a, b := adHocSource(w.src, 1), adHocSource(w.src, 2)
	if a == b || a == w.src || !strings.Contains(a, "sial mp2_adhoc_1") {
		t.Fatalf("ad-hoc sources not unique:\n%s", a)
	}
	if _, err := core.Compile(a); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyFromScheduledTime(t *testing.T) {
	w := newServeJobs()
	svc, err := w.newService(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Every submission stalls in admission, so jobs due together queue
	// behind one another at the front door: each one's latency counts
	// from when it was due, not from when it got in.
	const stall = 20 * time.Millisecond
	svc.RegisterPack("mp2", serve.Pack{Source: w.src, Env: func(params map[string]int) serve.Env {
		time.Sleep(stall)
		return serve.Env{}
	}})
	arr := []arrival{{At: 0, Kind: openMix[0]}, {At: 0, Kind: openMix[0]}, {At: 5 * time.Millisecond, Kind: openMix[0]}}
	recs := w.phase(svc, arr, 0, nil)
	for i, r := range recs {
		// The stub environment registers no mp2_denom, so the job fails:
		// a failed job must carry +Inf latency and count as not ok.
		if r.ok || !math.IsInf(r.latency, 1) || r.err == nil {
			t.Errorf("job %d: ok=%v latency=%v err=%v; want a failure at +Inf", i, r.ok, r.latency, r.err)
		}
		if r.ack < stall.Seconds() || r.late < 0 {
			t.Errorf("job %d: ack %v late %v; want ack >= %v and lateness recorded", i, r.ack, r.late, stall)
		}
	}

	w2 := newServeJobs()
	svc2, err := w2.newService(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	due := time.Now().Add(-30 * time.Millisecond) // the generator ran late
	r := w2.submit(svc2, openMix[1], 0, due, nil)
	if !r.ok || r.latency < 0.030 || r.late < 0.030 {
		t.Fatalf("late job: ok=%v latency=%v late=%v; want latency and lateness >= 30ms", r.ok, r.latency, r.late)
	}
}

func TestLadderRule(t *testing.T) {
	fast := func(n int) []serveRecord {
		recs := make([]serveRecord, n)
		for i := range recs {
			recs[i] = serveRecord{latency: 0.002, ok: true}
		}
		return recs
	}
	now := time.Now()
	if r := judgeRung(1000, fast(1000), now, now); !r.pass {
		t.Fatalf("fast rung failed: %+v", r)
	}
	refused := fast(1000)
	for i := 0; i < 20; i++ {
		refused[i] = serveRecord{latency: math.Inf(1)}
	}
	if r := judgeRung(1000, refused, now, now); r.pass {
		t.Fatalf("rung with 2%% refused passed: %+v", r)
	}
	if r := judgeRung(1000, fast(1000), now, now.Add(time.Second)); r.pass {
		t.Fatalf("rung that left a backlog passed: %+v", r)
	}

	// Interpolation: a p90 of 10ms at 1000/s and 40ms at 1250/s reaches
	// the 25ms limit at 1000 + 250*log(2.5)/log(4).
	rungs := []rungResult{{rate: 1000, tail: 0.010, pass: true}, {rate: 1250, tail: 0.040}}
	want := 1000 + 250*math.Log(2.5)/math.Log(4)
	if got := okRate(rungs); math.Abs(got-want) > 1e-9 {
		t.Errorf("okRate = %v, want %v", got, want)
	}
	// Refusals: 0% at 1000/s and 4% at 1250/s cross 1% a quarter step up.
	rungs[1] = rungResult{rate: 1250, tail: math.Inf(1), failFrac: 0.04}
	if got := okRate(rungs); math.Abs(got-1062.5) > 1e-9 {
		t.Errorf("okRate with 4%% refused = %v, want 1062.5", got)
	}
	if got := okRate([]rungResult{{rate: 1000, tail: 0.1}}); got != 0 {
		t.Errorf("okRate with no passing rung = %v, want 0", got)
	}
}
