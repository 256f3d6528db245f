package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestProbesDoNotChangeResults runs each workload's job with and
// without every probe and requires bit-identical answers.  One worker
// keeps the accumulation order fixed.
func TestProbesDoNotChangeResults(t *testing.T) {
	for name, w := range map[string]*batchWorkload{
		"mp2_batch":       mp2Batch(),       // integral, super and gate probes
		"ccsd_served_tcp": ccsdServedTCP(3), // plus the transport and observer probes
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := w.run(jobEnv{workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			root := tr.begin("job", nil)
			p := &probe{tr: tr, parent: root}
			probed, err := w.run(jobEnv{workers: 1, tr: tr, root: root, p: p})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(plain.(float64)) != math.Float64bits(probed.(float64)) {
				t.Fatalf("probed run %v differs from plain run %v", probed, plain)
			}
			if p.integralCalls.Load() == 0 || p.acquires.Load() == 0 {
				t.Fatalf("probes saw no calls: integrals %d, acquires %d", p.integralCalls.Load(), p.acquires.Load())
			}
			if name == "ccsd_served_tcp" && (p.sends.Load() == 0 || p.framesOut.Load() == 0) {
				t.Fatalf("transport probes saw no traffic: sends %d, frames %d", p.sends.Load(), p.framesOut.Load())
			}
		})
	}
}

func TestDirWatchCountsDirectories(t *testing.T) {
	dir := t.TempDir()
	w, err := watchDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w.close()
	if got := w.created.Load(); got != 3 {
		t.Fatalf("counted %d directories, want 3", got)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	at := func(d time.Duration) time.Time { return tr.t0.Add(d) }
	// job [0,100ms) with phases [0,40) and [30,90): covered 90ms.
	tr.spans = append(tr.spans, span{ID: 1, Job: 1, Name: "job", Start: 0, End: 100 * ms})
	tr.record("compile", &span{ID: 1, Job: 1}, at(0), at(40*ms))
	tr.record("run", &span{ID: 1, Job: 1}, at(30*ms), at(90*ms))
	if got := tr.phaseCoverage("job"); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	self, count := tr.selfTimes()
	if self["job"] != 10*ms || count["run"] != 1 {
		t.Errorf("job self time %v, run count %d; want 10ms, 1", self["job"], count["run"])
	}
}
