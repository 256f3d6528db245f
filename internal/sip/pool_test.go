package sip

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/compiler"
)

// serialE runs recoverDrill serially (fresh world, no pool) and returns
// the reference energy for the given problem size.
func serialE(t *testing.T, n int) float64 {
	t.Helper()
	var out bytes.Buffer
	res, err := RunSource(recoverDrill, Config{
		Workers: 2,
		Servers: 1,
		Params:  map[string]int{"n": n},
		Seg:     bytecode.DefaultSegConfig(3),
		Output:  &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Scalars["e"]
	if e == 0 {
		t.Fatalf("serial reference for n=%d computed e = 0; drill is vacuous", n)
	}
	return e
}

func poolProg(t *testing.T) *bytecode.Program {
	t.Helper()
	prog, err := compiler.CompileSource(recoverDrill)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPoolSingleJob: one job through the pool matches the serial batch
// answer — the strided tag plane and job-keyed block namespace are
// invisible to a lone tenant.
func TestPoolSingleJob(t *testing.T) {
	want := serialE(t, 12)
	p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var out bytes.Buffer
	res, err := p.RunJob(poolProg(t), Config{
		Params: map[string]int{"n": 12},
		Seg:    bytecode.DefaultSegConfig(3),
		Output: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalars["e"]; !closeE(got, want) {
		t.Errorf("pool e = %.15g, want %.15g", got, want)
	}
	if res.Elapsed <= 0 {
		t.Errorf("pool job Elapsed = %v, want > 0", res.Elapsed)
	}

	// The pool owns the world-level fields: a job asking for 99 workers,
	// no recovery, and its own scratch directory still runs on the pool's
	// membership with recovery forced on (checkpointing requires it) and
	// writes nothing outside the pool's scratch.
	foreign := t.TempDir()
	res, err = p.RunJob(poolProg(t), Config{
		Workers:      99,
		Recover:      false,
		ScratchDir:   foreign,
		CkptInterval: 1,
		Params:       map[string]int{"n": 12},
		Seg:          bytecode.DefaultSegConfig(3),
		Output:       &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalars["e"]; !closeE(got, want) {
		t.Errorf("pool e with foreign world fields = %.15g, want %.15g", got, want)
	}
	if ents, err := os.ReadDir(foreign); err != nil || len(ents) != 0 {
		t.Errorf("job wrote to its own ScratchDir: %v (err %v)", ents, err)
	}
}

// TestPoolConcurrentJobsIsolated: jobs of three different problem sizes
// run overlapped on the same pool; every job's answer must match its own
// serial reference.  Wrong-namespace traffic (one tenant reading
// another's blocks, acks, or dedup ledger) shows up as a wrong energy.
func TestPoolConcurrentJobsIsolated(t *testing.T) {
	sizes := []int{6, 9, 12}
	want := map[int]float64{}
	for _, n := range sizes {
		want[n] = serialE(t, n)
	}
	p, err := NewPool(PoolConfig{Workers: 3, Servers: 2, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prog := poolProg(t)

	const jobs = 9
	errs := make([]error, jobs)
	got := make([]float64, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := sizes[i%len(sizes)]
			var out bytes.Buffer
			res, err := p.RunJob(prog, Config{
				Params: map[string]int{"n": n},
				Seg:    bytecode.DefaultSegConfig(3),
				Output: &out,
			})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Scalars["e"]
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Errorf("job %d failed: %v", i, errs[i])
			continue
		}
		n := sizes[i%len(sizes)]
		if !closeE(got[i], want[n]) {
			t.Errorf("job %d (n=%d): e = %.15g, want %.15g", i, n, got[i], want[n])
		}
	}
}

// TestPoolKillAndJoin: a recovering, replicated pool survives a worker
// kill while jobs are in flight, and a joined spare carries jobs
// admitted afterwards.  Every job still matches its serial reference.
func TestPoolKillAndJoin(t *testing.T) {
	want := serialE(t, 12)
	p, err := NewPool(PoolConfig{
		Workers:  3,
		Servers:  2,
		Spares:   1,
		Replicas: 2,
		Recover:  true,
		Output:   &bytes.Buffer{},
		// Recovery is driven by receive deadlines: a master only
		// diagnoses (or notices) a dead worker when a blocking receive
		// times out.
		RecvTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prog := poolProg(t)
	run := func() (float64, error) {
		var out bytes.Buffer
		res, err := p.RunJob(prog, Config{
			Params: map[string]int{"n": 12},
			Seg:    bytecode.DefaultSegConfig(3),
			Output: &out,
		})
		if err != nil {
			return 0, err
		}
		return res.Scalars["e"], nil
	}

	const jobs = 4
	errs := make([]error, jobs)
	got := make([]float64, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run()
		}(i)
	}
	// Kill a worker while the first wave is in flight.
	time.Sleep(20 * time.Millisecond)
	if err := p.Kill(2, "test kill"); err != nil {
		t.Errorf("kill: %v", err)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Errorf("job %d failed across kill: %v", i, errs[i])
		} else if !closeE(got[i], want) {
			t.Errorf("job %d across kill: e = %.15g, want %.15g", i, got[i], want)
		}
	}
	if live := p.Workers(); len(live) != 2 {
		t.Fatalf("live workers after kill = %v, want 2", live)
	}

	// Join the spare; jobs admitted now schedule onto it.
	rank, err := p.Join()
	if err != nil {
		t.Fatal(err)
	}
	if live := p.Workers(); len(live) != 3 {
		t.Fatalf("live workers after join = %v, want 3", live)
	}
	e, err := run()
	if err != nil {
		t.Fatalf("job after join (rank %d): %v", rank, err)
	}
	if !closeE(e, want) {
		t.Errorf("job after join: e = %.15g, want %.15g", e, want)
	}
}

// TestPoolRejectsAfterClose: RunJob, Kill, and Join all fail cleanly on
// a closed pool, and NewPool rejects a config Run would reject.
func TestPoolRejectsAfterClose(t *testing.T) {
	if _, err := NewPool(PoolConfig{Workers: 1, Servers: 2, Replicas: -2}); err == nil {
		t.Error("NewPool accepted Replicas = -2")
	}
	p, err := NewPool(PoolConfig{Workers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := p.RunJob(poolProg(t), Config{}); err == nil {
		t.Error("RunJob on closed pool succeeded")
	}
	if err := p.Kill(1, "x"); err == nil {
		t.Error("Kill on closed pool succeeded")
	}
	if _, err := p.Join(); err == nil {
		t.Error("Join on closed pool succeeded")
	}
}

// closeE compares energies to the tolerance the chaos tests use: fold
// order across workers (and recovery replays) legitimately perturbs the
// low bits.
func closeE(got, want float64) bool {
	d := got - want
	return d > -1e-10 && d < 1e-10
}

var _ = fmt.Sprintf // keep fmt for debug edits
