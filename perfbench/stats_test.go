package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := make(sample, 100)
	for i := range s {
		s[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, ok := s.percentile(90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, reportable (10 beyond)", v, ok)
	}
	if v, ok := s.percentile(99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v, %v; want 99, not reportable (1 beyond)", v, ok)
	}
	if s.median() != 50 {
		t.Errorf("median = %v, want 50", s.median())
	}
	if _, ok := (sample{}).percentile(50); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestBlockPercentile(t *testing.T) {
	if minJobs(50) != 20 || minJobs(90) != 100 || minJobs(99) != 1000 {
		t.Errorf("minJobs(50, 90, 99) = %d, %d, %d; want 20, 100, 1000", minJobs(50), minJobs(90), minJobs(99))
	}
	// Ten blocks of 100 jobs at 1ms, except two slow blocks at 9ms: the
	// slow stretch moves two blocks, not the median over blocks.
	var s sample
	for b := 0; b < 10; b++ {
		v := 0.001
		if b == 3 || b == 4 {
			v = 0.009
		}
		for i := 0; i < 100; i++ {
			s = append(s, v)
		}
	}
	if v, n := s.blockPercentile(90); v != 0.001 || n != 10 {
		t.Errorf("blockPercentile(90) = %v over %d blocks, want 0.001 over 10", v, n)
	}
	if v, n := s[:150].blockPercentile(90); v != 0.001 || n != 1 {
		t.Errorf("short sample: %v over %d blocks, want the plain p90 over 1", v, n)
	}
}

func TestFailedJobsMissTheLimit(t *testing.T) {
	// A refused job has latency +Inf: it lands in the tail, never under it.
	s := make(sample, 0, 200)
	for i := 0; i < 197; i++ {
		s = append(s, 0.001)
	}
	s = append(s, math.Inf(1), math.Inf(1), math.Inf(1))
	if v, _ := s.percentile(99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.5%% refused = %v, want +Inf", v)
	}
}
