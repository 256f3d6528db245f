package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// above it: a tail read from fewer samples is one outlier, not a tail.
const minBeyond = 10

// sample is a set of observations in seconds (or any unit).
type sample []float64

// percentile returns the nearest-rank q-th percentile (0 < q < 100) and
// whether the sample is large enough to report it, i.e. at least
// minBeyond observations lie above it.
func (s sample) percentile(q float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	r := rank(q, n)
	return sorted[r-1], n-r >= minBeyond
}

// median is the 50th percentile, reported whatever the sample size.
func (s sample) median() float64 {
	v, _ := s.percentile(50)
	return v
}

// rank is the 1-based nearest rank of percentile q among n samples.
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q/100*float64(n))))
}

// minJobs is the smallest sample in which percentile q has minBeyond
// samples above it.
func minJobs(q float64) int {
	n := 1
	for n-rank(q, n) < minBeyond {
		n++
	}
	return n
}

// blockPercentile splits s, in arrival order, into consecutive blocks
// of minJobs(q) observations, takes percentile q of each, and returns
// the median over the blocks and their number.  A slow stretch of a few
// seconds on a shared machine then moves a few blocks, not the result.
// A trailing partial block is dropped; with fewer than two blocks the
// percentile is taken over all of s.
func (s sample) blockPercentile(q float64) (float64, int) {
	size := minJobs(q)
	if len(s) < 2*size {
		v, _ := s.percentile(q)
		return v, 1
	}
	var per sample
	for lo := 0; lo+size <= len(s); lo += size {
		v, _ := s[lo : lo+size].percentile(q)
		per = append(per, v)
	}
	return per.median(), len(per)
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) max() float64 {
	m := 0.0
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}
