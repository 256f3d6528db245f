package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// arrival is one scheduled submission of the open-loop generator.
type arrival struct {
	At   time.Duration // offset from the phase start
	Kind jobKind
}

// jobKind is one entry of a serve_jobs job mix.
type jobKind struct {
	Name   string
	Share  float64 // fraction of arrivals
	No, Nv int
	AdHoc  bool // submit source text unique to the request
}

// closedMix is serve_jobs' gated traffic: MP2 jobs of 144 pardo
// iterations (about 3ms of compute), a quarter of them ad-hoc sources
// that share no compilation.
var closedMix = []jobKind{
	{Name: "mp2_pack", Share: 0.75, No: 8, Nv: 24},
	{Name: "adhoc", Share: 0.25, No: 8, Nv: 24, AdHoc: true},
}

// openMix is the open-loop probe's traffic: mostly small MP2 packs, a
// quarter of ad-hoc sources, and a few heavy jobs that make the
// fairness gate matter.
var openMix = []jobKind{
	{Name: "mp2_small", Share: 0.45, No: 2, Nv: 4},
	{Name: "mp2_medium", Share: 0.25, No: 4, Nv: 8},
	{Name: "mp2_heavy", Share: 0.05, No: 8, Nv: 24},
	{Name: "adhoc", Share: 0.25, No: 2, Nv: 4, AdHoc: true},
}

// schedule returns the Poisson arrivals at rate jobs/s over d, with the
// job kind of each drawn from mix.  The same seed gives the same
// schedule.
func schedule(seed int64, rate float64, d time.Duration, mix []jobKind) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{At: at, Kind: pick(rng.Float64(), mix)})
	}
}

func pick(u float64, mix []jobKind) jobKind {
	for _, k := range mix {
		if u < k.Share {
			return k
		}
		u -= k.Share
	}
	return mix[len(mix)-1]
}

// adHocSource renames the MP2 program after request n, so its text is
// unique and a compile cache keyed on the source could never hit.
func adHocSource(src string, n int) string {
	return strings.Replace(src, "sial mp2_energy", fmt.Sprintf("sial mp2_adhoc_%d", n), 1)
}
