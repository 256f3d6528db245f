package transport

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec(" seed=7; drop=0.25 ;dup=0.1;delay=5ms;kill=3@40;partition=0,1|2,3;heal=60 ")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{
		Seed: 7, Drop: 0.25, Dup: 0.1, Delay: 5 * time.Millisecond,
		KillRank: 3, KillAfter: 40,
		PartA: []int{0, 1}, PartB: []int{2, 3}, Heal: 60,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("parsed %+v, want %+v", spec, want)
	}
	if !spec.Active() {
		t.Error("spec should be active")
	}
	// String renders back to a parseable, equivalent spec.
	back, err := ParseFaultSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip %+v != %+v", back, spec)
	}

	empty, err := ParseFaultSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Active() {
		t.Errorf("empty spec should be inactive: %+v", empty)
	}

	for _, bad := range []string{"drop", "drop=2", "dup=-1", "delay=x", "kill=-2", "partition=0,1", "heal=-3", "frob=1"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

// TestParseFaultSpecRejectsBadPartitions: malformed partition clauses
// must be rejected with the offending clause (and rank, for overlaps)
// named in the error, not silently accepted as a spec that drops all of
// a rank's traffic.
func TestParseFaultSpecRejectsBadPartitions(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
	}{
		{"partition=0,1|1,2", "rank 1 on both sides"},
		{"partition=2|2", "rank 2 on both sides"},
		{"partition=0,-3|1", "negative rank -3"},
		{"partition=0| ", "empty rank list"},
		{"partition=0,x|1", ""},
	} {
		_, err := ParseFaultSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), "fault spec clause") {
			t.Errorf("ParseFaultSpec(%q) error %q does not name the clause", tc.spec, err)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseFaultSpec(%q) error %q, want it to contain %q", tc.spec, err, tc.want)
		}
	}
	// Disjoint sides still parse.
	spec, err := ParseFaultSpec("partition=0,1|2,3")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Active() {
		t.Error("valid partition spec should be active")
	}
}

// collector records delivered (src, tag) pairs at one endpoint.
type collector struct {
	mu   sync.Mutex
	msgs []int // tags in arrival order
}

func (c *collector) handler(src, dst, tag int, data any) {
	c.mu.Lock()
	c.msgs = append(c.msgs, tag)
	c.mu.Unlock()
}

func (c *collector) tags() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.msgs...)
}

// faultPair wires ranks 0 and 1 through a router, wrapping rank 0's
// endpoint in a Fault with the given spec.
func faultPair(t *testing.T, spec FaultSpec, events func(string, int)) (*Fault, *collector) {
	t.Helper()
	r := NewRouter()
	e0 := r.Endpoint(0)
	e1 := r.Endpoint(1)
	f := NewFault(e0, []int{0}, spec, events)
	if err := f.Start(func(src, dst, tag int, data any) {}, nil); err != nil {
		t.Fatal(err)
	}
	var got collector
	if err := e1.Start(got.handler, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(); e1.Close() })
	return f, &got
}

// TestFaultDropDeterministic: the same seed drops the same frames; a
// different seed drops a different set.
func TestFaultDropDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		f, got := faultPair(t, FaultSpec{Seed: seed, Drop: 0.5, KillRank: -1}, nil)
		for i := 0; i < 64; i++ {
			if err := f.Send(0, 1, i, "x"); err != nil {
				t.Fatal(err)
			}
		}
		return got.tags()
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different drop schedule: %v vs %v", a, b)
	}
	if len(a) == 0 || len(a) == 64 {
		t.Errorf("drop=0.5 delivered %d/64 frames", len(a))
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced identical schedules")
	}
}

// TestFaultDup: duplicated frames arrive twice.
func TestFaultDup(t *testing.T) {
	f, got := faultPair(t, FaultSpec{Seed: 3, Dup: 1, KillRank: -1}, nil)
	for i := 0; i < 4; i++ {
		if err := f.Send(0, 1, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{0, 0, 1, 1, 2, 2, 3, 3}; !reflect.DeepEqual(got.tags(), want) {
		t.Errorf("dup=1 delivered %v, want %v", got.tags(), want)
	}
}

// TestFaultKill: the endpoint goes silent after KillAfter frames, in
// both directions, and reports the kill event exactly once.
func TestFaultKill(t *testing.T) {
	var mu sync.Mutex
	kills := 0
	events := func(kind string, peer int) {
		if kind == FaultKill {
			mu.Lock()
			kills++
			mu.Unlock()
		}
	}

	r := NewRouter()
	e0 := r.Endpoint(0)
	e1 := r.Endpoint(1)
	f := NewFault(e0, []int{0}, FaultSpec{KillRank: 0, KillAfter: 3}, events)
	var at0, at1 collector
	if err := f.Start(at0.handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := e1.Start(at1.handler, nil); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer e1.Close()

	// Outbound: frames 1..3 pass, the 4th and later are cut.
	for i := 0; i < 6; i++ {
		if err := f.Send(0, 1, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(at1.tags(), want) {
		t.Errorf("after kill, peer saw %v, want %v", at1.tags(), want)
	}
	// Inbound is cut too (the killed endpoint counts these frames but
	// never delivers them).
	for i := 0; i < 3; i++ {
		if err := e1.Send(1, 0, 100+i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if len(at0.tags()) != 0 {
		t.Errorf("killed endpoint still delivered %v", at0.tags())
	}
	mu.Lock()
	defer mu.Unlock()
	if kills != 1 {
		t.Errorf("kill event fired %d times, want 1", kills)
	}
}

// TestFaultKillCountsApplicationFrames: control frames (negative tags,
// such as heartbeats) pass before the kill and are cut after it, but
// never advance the count, so the kill point does not drift with how
// many heartbeats a run happened to exchange.
func TestFaultKillCountsApplicationFrames(t *testing.T) {
	f, got := faultPair(t, FaultSpec{KillRank: 0, KillAfter: 2}, nil)
	send := func(tag int) {
		if err := f.Send(0, 1, tag, "x"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		send(-3) // heartbeats: delivered, not counted
	}
	send(0)
	send(-3)
	send(1)
	send(2)  // third application frame: the kill engages
	send(-3) // cut like everything else after the kill
	want := []int{-3, -3, -3, -3, -3, 0, -3, 1}
	if !reflect.DeepEqual(got.tags(), want) {
		t.Errorf("delivered %v, want %v", got.tags(), want)
	}
}

// TestFaultKillOtherRank: a kill spec naming a remote rank leaves this
// endpoint untouched (every process shares one spec; only the named
// rank dies).
func TestFaultKillOtherRank(t *testing.T) {
	f, got := faultPair(t, FaultSpec{KillRank: 1, KillAfter: 0}, nil)
	for i := 0; i < 4; i++ {
		if err := f.Send(0, 1, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if len(got.tags()) != 4 {
		t.Errorf("kill of remote rank cut local traffic: delivered %v", got.tags())
	}
}

// TestFaultPartition: frames crossing the cut vanish, frames inside a
// side pass.
func TestFaultPartition(t *testing.T) {
	r := NewRouter()
	e0 := r.Endpoint(0)
	e1 := r.Endpoint(1)
	e2 := r.Endpoint(2)
	spec := FaultSpec{KillRank: -1, PartA: []int{0, 1}, PartB: []int{2}}
	f := NewFault(e0, []int{0}, spec, nil)
	if err := f.Start(func(int, int, int, any) {}, nil); err != nil {
		t.Fatal(err)
	}
	var at1, at2 collector
	if err := e1.Start(at1.handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(at2.handler, nil); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer e1.Close()
	defer e2.Close()

	if err := f.Send(0, 1, 1, "x"); err != nil { // same side: passes
		t.Fatal(err)
	}
	if err := f.Send(0, 2, 2, "x"); err != nil { // crosses: cut
		t.Fatal(err)
	}
	if !reflect.DeepEqual(at1.tags(), []int{1}) {
		t.Errorf("same-side frame lost: %v", at1.tags())
	}
	if len(at2.tags()) != 0 {
		t.Errorf("cross-partition frame delivered: %v", at2.tags())
	}
}

// TestFaultPartitionHeals: with heal=N the partition severs only the
// first N frames; later frames cross the former cut.
func TestFaultPartitionHeals(t *testing.T) {
	spec := FaultSpec{KillRank: -1, PartA: []int{0}, PartB: []int{1}, Heal: 3}
	f, got := faultPair(t, spec, nil)
	for i := 0; i < 6; i++ {
		if err := f.Send(0, 1, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	// Frames 1..3 are cut (counter is 1-based); 4..6 pass, carrying
	// tags 3, 4, 5.
	if want := []int{3, 4, 5}; !reflect.DeepEqual(got.tags(), want) {
		t.Errorf("healed partition delivered %v, want %v", got.tags(), want)
	}
}
