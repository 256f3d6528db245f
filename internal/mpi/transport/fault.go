package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultSpec configures deterministic fault injection on a Transport.
// The zero value injects nothing (Active reports false).  All
// randomness is drawn from a rand.Rand seeded with Seed (plus the
// endpoint's first local rank, so distinct ranks draw distinct but
// reproducible streams): a given spec on a given rank injects the same
// faults on every run.
type FaultSpec struct {
	// Seed selects the pseudo-random stream (default 1).
	Seed int64
	// Drop is the probability in [0,1] that an outbound frame is
	// silently discarded.
	Drop float64
	// Dup is the probability in [0,1] that an outbound frame is
	// delivered twice.
	Dup float64
	// Delay is the maximum extra latency added to an outbound frame;
	// each delayed frame sleeps a uniform duration in [0, Delay).
	Delay time.Duration
	// KillRank, when >= 0, names a rank whose endpoint goes silent —
	// both directions stop, without closing connections — after the
	// endpoint has moved KillAfter application frames (in + out).  This
	// models a wedged or crashed process that the fabric cannot
	// distinguish from a slow one, so only liveness tracking catches it.
	//
	// Application frames are those with a non-negative tag.  The
	// world's own control frames (heartbeats, clock pings, membership
	// notices, all on negative tags) flow on a wall-clock schedule, so
	// they are cut like any other frame but never advance the count:
	// a kill then lands at the same protocol point on every run.
	KillRank int
	// KillAfter is the application-frame count before the kill engages
	// (0 = at once, on the first frame of any kind).
	KillAfter int
	// PartA/PartB, when both non-empty, define a network partition:
	// every frame between a rank in PartA and a rank in PartB is
	// dropped, in both directions.
	PartA, PartB []int
	// Heal, when > 0, heals the partition after the endpoint has moved
	// Heal application frames (in + out): the partition only severs
	// frames while the count is at most Heal.  Models a transient fabric
	// outage that recovery must ride out.
	Heal int
}

// Active reports whether the spec injects any fault at all.
func (s FaultSpec) Active() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Delay > 0 || s.KillRank >= 0 ||
		(len(s.PartA) > 0 && len(s.PartB) > 0)
}

// String renders the spec in ParseFaultSpec syntax.
func (s FaultSpec) String() string {
	var parts []string
	if s.Seed != 0 && s.Seed != 1 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if s.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", s.Drop))
	}
	if s.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", s.Dup))
	}
	if s.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%s", s.Delay))
	}
	if s.KillRank >= 0 {
		parts = append(parts, fmt.Sprintf("kill=%d@%d", s.KillRank, s.KillAfter))
	}
	if len(s.PartA) > 0 && len(s.PartB) > 0 {
		parts = append(parts, fmt.Sprintf("partition=%s|%s", rankList(s.PartA), rankList(s.PartB)))
	}
	if s.Heal > 0 {
		parts = append(parts, fmt.Sprintf("heal=%d", s.Heal))
	}
	return strings.Join(parts, ";")
}

func rankList(rs []int) string {
	ss := make([]string, len(rs))
	for i, r := range rs {
		ss[i] = strconv.Itoa(r)
	}
	return strings.Join(ss, ",")
}

// ParseFaultSpec parses the -fault-spec syntax: semicolon-separated
// key=value clauses.
//
//	seed=N          RNG seed (default 1)
//	drop=P          drop each outbound frame with probability P
//	dup=P           duplicate each outbound frame with probability P
//	delay=D         delay each outbound frame by uniform [0,D) (e.g. 5ms)
//	kill=R@N        rank R's endpoint goes silent after N application frames
//	partition=A|B   drop frames between rank lists A and B (e.g. 0,1|2,3)
//	heal=N          the partition heals after N application frames
//
// An empty string parses to the inactive zero spec.
func ParseFaultSpec(str string) (FaultSpec, error) {
	spec := FaultSpec{Seed: 1, KillRank: -1}
	str = strings.TrimSpace(str)
	if str == "" {
		return spec, nil
	}
	for _, clause := range strings.Split(str, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return spec, fmt.Errorf("transport: fault spec clause %q lacks '='", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			spec.Drop, err = parseProb(val)
		case "dup":
			spec.Dup, err = parseProb(val)
		case "delay":
			spec.Delay, err = time.ParseDuration(val)
			if err == nil && spec.Delay < 0 {
				err = fmt.Errorf("negative delay")
			}
		case "kill":
			rankStr, afterStr, hasAt := strings.Cut(val, "@")
			spec.KillRank, err = strconv.Atoi(rankStr)
			if err == nil && spec.KillRank < 0 {
				err = fmt.Errorf("negative rank")
			}
			if err == nil && hasAt {
				spec.KillAfter, err = strconv.Atoi(afterStr)
			}
		case "partition":
			aStr, bStr, hasBar := strings.Cut(val, "|")
			if !hasBar {
				return spec, fmt.Errorf("transport: partition %q lacks '|'", val)
			}
			if spec.PartA, err = parseRanks(aStr); err == nil {
				spec.PartB, err = parseRanks(bStr)
			}
			// A rank on both sides would partition it from itself —
			// always a typo, so reject it with the offending rank named
			// instead of silently dropping all of its traffic.
			if err == nil {
				for _, r := range spec.PartA {
					if containsRank(spec.PartB, r) {
						err = fmt.Errorf("rank %d on both sides of the partition", r)
						break
					}
				}
			}
		case "heal":
			spec.Heal, err = strconv.Atoi(val)
			if err == nil && spec.Heal < 0 {
				err = fmt.Errorf("negative heal")
			}
		default:
			return spec, fmt.Errorf("transport: unknown fault spec key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("transport: fault spec clause %q: %v", clause, err)
		}
	}
	return spec, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

func parseRanks(s string) ([]int, error) {
	var rs []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if r < 0 {
			return nil, fmt.Errorf("negative rank %d", r)
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("empty rank list")
	}
	sort.Ints(rs)
	return rs, nil
}

// FaultEvent kinds reported to the events hook.
const (
	FaultDrop  = "drop"  // an outbound frame was discarded
	FaultDup   = "dup"   // an outbound frame was sent twice
	FaultDelay = "delay" // an outbound frame was delayed
	FaultKill  = "kill"  // the endpoint went silent (reported once)
	FaultCut   = "cut"   // a frame was dropped by kill or partition
)

// Fault wraps an inner Transport and injects the faults described by a
// FaultSpec.  Drop, dup, and delay apply to outbound frames; kill and
// partition cut traffic in both directions.  Injection decisions are
// deterministic for a given (spec, local ranks) pair.  The optional
// events hook observes each injected fault (kind is one of the Fault*
// constants, peer is the remote rank involved); it must be safe for
// concurrent use.
type Fault struct {
	inner  Transport
	spec   FaultSpec
	local  map[int]bool
	events func(kind string, peer int)

	mu     sync.Mutex
	rng    *rand.Rand
	frames int
	killed bool
}

var _ Transport = (*Fault)(nil)

// NewFault wraps inner for the endpoint owning localRanks.  events may
// be nil.
func NewFault(inner Transport, localRanks []int, spec FaultSpec, events func(kind string, peer int)) *Fault {
	local := make(map[int]bool, len(localRanks))
	for _, r := range localRanks {
		local[r] = true
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	if len(localRanks) > 0 {
		seed = seed*1_000_003 + int64(localRanks[0])
	}
	return &Fault{
		inner:  inner,
		spec:   spec,
		local:  local,
		events: events,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (f *Fault) event(kind string, peer int) {
	if f.events != nil {
		f.events(kind, peer)
	}
}

// cut counts one frame and reports whether kill or partition severs the
// link between the local endpoint and peer.  Control frames (negative
// tags) are subject to the cut but not counted; see FaultSpec.KillRank.
func (f *Fault) cut(localRank, peer, tag int) bool {
	f.mu.Lock()
	if tag >= 0 {
		f.frames++
	}
	frames := f.frames
	justKilled := false
	if !f.killed && f.spec.KillRank >= 0 && f.local[f.spec.KillRank] &&
		(f.spec.KillAfter == 0 || f.frames > f.spec.KillAfter) {
		f.killed = true
		justKilled = true
	}
	killed := f.killed
	f.mu.Unlock()
	if justKilled {
		f.event(FaultKill, f.spec.KillRank)
	}
	if killed {
		return true
	}
	if f.spec.Heal > 0 && frames > f.spec.Heal {
		return false // the partition has healed
	}
	return f.spec.partitioned(localRank, peer)
}

// partitioned reports whether the spec's partition severs a<->b.
func (s FaultSpec) partitioned(a, b int) bool {
	if len(s.PartA) == 0 || len(s.PartB) == 0 {
		return false
	}
	inA := containsRank(s.PartA, a)
	inB := containsRank(s.PartB, a)
	return (inA && containsRank(s.PartB, b)) || (inB && containsRank(s.PartA, b))
}

func containsRank(rs []int, r int) bool {
	i := sort.SearchInts(rs, r)
	return i < len(rs) && rs[i] == r
}

// Start installs a handler that applies inbound cuts before delivery.
func (f *Fault) Start(h Handler, down PeerDown) error {
	return f.inner.Start(func(src, dst, tag int, data any) {
		if f.cut(dst, src, tag) {
			f.event(FaultCut, src)
			return
		}
		h(src, dst, tag, data)
	}, down)
}

// Send applies the outbound fault schedule, then forwards to the inner
// transport.  Cut frames (kill, partition) and dropped frames report
// success to the caller, exactly like a lossy fabric would.
func (f *Fault) Send(src, dst, tag int, data any) error {
	if f.cut(src, dst, tag) {
		f.event(FaultCut, dst)
		return nil
	}
	f.mu.Lock()
	drop := f.spec.Drop > 0 && f.rng.Float64() < f.spec.Drop
	dup := f.spec.Dup > 0 && f.rng.Float64() < f.spec.Dup
	var delay time.Duration
	if f.spec.Delay > 0 {
		delay = time.Duration(f.rng.Int63n(int64(f.spec.Delay)))
	}
	f.mu.Unlock()
	if drop {
		f.event(FaultDrop, dst)
		return nil
	}
	if delay > 0 {
		f.event(FaultDelay, dst)
		time.Sleep(delay)
	}
	if err := f.inner.Send(src, dst, tag, data); err != nil {
		return err
	}
	if dup {
		f.event(FaultDup, dst)
		return f.inner.Send(src, dst, tag, data)
	}
	return nil
}

// multicastOK reports whether the wrapped transport supports the
// multicast contract; the fault wrapper itself adds nothing.
func (f *Fault) multicastOK() bool { return MulticasterFor(f.inner) != nil }

// SendMulti applies the outbound fault schedule to each destination
// individually — cut, drop, dup, and delay are all per-destination
// decisions, drawn in destination order from the same deterministic
// stream Send uses — then forwards the surviving subset in one inner
// multicast when the inner transport is a Multicaster, preserving the
// encode-once path for the destinations the fabric did not fault.
// Duplicated copies go through individual inner Sends.
func (f *Fault) SendMulti(src int, dsts []int, tag int, data any) error {
	var firstErr error
	record := func(dst int, err error) {
		if err != nil && firstErr == nil {
			firstErr = &SendError{Rank: dst, Err: err}
		}
	}
	clean := make([]int, 0, len(dsts))
	for _, dst := range dsts {
		if f.cut(src, dst, tag) {
			f.event(FaultCut, dst)
			continue
		}
		f.mu.Lock()
		drop := f.spec.Drop > 0 && f.rng.Float64() < f.spec.Drop
		dup := f.spec.Dup > 0 && f.rng.Float64() < f.spec.Dup
		var delay time.Duration
		if f.spec.Delay > 0 {
			delay = time.Duration(f.rng.Int63n(int64(f.spec.Delay)))
		}
		f.mu.Unlock()
		if drop {
			f.event(FaultDrop, dst)
			continue
		}
		if delay > 0 {
			f.event(FaultDelay, dst)
			time.Sleep(delay)
		}
		clean = append(clean, dst)
		if dup {
			f.event(FaultDup, dst)
			record(dst, f.inner.Send(src, dst, tag, data))
		}
	}
	if len(clean) == 0 {
		return firstErr
	}
	if mc := MulticasterFor(f.inner); mc != nil {
		if err := mc.SendMulti(src, clean, tag, data); err != nil && firstErr == nil {
			firstErr = err
		}
	} else {
		for _, dst := range clean {
			record(dst, f.inner.Send(src, dst, tag, data))
		}
	}
	return firstErr
}

// Close closes the inner transport.
func (f *Fault) Close() error { return f.inner.Close() }

// ClockOffsets forwards the inner transport's handshake clock samples
// (ClockSampler), so fault injection does not hide clock alignment.
func (f *Fault) ClockOffsets() map[int]int64 { return SampleClockOffsets(f.inner) }
