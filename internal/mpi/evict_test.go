package mpi

import (
	"sync"
	"testing"
	"time"
)

// recoverWorlds builds router-backed distributed worlds with recovery
// enabled (rank 0 critical, like the SIP master).
func recoverWorlds(t *testing.T, n int) []*World {
	t.Helper()
	worlds := routerWorlds(t, n)
	for _, w := range worlds {
		w.SetRecover(0)
	}
	return worlds
}

// TestEvictSendsBecomeNoops: sends to an evicted rank must vanish
// silently instead of aborting the sender's world.
func TestEvictSendsBecomeNoops(t *testing.T) {
	worlds := recoverWorlds(t, 3)
	worlds[0].Evict(2, "test")
	worlds[0].Comm(0).Send(2, 7, "into the void")
	if worlds[0].Aborted() {
		t.Fatal("send to evicted rank aborted the world")
	}
	if !worlds[0].IsEvicted(2) || worlds[0].IsEvicted(1) {
		t.Fatalf("evicted set wrong: %v", worlds[0].Evicted())
	}
}

// TestEvictPropagates: an eviction on one world must reach the other
// live worlds via evictNotice, and the evicted rank's own world must
// fail (it learns the survivors firewalled it).
func TestEvictPropagates(t *testing.T) {
	worlds := recoverWorlds(t, 3)
	worlds[0].Evict(2, "test eviction")
	deadline := time.Now().Add(5 * time.Second)
	for !worlds[1].IsEvicted(2) {
		if time.Now().After(deadline) {
			t.Fatal("eviction never propagated to rank 1's world")
		}
		time.Sleep(time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if f := worlds[2].Failure(); f != nil {
			if f.Rank != 2 {
				t.Fatalf("evicted world blames rank %d, want 2: %v", f.Rank, f)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("evicted rank's own world never failed")
}

// TestEvictWakesRecvUntil: a receiver blocked on a rank that dies must
// wake with ok == false when the rank is evicted, not hang.
func TestEvictWakesRecvUntil(t *testing.T) {
	worlds := recoverWorlds(t, 2)
	done := make(chan bool, 1)
	go func() {
		_, ok := worlds[0].Comm(0).RecvUntil(1, 9, 0,
			func() bool { return worlds[0].IsEvicted(1) })
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	worlds[0].Evict(1, "test")
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RecvUntil returned a message from a dead rank")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvUntil still blocked after eviction")
	}
}

// evictRound runs one round with coordinator rank 0 over members, in
// which the members in absent never report; evict is called once the
// round has blocked on them.  It returns each reporting member's sum.
func evictRound(t *testing.T, comm func(rank int) *Comm, members, absent []int, evict func()) map[int]float64 {
	t.Helper()
	skip := map[int]bool{}
	for _, r := range absent {
		skip[r] = true
	}
	go coordinateRound(comm(0), members, 10)
	var mu sync.Mutex
	sums := map[int]float64{}
	var wg sync.WaitGroup
	for _, r := range members {
		if skip[r] {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := joinRound(comm(r), 0, 10, float64(r))
			mu.Lock()
			sums[r] = s
			mu.Unlock()
		}(r)
	}
	time.Sleep(20 * time.Millisecond) // let the round block on the absent
	evict()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("round still blocked after evicting the missing member")
	}
	return sums
}

// TestEvictCompletesCollective: a round blocked on a member that dies
// mid-round must complete over the survivors with the survivors' sum,
// across distributed worlds.
func TestEvictCompletesCollective(t *testing.T) {
	worlds := recoverWorlds(t, 5)
	comm := func(r int) *Comm { return worlds[r].Comm(r) }
	sums := evictRound(t, comm, []int{1, 2, 3, 4}, []int{4},
		func() { worlds[0].Evict(4, "test") })
	for r, s := range sums {
		if s != 6 { // 1+2+3, rank 4's contribution never existed
			t.Errorf("rank %d: degraded sum = %g, want 6", r, s)
		}
	}
}

// TestEvictCompletesSharedGroup covers the in-process (all-local)
// world: evicting the straggler completes the round.
func TestEvictCompletesSharedGroup(t *testing.T) {
	w := NewWorld(4)
	w.SetRecover(0)
	sums := evictRound(t, w.Comm, []int{1, 2, 3}, []int{3},
		func() { w.Evict(3, "test") })
	for r, s := range sums {
		if s != 3 {
			t.Errorf("rank %d: degraded sum = %g, want 3", r, s)
		}
	}
}

// TestEvictCriticalRankFails: evicting a critical rank must fall back
// to fail-fast, preserving PR 3 semantics for unsurvivable deaths.
func TestEvictCriticalRankFails(t *testing.T) {
	worlds := recoverWorlds(t, 2)
	worlds[1].Evict(0, "master died")
	if !worlds[1].Aborted() {
		t.Fatal("evicting the critical rank did not abort the world")
	}
	f := worlds[1].Failure()
	if f == nil || f.Rank != 0 {
		t.Fatalf("failure = %v, want rank 0", f)
	}
}

// TestEvictedSourceFirewalled: frames from an evicted rank — poison
// included — must never reach the survivors, so a zombie's teardown
// cannot abort the run it was evicted from.
func TestEvictedSourceFirewalled(t *testing.T) {
	worlds := recoverWorlds(t, 3)
	worlds[0].Evict(2, "test")
	worlds[2].Comm(2).Send(0, 7, "zombie data")
	worlds[2].Fail(2, "zombie teardown") // broadcasts poison frames
	time.Sleep(50 * time.Millisecond)
	if worlds[0].Aborted() {
		t.Fatal("zombie poison aborted a survivor")
	}
	if worlds[0].Comm(0).Probe(2, 7) {
		t.Fatal("zombie data frame reached a survivor's mailbox")
	}
}
