package mpi

import (
	"sync"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		c := w.Comm(1)
		m := c.Recv(0, 7)
		if m.Data.(string) != "hello" || m.Source != 0 || m.Tag != 7 {
			t.Errorf("got %+v", m)
		}
		close(done)
	}()
	w.Comm(0).Send(1, 7, "hello")
	<-done
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := NewWorld(3)
	c2 := w.Comm(2)
	w.Comm(0).Send(2, 1, "a")
	w.Comm(1).Send(2, 2, "b")
	w.Comm(0).Send(2, 2, "c")
	// Match by tag regardless of arrival order.
	if m := c2.Recv(AnySource, 2); m.Data.(string) != "b" {
		t.Fatalf("tag 2: got %v", m.Data)
	}
	// Match by source.
	if m := c2.Recv(0, AnyTag); m.Data.(string) != "a" {
		t.Fatalf("src 0: got %v", m.Data)
	}
	if m := c2.Recv(AnySource, AnyTag); m.Data.(string) != "c" {
		t.Fatalf("rest: got %v", m.Data)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	w := NewWorld(2)
	for i := 0; i < 100; i++ {
		w.Comm(0).Send(1, 5, i)
	}
	c := w.Comm(1)
	for i := 0; i < 100; i++ {
		if m := c.Recv(0, 5); m.Data.(int) != i {
			t.Fatalf("message %d out of order: got %v", i, m.Data)
		}
	}
}

func TestTryRecvAndProbe(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)
	if _, ok := c.TryRecv(AnySource, AnyTag); ok {
		t.Fatal("TryRecv on empty queue succeeded")
	}
	if c.Probe(AnySource, AnyTag) {
		t.Fatal("Probe on empty queue succeeded")
	}
	w.Comm(0).Send(1, 3, 42)
	if !c.Probe(0, 3) {
		t.Fatal("Probe missed queued message")
	}
	m, ok := c.TryRecv(0, 3)
	if !ok || m.Data.(int) != 42 {
		t.Fatalf("TryRecv: %v %v", m, ok)
	}
	if c.Probe(0, 3) {
		t.Fatal("message not removed by TryRecv")
	}
}

func TestIrecvTestWait(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)
	req := c.Irecv(0, 9)
	if _, done := req.Test(); done {
		t.Fatal("request complete before send")
	}
	w.Comm(0).Send(1, 9, "x")
	// Test may need a moment in concurrent settings, but here the send
	// already completed synchronously.
	if _, done := req.Test(); !done {
		t.Fatal("request not complete after send")
	}
	if m := req.Wait(); m.Data.(string) != "x" {
		t.Fatalf("Wait: %v", m.Data)
	}
	// Wait is idempotent.
	if m := req.Wait(); m.Data.(string) != "x" {
		t.Fatalf("second Wait: %v", m.Data)
	}
}

func TestIrecvWaitBlocks(t *testing.T) {
	w := NewWorld(2)
	req := w.Comm(1).Irecv(0, 1)
	got := make(chan Message, 1)
	go func() { got <- req.Wait() }()
	select {
	case <-got:
		t.Fatal("Wait returned before send")
	case <-time.After(10 * time.Millisecond):
	}
	w.Comm(0).Send(1, 1, 5)
	select {
	case m := <-got:
		if m.Data.(int) != 5 {
			t.Fatalf("got %v", m.Data)
		}
	case <-time.After(time.Second):
		t.Fatal("Wait did not return after send")
	}
}

// coordinateRound is the coordinator's half of the SIP's sync round,
// built on this package's point-to-point messages the way the SIP
// master builds it: every member sends its contribution on tag, and the
// coordinator waits until each live member has reported, then answers
// each live member on tag+1 with the survivors' sum.  Evicting a member
// mid-round wakes the wait (RecvUntil rechecks the eviction stamp), so
// the round completes over the survivors instead of hanging.
func coordinateRound(c *Comm, members []int, tag int) float64 {
	w := c.world
	got := map[int]float64{}
	missing := func() bool {
		for _, r := range members {
			if _, ok := got[r]; !ok && !w.IsEvicted(r) {
				return true
			}
		}
		return false
	}
	for missing() {
		stamp := w.EvictStamp()
		m, ok := c.RecvUntil(AnySource, tag, 0, func() bool { return w.EvictStamp() != stamp })
		if ok {
			got[m.Source] = m.Data.(float64)
		}
	}
	sum := 0.0
	for r, v := range got {
		if !w.IsEvicted(r) {
			sum += v
		}
	}
	for _, r := range members {
		if !w.IsEvicted(r) {
			c.Send(r, tag+1, sum)
		}
	}
	return sum
}

// joinRound is a member's half: report v and wait for the round's sum.
func joinRound(c *Comm, coord, tag int, v float64) float64 {
	c.Send(coord, tag, v)
	return c.Recv(coord, tag+1).Data.(float64)
}

// TestGroupBarrier: no member leaves a round before every member has
// arrived at it.
func TestGroupBarrier(t *testing.T) {
	w := NewWorld(5)
	members := []int{1, 2, 3, 4}
	go coordinateRound(w.Comm(0), members, 10)
	var mu sync.Mutex
	arrived := 0
	var wg sync.WaitGroup
	for _, r := range members {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mu.Lock()
			arrived++
			mu.Unlock()
			joinRound(w.Comm(r), 0, 10, 0)
			mu.Lock()
			if arrived != len(members) {
				t.Errorf("rank %d passed the round with %d arrivals", r, arrived)
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
}

// TestGroupBarrierReusable: back-to-back rounds on the same tags never
// mix one round's reports into the next.
func TestGroupBarrierReusable(t *testing.T) {
	const rounds = 50
	w := NewWorld(3)
	members := []int{1, 2}
	go func() {
		for round := 0; round < rounds; round++ {
			coordinateRound(w.Comm(0), members, 10)
		}
	}()
	var wg sync.WaitGroup
	for _, r := range members {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if s := joinRound(w.Comm(r), 0, 10, float64(round)); s != float64(2*round) {
					t.Errorf("rank %d round %d: sum %g, want %d", r, round, s, 2*round)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestAllreduceSum: every member gets the sum of all contributions, and
// a second round starts clean.
func TestAllreduceSum(t *testing.T) {
	w := NewWorld(4)
	members := []int{1, 2, 3}
	for round, want := range []float64{6, 30} {
		go coordinateRound(w.Comm(0), members, 10)
		results := make(chan float64, len(members))
		for _, r := range members {
			v := float64(r)
			if round == 1 {
				v = 10
			}
			go func(r int, v float64) { results <- joinRound(w.Comm(r), 0, 10, v) }(r, v)
		}
		for range members {
			if s := <-results; s != want {
				t.Fatalf("round %d: sum = %v, want %v", round, s, want)
			}
		}
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	const senders = 8
	const msgs = 200
	w := NewWorld(senders + 1)
	for s := 0; s < senders; s++ {
		go func(rank int) {
			c := w.Comm(rank)
			for i := 0; i < msgs; i++ {
				c.Send(senders, rank, i)
			}
		}(s)
	}
	c := w.Comm(senders)
	counts := make([]int, senders)
	for i := 0; i < senders*msgs; i++ {
		m := c.Recv(AnySource, AnyTag)
		if m.Data.(int) != counts[m.Source] {
			t.Fatalf("sender %d message out of order: got %v want %d", m.Source, m.Data, counts[m.Source])
		}
		counts[m.Source]++
	}
}

// TestPoisonReleasesBlockedMembers: members blocked in a round whose
// last member never arrives are released by the failure of that
// member — they panic with ErrAborted instead of waiting forever — and
// later receives abort at once.
func TestPoisonReleasesBlockedMembers(t *testing.T) {
	w := NewWorld(4)
	go func() {
		defer func() { recover() }()
		coordinateRound(w.Comm(0), []int{1, 2, 3}, 10) // rank 3 never reports
	}()
	aborted := make(chan bool, 2)
	for _, r := range []int{1, 2} {
		go func(r int) {
			defer func() {
				aborted <- recover() == ErrAborted
			}()
			joinRound(w.Comm(r), 0, 10, 1)
		}(r)
	}
	time.Sleep(10 * time.Millisecond)
	w.Fail(3, "never arrived")
	for i := 0; i < 2; i++ {
		select {
		case ok := <-aborted:
			if !ok {
				t.Fatal("blocked member did not panic with ErrAborted")
			}
		case <-time.After(time.Second):
			t.Fatal("failure did not release a blocked member")
		}
	}
	if f := w.Failure(); f == nil || f.Rank != 3 {
		t.Errorf("failure = %v, want rank 3 blamed", f)
	}
	func() {
		defer func() {
			if recover() != ErrAborted {
				t.Error("post-failure receive did not abort")
			}
		}()
		w.Comm(1).Recv(0, 11)
	}()
}

func TestPanics(t *testing.T) {
	w := NewWorld(2)
	for _, fn := range []func(){
		func() { NewWorld(0) },
		func() { w.Comm(5) },
		func() { w.Comm(-1) },
		func() { w.Comm(0).Send(9, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
