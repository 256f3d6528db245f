package sip

import (
	"testing"

	"repro/internal/mpi"
)

// replicaRuntime builds a bare runtime for placement tests: replica
// selection depends only on the rank layout and the world's eviction
// state, not on any program.
func replicaRuntime(t *testing.T, workers, servers, replicas int, recover bool) *runtime {
	t.Helper()
	cfg := Config{Workers: workers, Servers: servers, Replicas: replicas, Recover: recover, ScratchDir: t.TempDir()}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	rt, _, err := newRuntime(nil, cfg, mpi.NewWorld(1+workers+servers))
	if err != nil {
		t.Fatal(err)
	}
	if recover {
		rt.world.SetRecover(rt.criticalRanks()...)
	}
	return rt
}

// TestReplicaPlacementDeterministic: the replica set is a pure function
// of (array, ordinal, membership) — every rank must compute the same
// sets from the same view.
func TestReplicaPlacementDeterministic(t *testing.T) {
	servers := []int{3, 4, 5, 6}
	for arr := 0; arr < 4; arr++ {
		for ord := 0; ord < 64; ord++ {
			a := rendezvousReplicas(0, arr, ord, 2, servers, nil)
			b := rendezvousReplicas(0, arr, ord, 2, servers, nil)
			if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
				t.Fatalf("placement of (%d,%d) not deterministic: %v vs %v", arr, ord, a, b)
			}
		}
	}
}

// TestReplicaPlacementNoDuplicates: a replica set never places two
// copies on the same rank, and is exactly min(k, live servers) long.
func TestReplicaPlacementNoDuplicates(t *testing.T) {
	servers := []int{3, 4, 5}
	for k := 1; k <= 4; k++ {
		want := k
		if want > len(servers) {
			want = len(servers)
		}
		for arr := 0; arr < 3; arr++ {
			for ord := 0; ord < 64; ord++ {
				set := rendezvousReplicas(0, arr, ord, k, servers, nil)
				if len(set) != want {
					t.Fatalf("replicas(%d,%d,k=%d) = %v, want %d ranks", arr, ord, k, set, want)
				}
				seen := map[int]bool{}
				for _, r := range set {
					if seen[r] {
						t.Fatalf("replicas(%d,%d,k=%d) = %v places two copies on rank %d", arr, ord, k, set, r)
					}
					seen[r] = true
				}
			}
		}
	}
}

// TestReplicaPlacementMinimalRebalance: killing one server must leave
// the replica sets of blocks that did not use it untouched, and for
// blocks that did, replace only the dead member (surviving members keep
// their relative order, one new member joins).  In particular the new
// primary is always a rank that already held the block — that is what
// makes failover reads and the anti-entropy push correct.
func TestReplicaPlacementMinimalRebalance(t *testing.T) {
	servers := []int{3, 4, 5, 6}
	const k = 2
	for _, victim := range servers {
		dead := func(r int) bool { return r == victim }
		rebalanced := 0
		for arr := 0; arr < 3; arr++ {
			for ord := 0; ord < 64; ord++ {
				before := rendezvousReplicas(0, arr, ord, k, servers, nil)
				after := rendezvousReplicas(0, arr, ord, k, servers, dead)
				held := false
				for _, r := range before {
					if r == victim {
						held = true
					}
				}
				if !held {
					// Untouched set: identical before and after.
					if len(after) != len(before) {
						t.Fatalf("(%d,%d): set %v changed to %v without holding dead rank %d", arr, ord, before, after, victim)
					}
					for i := range before {
						if after[i] != before[i] {
							t.Fatalf("(%d,%d): set %v changed to %v without holding dead rank %d", arr, ord, before, after, victim)
						}
					}
					continue
				}
				rebalanced++
				// Survivors keep their order; exactly one new rank joins.
				var survivors []int
				for _, r := range before {
					if r != victim {
						survivors = append(survivors, r)
					}
				}
				if len(after) != k {
					t.Fatalf("(%d,%d): rebalanced set %v has %d ranks, want %d", arr, ord, after, len(after), k)
				}
				for i, r := range survivors {
					if after[i] != r {
						t.Fatalf("(%d,%d): survivors of %v reordered in %v", arr, ord, before, after)
					}
				}
				// The new primary already held the block.
				holds := false
				for _, r := range before {
					if r == after[0] {
						holds = true
					}
				}
				if !holds {
					t.Fatalf("(%d,%d): new primary %d of %v was not in prior set %v", arr, ord, after[0], after, before)
				}
			}
		}
		if rebalanced == 0 {
			t.Fatalf("no block held rank %d; rebalance untested", victim)
		}
	}
}

// TestReplicaServersSingleIsHomeServer: Replicas == 1 must reproduce the
// legacy placement exactly — same server for every block, no rendezvous
// involved.
func TestReplicaServersSingleIsHomeServer(t *testing.T) {
	rt := replicaRuntime(t, 2, 3, 1, false)
	for arr := 0; arr < 4; arr++ {
		for ord := 0; ord < 64; ord++ {
			got := rt.replicaServers(arr, ord)
			if len(got) != 1 || got[0] != rt.homeServer(arr, ord) {
				t.Fatalf("replicaServers(%d,%d) = %v, want [%d]", arr, ord, got, rt.homeServer(arr, ord))
			}
		}
	}
}

// TestReplicaServersSkipEvicted: an evicted server leaves every replica
// set; the sets shrink to the live servers.
func TestReplicaServersSkipEvicted(t *testing.T) {
	rt := replicaRuntime(t, 2, 3, 2, true)
	victim := 1 + rt.workers + 1 // middle server rank
	rt.world.Evict(victim, "test eviction")
	if !rt.world.IsEvicted(victim) {
		t.Fatal("test server rank was not evictable; criticalRanks is wrong for Replicas > 1")
	}
	for arr := 0; arr < 4; arr++ {
		for ord := 0; ord < 64; ord++ {
			set := rt.replicaServers(arr, ord)
			if len(set) != 2 {
				t.Fatalf("replicaServers(%d,%d) = %v, want 2 live ranks", arr, ord, set)
			}
			for _, r := range set {
				if r == victim {
					t.Fatalf("replicaServers(%d,%d) = %v contains evicted rank %d", arr, ord, set, victim)
				}
			}
		}
	}
}

// TestConfigValidatesReplicas: fill must default Replicas to 1 and
// reject degenerate values.
func TestConfigValidatesReplicas(t *testing.T) {
	cfg := Config{Workers: 1, Servers: 2}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 1 {
		t.Fatalf("fill left Replicas = %d, want default 1", cfg.Replicas)
	}
	bad := Config{Workers: 1, Servers: 1, Replicas: 2}
	if err := bad.fill(); err == nil {
		t.Fatal("fill accepted Replicas = 2 with Servers = 1")
	}
	neg := Config{Workers: 1, Servers: 2, Replicas: -1}
	if err := neg.fill(); err == nil {
		t.Fatal("fill accepted Replicas = -1")
	}
}
