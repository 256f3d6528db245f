package sip

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// stallProgram parks one worker at a sync round while the other is
// silent: the super instruction "stall" sleeps on worker index 1 (world
// rank 2) only, so worker rank 1 reaches the sip_barrier round at once
// and waits there on the master.
const stallProgram = `
sial stall_blame
scalar e
execute stall e
sip_barrier
collective e
endsial
`

// TestStallBlamesSilentWorker: when the master's receive deadline
// expires during an open sync round, the suspect is the live worker
// missing from the round, never one already parked at it.  Without
// recovery the run fails naming rank 2; with recovery rank 2 is evicted
// and rank 1 is left alone.
func TestStallBlamesSilentWorker(t *testing.T) {
	stall := func(ctx *ExecCtx, _ []*block.Block, _ []*float64) error {
		if ctx.Worker == 1 {
			time.Sleep(1500 * time.Millisecond)
		}
		return nil
	}
	for _, rec := range []bool{false, true} {
		t.Run(fmt.Sprintf("recover=%v", rec), func(t *testing.T) {
			reg := obs.NewRegistry()
			_, err := RunSource(stallProgram, Config{
				Workers:     2,
				Seg:         bytecode.DefaultSegConfig(2),
				Super:       map[string]SuperFunc{"stall": stall},
				RecvTimeout: 200 * time.Millisecond,
				Recover:     rec,
				Metrics:     reg,
			})
			counters := reg.Snapshot().Counters
			if !rec {
				var rf *mpi.RankFailure
				if !errors.As(err, &rf) {
					t.Fatalf("run error %v carries no RankFailure", err)
				}
				if rf.Rank != 2 {
					t.Fatalf("blamed rank %d, want the silent rank 2: %v", rf.Rank, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovering run failed: %v", err)
			}
			for rank, want := range map[int]int64{1: 0, 2: 1} {
				name := fmt.Sprintf("%s.rank%d", metricFaultRankEvicted, rank)
				if got := counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}
