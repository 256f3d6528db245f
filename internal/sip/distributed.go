package sip

import (
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// RunRank plays one world rank of a SIP run in this process: the master
// (rank 0), a worker (1..Workers), or an I/O server.  It is the
// multi-process counterpart of Run — every process builds the same
// program and Config, constructs a distributed world over a shared rank
// layout, and calls RunRank with its own rank.
//
// Only the master's Result carries scalars and gathered arrays; worker
// Results report the worker's local view (scalars and profile), and
// server Results are empty.  A failure anywhere surfaces as an error on
// at least the failing rank and the master.
func RunRank(prog *bytecode.Program, cfg Config, world *mpi.World, rank int) (res *Result, err error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if n := NewRanks(cfg).N; world.Size() != n {
		return nil, fmt.Errorf("sip: world has %d ranks, config needs %d (1 master + %d workers + %d servers)",
			world.Size(), n, cfg.Workers, cfg.Servers)
	}
	if rank < 0 || rank >= world.Size() {
		return nil, fmt.Errorf("sip: rank %d out of range [0,%d)", rank, world.Size())
	}
	rt, cleanup, err := newRuntime(prog, cfg, world)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rt.ownWorld()

	// A dead peer aborts the world; surface that as an error rather
	// than a panic so the process exits cleanly with a diagnosis.
	// When the abort was attributed (liveness timeout, receive deadline,
	// lost connection), name the failed rank and its SIP role.
	defer func() {
		if rank != 0 {
			// The master's own loop records evictions as it folds them
			// into the ledger; other ranks record them here so every
			// process's -metrics snapshot shows the degraded membership.
			observeEvictions(cfg.Metrics, cfg.Tracer, world)
		}
		if r := recover(); r != nil {
			if r == mpi.ErrAborted {
				err = rankAbortError(cfg, world, rank)
				observeFailure(cfg.Metrics, cfg.Tracer, world)
				if rank == 0 {
					if f := world.Failure(); f != nil {
						rt.flightRecord("failed", f.Rank, f.Reason)
					}
				}
				return
			}
			panic(r)
		}
		if err != nil {
			observeFailure(cfg.Metrics, cfg.Tracer, world)
			if rank == 0 {
				if f := world.Failure(); f != nil {
					rt.flightRecord("failed", f.Rank, f.Reason)
				}
			}
		}
	}()

	if rank == 0 && cfg.ObsShip {
		// Refine the handshake clock-offset estimates with a few
		// ping-pong rounds while the run warms up; the aggregator reads
		// the final estimates as reports arrive.
		go world.SyncClocks(4, 25*time.Millisecond)
	}
	// The shipper's deferred finish runs after play folded the
	// end-of-run metrics, so the final report carries them.  (The
	// master ships nothing: startObsShipper returns a no-op for it.)
	defer startObsShipper(rt, rank).finish()
	return rt.play(rank)
}

// rankAbortError names the cause of an aborted rank: the recorded
// RankFailure when detection attributed the abort, or a generic message
// otherwise.
func rankAbortError(cfg Config, world *mpi.World, rank int) error {
	if f := world.Failure(); f != nil {
		// Wraps both the RankFailure (errors.As for programmatic rank
		// extraction) and ErrAborted (errors.Is for abort
		// classification).
		return fmt.Errorf("sip: rank %d: aborted: %w (%s): %w",
			rank, f, NewRanks(cfg).Role(f.Rank), mpi.ErrAborted)
	}
	return fmt.Errorf("sip: rank %d: aborted after peer failure: %w", rank, mpi.ErrAborted)
}

// observeFailure feeds a rank failure into the metrics registry and
// tracer (a fault.rank_failure counter plus an instant span naming the
// failed rank), so detection events appear alongside the run's other
// observability output.
func observeFailure(reg *obs.Registry, tracer *obs.Tracer, world *mpi.World) {
	f := world.Failure()
	if f == nil {
		return
	}
	if reg != nil {
		reg.Counter(metricFaultRankFailure).Inc()
		reg.Counter(fmt.Sprintf("%s.rank%d", metricFaultRankFailure, f.Rank)).Inc()
	}
	if trk := tracer.Track(f.Rank, 2, fmt.Sprintf("rank %d", f.Rank), "fault"); trk != nil {
		trk.Instant(obs.CatFault, "rank_failure",
			obs.AInt("rank", f.Rank), obs.A("reason", f.Reason))
	}
}

// observeEvictions feeds the world's evicted-rank set into the metrics
// registry and tracer (fault.rank_evicted counters plus an instant span
// per rank), mirroring observeFailure for degraded-but-successful runs.
func observeEvictions(reg *obs.Registry, tracer *obs.Tracer, world *mpi.World) {
	for rank, reason := range world.Evicted() {
		if reg != nil {
			reg.Counter(metricFaultRankEvicted).Inc()
			reg.Counter(fmt.Sprintf("%s.rank%d", metricFaultRankEvicted, rank)).Inc()
		}
		if trk := tracer.Track(rank, 2, fmt.Sprintf("rank %d", rank), "fault"); trk != nil {
			trk.Instant(obs.CatFault, "rank_evicted",
				obs.AInt("rank", rank), obs.A("reason", reason))
		}
	}
}

// FaultEvents adapts a metrics registry to the fault-injection
// transport's event hook (transport.NewFault): every injected event is
// counted as fault.<kind> and fault.<kind>.peer<N>.
func FaultEvents(reg *obs.Registry) func(kind string, peer int) {
	if reg == nil {
		return nil
	}
	return func(kind string, peer int) {
		reg.Counter("fault." + kind).Inc()
		reg.Counter(fmt.Sprintf("fault.%s.peer%d", kind, peer)).Inc()
	}
}

// NewNetObserver adapts a metrics registry to the transport's
// connection-level instrumentation: per-peer byte/frame counters plus
// connect, dial-retry, and failure counts (documented in
// docs/OBSERVABILITY.md, reported by `sial run -metrics`).
func NewNetObserver(reg *obs.Registry) transport.Observer {
	return &netObserver{reg: reg}
}

type netObserver struct {
	reg *obs.Registry
}

var _ transport.Observer = (*netObserver)(nil)

func (n *netObserver) peerCounter(kind string, peer int) *obs.Counter {
	return n.reg.Counter(fmt.Sprintf("net.%s.peer%d", kind, peer))
}

func (n *netObserver) OnConnect(peer, attempts int) {
	n.peerCounter("connects", peer).Inc()
	if attempts > 1 {
		n.peerCounter("dial_retries", peer).Add(int64(attempts - 1))
	}
}

func (n *netObserver) OnAccept(peer int) {
	n.peerCounter("accepts", peer).Inc()
}

func (n *netObserver) OnFrameSend(peer, bytes int) {
	n.peerCounter("frames_out", peer).Inc()
	n.peerCounter("bytes_out", peer).Add(int64(bytes))
}

func (n *netObserver) OnFrameRecv(peer, bytes int) {
	n.peerCounter("frames_in", peer).Inc()
	n.peerCounter("bytes_in", peer).Add(int64(bytes))
}

func (n *netObserver) OnPeerDown(peer int, err error) {
	n.peerCounter("peer_down", peer).Inc()
}

// Ranks describes the world layout of a distributed SIP run, mapping
// the SIP roles onto world ranks for launchers.
type Ranks struct {
	N       int // total ranks: 1 + workers + servers
	Workers int
	Servers int
}

// NewRanks builds the rank layout for a Config.
func NewRanks(cfg Config) Ranks {
	return Ranks{N: 1 + cfg.Workers + cfg.Servers, Workers: cfg.Workers, Servers: cfg.Servers}
}

// Role names rank r: "master", "worker<i>", or "server<i>".
func (r Ranks) Role(rank int) string {
	switch {
	case rank == 0:
		return "master"
	case rank <= r.Workers:
		return fmt.Sprintf("worker%d", rank)
	default:
		return fmt.Sprintf("server%d", rank-r.Workers)
	}
}
