// Package sip implements the Super Instruction Processor: the parallel
// virtual machine that executes SIA byte code (paper §V).
//
// A SIP instance is organized as a master, a set of workers, and a set of
// I/O servers (paper §V-B), each played by goroutines communicating
// through the in-process MPI layer:
//
//   - The master assigns pardo iterations to workers in guided chunks
//     whose size decreases as the computation proceeds, and coordinates
//     checkpointing and shutdown.
//   - Each worker interprets the byte code: it manages temp/local/static
//     blocks, fetches distributed blocks asynchronously with get
//     (overlapping communication with computation and prefetching ahead
//     in sequential loops), stores them with put, and talks to the I/O
//     servers for served (disk-backed) arrays.  A service goroutine per
//     worker answers get/put requests against the worker's partition of
//     each distributed array, providing the asynchronous progress a real
//     MPI implementation gets from its progress engine.
//   - Each I/O server holds a write-back LRU cache of served-array
//     blocks, lazily persisting dirty blocks to scratch files.
//
// Rank layout: rank 0 is the master, ranks 1..W are workers, and ranks
// W+1..W+S are I/O servers.
//
// Every run goes through one lifecycle: newRuntime builds the state the
// ranks share and runtime.play runs any subset of them in this process,
// scans their errors and folds their profiles.  Its three entry points
// differ only in the ranks they play: Run plays all of them over a fresh
// in-process world, RunRank plays one rank of a multi-process world, and
// Pool.RunJob plays a job's master and workers over the pool's shared
// world.
package sip

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/segment"
)

// Message tags.
const (
	tagChunkReq  = 1  // worker -> master: request a pardo chunk
	tagChunkRep  = 2  // master -> worker: iteration chunk
	tagService   = 3  // worker -> worker service loop: get/put/shutdown
	tagPutAck    = 4  // home -> origin: put applied
	tagServer    = 5  // worker -> server: request/prepare/flush/shutdown
	tagPrepAck   = 6  // server -> worker: prepare applied
	tagFlushAck  = 7  // server -> worker: all dirty blocks written
	tagDone      = 8  // worker -> master: reached halt
	tagCkpt      = 9  // worker <-> master: checkpoint traffic
	tagGather    = 10 // worker/server -> master: final array gather
	tagSync      = 11 // worker -> master: recovery sync-point report
	tagSyncRep   = 12 // master -> worker: sync-point release / replay order
	tagRepl      = 13 // server -> master: re-replication control traffic
	tagObs       = 14 // worker/server -> master: telemetry reports
	tagJob       = 15 // pool -> rank agents: job start/stop control plane
	tagReplyBase = 1 << 16
)

// jobTagStride is the tag-space stride between concurrent jobs sharing
// one world (sial serve).  Every tag a job's master and workers use is
// offset by job*jobTagStride, so two jobs' chunk replies, acks, and
// reply tags can never collide in a shared mailbox.  Job 0 (the batch
// path) keeps the historical un-strided tags.  The stride leaves room
// for tagReplyBase plus hundreds of thousands of outstanding replies
// per job.
const jobTagStride = 1 << 20

// jobTag offsets a base tag into job's tag space.  I/O servers are
// shared between jobs and listen on the *global* tagServer; their
// replies go back strided so each job's ranks only ever see their own
// traffic.
func jobTag(job, t int) int { return job*jobTagStride + t }

// ChunkGate arbitrates pardo chunk dispatch between concurrent jobs
// (FIFO-with-fairness scheduling in sial serve).  The master calls
// Acquire before answering each chunk request; a gate may block the
// calling job's dispatch while other active jobs are behind on their
// share.  Implementations must be safe for concurrent use by many
// per-job master goroutines.
type ChunkGate interface {
	Acquire(job int)
}

// PresetFunc initializes one block of an array at startup.  coord is the
// block coordinate; lo and hi are the inclusive element bounds per
// dimension.  Returning nil leaves the block unallocated (implicitly
// zero).
type PresetFunc func(coord segment.Coord, lo, hi []int) *block.Block

// IntegralFunc computes an integral block on demand for
// compute_integrals.  arr is the SIAL array name; lo and hi are the
// inclusive element bounds of the block.
type IntegralFunc func(arr string, lo, hi []int) *block.Block

// ExecCtx gives user super instructions access to their execution
// environment.
type ExecCtx struct {
	Worker int // worker index, 0-based
	Layout *bytecode.Layout
}

// SuperFunc is a user-registered computational super instruction invoked
// by the SIAL execute statement.  Blocks are resolved read-write; scalars
// are passed by pointer.
type SuperFunc func(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error

// Config parameterizes a SIP run.
type Config struct {
	// Workers is the number of worker tasks (>= 1).
	Workers int
	// Servers is the number of I/O server tasks; required only when the
	// program uses served arrays.
	Servers int
	// Params supplies values for the program's symbolic constants.
	Params map[string]int
	// Seg selects segment sizes (the key runtime tuning parameter).
	Seg bytecode.SegConfig
	// PrefetchWindow is the number of future do-loop iterations whose
	// get blocks are requested ahead of use.  0 disables prefetching.
	PrefetchWindow int
	// CacheBlocks bounds each worker's remote-block cache (0 = 1024).
	CacheBlocks int
	// ServerCacheBlocks bounds each I/O server's block cache (0 = 1024).
	ServerCacheBlocks int
	// ScratchDir is where served arrays and checkpoints are written.
	// Empty means a fresh temporary directory.
	ScratchDir string
	// Placement chooses the home worker (0-based index) for each block
	// of a distributed array.  Nil selects the default static hash.
	// The paper emphasizes that "the approach to data distribution
	// could be modified and improved at any time without requiring any
	// change in the SIAL programs" (§V-B) — SIAL semantics never depend
	// on placement.
	Placement PlacementFunc
	// Preset initializes distributed and served arrays by name before
	// execution begins.
	Preset map[string]PresetFunc
	// Super registers user super instructions by name.
	Super map[string]SuperFunc
	// Integrals computes blocks for compute_integrals.  Defaults to a
	// deterministic synthetic generator.
	Integrals IntegralFunc
	// Output receives print statements (default os.Stdout).  Prints are
	// executed by worker 1 only.
	Output io.Writer
	// Trace, when non-nil, receives one line per instruction executed
	// by each traced worker: the rank, pc, source line, opcode, and
	// current pardo iteration.  The transparent relationship between
	// SIAL source and execution is a design goal the paper emphasizes
	// (§VI-B).  All workers trace unless TraceRanks narrows the set.
	Trace io.Writer
	// TraceRanks restricts Trace (and nothing else) to these world
	// ranks.  Empty means every worker traces.
	TraceRanks []int
	// Tracer, when non-nil, records per-rank spans (instruction, get,
	// put, wait, chunk, server cache, disk) for Chrome-trace export.
	Tracer *obs.Tracer
	// Metrics, when non-nil, collects named counters/gauges/histograms:
	// per-tag MPI message counts and bytes, mailbox depth high-water
	// marks, worker fetch/prefetch/cache statistics, wait-time
	// histograms, and server cache/disk counters.
	Metrics *obs.Registry
	// GatherArrays collects all distributed and served array contents
	// into the Result after the run (for tests and small problems).
	GatherArrays bool
	// RecvTimeout bounds each blocking receive a worker or the master
	// performs (chunk replies, block replies, acks, checkpoint traffic,
	// gather).  0 disables deadlines (the default, right for in-process
	// runs where no rank can silently vanish).  When a receive times out
	// after all retries, the waiting rank diagnoses the silent peer with
	// an mpi.RankFailure and fails the whole world instead of hanging.
	// It must exceed the longest legitimate quiet stretch (e.g. a server
	// flushing a large cache to disk).
	RecvTimeout time.Duration
	// RecvRetries is the number of extra RecvTimeout-long waits after the
	// first before a receive is declared failed (default 2, so a receive
	// waits 3*RecvTimeout in total).  Negative means no retries.
	RecvRetries int
	// Recover turns a diagnosed worker-rank death into a degraded
	// completion instead of an abort: the dead worker is evicted from
	// the world, the master re-dispatches its unacknowledged pardo
	// iterations to the survivors, replayed side effects are
	// deduplicated at their destinations, and sync points (barriers,
	// collectives, checkpoints) are mediated by the master over the
	// live workers.  Blocks of *distributed* (worker-homed) arrays on
	// the dead worker are lost — recovery is exact for programs that
	// stage mutable state through served arrays and scalars (see
	// docs/FAULTS.md, "Recovery").  Master death remains fatal, and so
	// does I/O-server death unless Replicas > 1.  Off by default: PR 3's
	// fail-fast diagnosis.
	Recover bool
	// Replicas is the number of I/O servers holding each served-array
	// block (default 1: today's single-home placement, byte-identical
	// protocol).  With Replicas > 1 every served block gets a
	// deterministic replica set chosen by rendezvous hashing over the
	// live servers: put/prepare fans out to all replicas (the effect-seq
	// dedup keeps retries idempotent), request reads from the primary
	// with failover to backups, and — combined with Recover — a dead
	// server rank is evicted instead of fatal, with an anti-entropy pass
	// at the next server barrier re-replicating under-replicated blocks.
	// Must not exceed Servers.
	Replicas int
	// ObsShip enables the observability plane for distributed runs
	// (RunRank): every non-master rank periodically — and once more
	// after its run ends, folding in the final metrics — ships its
	// metric snapshot and new trace ring segments to the master on
	// tagObs, where ObsAgg merges them into one cluster view.  No-op
	// for the in-process Run, whose ranks already share one registry
	// and tracer.
	ObsShip bool
	// ObsInterval is the period between telemetry shipments (default
	// 500ms).
	ObsInterval time.Duration
	// ObsAgg is the master-side sink of shipped telemetry (rank 0
	// only).  Required when ObsShip is set on the master.
	ObsAgg *obs.Aggregator
	// FlightDir, when non-empty, enables the flight recorder on the
	// master: whenever a rank is evicted or diagnosed failed, a
	// post-mortem JSON bundle (every reachable rank's last metrics and
	// trace spans, plus the diagnosis) is written there.
	FlightDir string
	// Gate, when non-nil, arbitrates chunk dispatch between concurrent
	// jobs (see ChunkGate).  Nil means unconstrained guided
	// self-scheduling, the batch behavior.
	Gate ChunkGate
	// Cancel, when non-nil, cancels the run cooperatively once it is
	// closed: the master stops dispatching pardo iterations (every chunk
	// request is answered empty and iterations reclaimed from dead
	// workers are dropped), so the program fast-forwards through its
	// remaining phases and the normal shutdown protocol retires the
	// run's tag window, block namespaces, and server-side state exactly
	// as on completion.  The run then reports ErrJobCanceled; any partial
	// results are discarded.  This is the mechanism behind `sial serve`
	// job deadlines and POST /jobs/{id}/cancel.
	Cancel <-chan struct{}
	// CkptInterval enables automatic consistent job snapshots
	// (snapshot.go): the master captures a restartable checkpoint at
	// every sealed sync round and every CkptInterval completed pardo
	// chunks (when the open pardos are pure).  Requires Recover — the
	// snapshot consistency points are the recovery protocol's
	// master-mediated sync rounds.  0 disables checkpointing.
	CkptInterval int
	// CkptKeep is the snapshot retention depth (default 2): older epochs
	// are garbage-collected after each successful snapshot, and a
	// corrupted latest epoch falls back to the one before it on resume.
	CkptKeep int
	// CkptName names the snapshot directory <scratch>/ckpt/<CkptName>.
	// A restarted run resumes only from snapshots written under the same
	// name (default "job"; sial serve uses the stable per-job id).
	CkptName string
	// Resume, with CkptInterval set, loads the newest valid snapshot
	// under CkptName at startup and resumes from it: servers are
	// rehydrated (worker/server counts may differ from the snapshotting
	// run), workers jump to the recorded program counter, and completed
	// pardo iterations are skipped.  Without Resume any existing
	// snapshots under CkptName are cleared first.
	Resume bool
	// Stop, when non-nil and closed, requests a checkpoint-then-stop:
	// the master takes one final snapshot at the next consistency point
	// and then cancels the run (ErrJobCanceled).  This is the drain path
	// of sial serve — the requeued job resumes from that snapshot after
	// restart.  Without checkpointing it behaves exactly like Cancel.
	Stop <-chan struct{}
	// OnSnapshot, when non-nil, is called after every completed snapshot
	// (from the master goroutine; keep it fast).
	OnSnapshot func(SnapshotInfo)
	// OnResume, when non-nil, is called once if the run resumed from a
	// snapshot.
	OnResume func(ResumeInfo)
}

func (c *Config) fill() error {
	if c.Workers < 1 {
		return fmt.Errorf("sip: Workers = %d, need >= 1", c.Workers)
	}
	if c.Servers < 0 {
		return fmt.Errorf("sip: Servers = %d, need >= 0", c.Servers)
	}
	if c.Seg.Default == 0 {
		c.Seg = bytecode.DefaultSegConfig(4)
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 1024
	}
	if c.ServerCacheBlocks == 0 {
		c.ServerCacheBlocks = 1024
	}
	if c.ServerCacheBlocks < 1 {
		// A server must be able to pin at least the block it is working
		// on; smaller values would make insert evict its own entry.
		c.ServerCacheBlocks = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 1 {
		return fmt.Errorf("sip: Replicas = %d, need >= 1", c.Replicas)
	}
	if c.Replicas > 1 && c.Replicas > c.Servers {
		return fmt.Errorf("sip: Replicas = %d exceeds Servers = %d", c.Replicas, c.Servers)
	}
	if c.ObsInterval <= 0 {
		c.ObsInterval = 500 * time.Millisecond
	}
	if c.RecvRetries == 0 {
		c.RecvRetries = 2
	}
	if c.RecvRetries < 0 {
		c.RecvRetries = 0
	}
	if c.Output == nil {
		c.Output = os.Stdout
	}
	if c.Integrals == nil {
		c.Integrals = DefaultIntegrals
	}
	if c.CkptInterval < 0 {
		return fmt.Errorf("sip: CkptInterval = %d, need >= 0", c.CkptInterval)
	}
	if c.CkptInterval > 0 {
		if !c.Recover {
			return fmt.Errorf("sip: CkptInterval requires Recover (snapshots ride the recovery sync protocol)")
		}
		if c.CkptKeep <= 0 {
			c.CkptKeep = 2
		}
		if c.CkptName == "" {
			c.CkptName = "job"
		}
	}
	if c.Resume && c.CkptInterval == 0 {
		return fmt.Errorf("sip: Resume requires CkptInterval > 0")
	}
	return nil
}

// ArrayBlock is one gathered block of a distributed or served array.
type ArrayBlock struct {
	Ord  int // block ordinal within the array shape
	Data []float64
}

// Result reports the outcome of a SIP run.
type Result struct {
	// Scalars holds final scalar values (from worker 1; collectives
	// make them identical across workers).
	Scalars map[string]float64
	// Arrays holds gathered distributed arrays (GatherArrays only).
	Arrays map[string][]ArrayBlock
	// Served holds gathered served arrays (GatherArrays only).
	Served map[string][]ArrayBlock
	// Profile aggregates per-instruction timing and wait statistics.
	Profile *Profile
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// runtime is the state shared (read-only after construction) by all
// ranks of one SIP run.
type runtime struct {
	cfg     Config
	prog    *bytecode.Program
	layout  *bytecode.Layout
	world   *mpi.World
	workers int
	servers int

	// job is this run's identifier inside a shared pool world: zero on
	// the batch path, with the historical un-strided message tags and
	// un-prefixed block keys.  A pool sets a positive job id, which
	// strides every tag the job's master and workers use (see
	// jobTagStride) and prefixes every block key (worker stores, served
	// arrays, effect sequences, replica placement), isolating concurrent
	// jobs end to end.
	job int

	// workerList and serverList map worker/server indexes to world
	// ranks.  On the batch path they are the contiguous 1..W and
	// W+1..W+S layouts; a pool snapshots its (possibly grown) live
	// membership here per job.
	workerList []int
	serverList []int

	workerGroup mpi.Group // workers only: barriers, collectives
	scratch     string

	tracer  *obs.Tracer   // nil when span tracing is disabled
	metrics *obs.Registry // nil when metrics are disabled

	started time.Time // construction time; Result.Elapsed measures from here

	outMu sync.Mutex
}

// tagBase is the first tag of this run's job tag space.
func (rt *runtime) tagBase() int { return rt.job * jobTagStride }

// tag offsets a base message tag into this run's job tag space.
func (rt *runtime) tag(t int) int { return rt.tagBase() + t }

// inPool reports whether this run is a job multiplexed over a shared
// pool world.  Pool ranks are in-process goroutines that never die
// silently — real deaths arrive as explicit World.Evict calls (Pool.Kill,
// liveness) — so silence-based failure diagnosis is disabled: a rank
// that is merely slow (wedged on another job's lost block, parked by the
// fairness gate) must not be evicted from, or fail, the world every
// tenant shares.  Nor may one tenant's failure poison the world or its
// worker group.
func (rt *runtime) inPool() bool { return rt.job != 0 }

// cancelRequested reports whether the run's cancel channel has fired.
// It never blocks; a run without a cancel channel is never canceled.
func (rt *runtime) cancelRequested() bool {
	if rt.cfg.Cancel == nil {
		return false
	}
	select {
	case <-rt.cfg.Cancel:
		return true
	default:
		return false
	}
}

// firstWorker returns the lowest-indexed worker's world rank (the rank
// that executes print statements and reports scalars).
func (rt *runtime) firstWorker() int { return rt.workerList[0] }

// workerIndexOf returns the 0-based worker index of a world rank, or -1.
func (rt *runtime) workerIndexOf(rank int) int {
	for i, r := range rt.workerList {
		if r == rank {
			return i
		}
	}
	return -1
}

// isServerRank reports whether a world rank is one of this job's I/O
// servers.
func (rt *runtime) isServerRank(rank int) bool {
	for _, r := range rt.serverList {
		if r == rank {
			return true
		}
	}
	return false
}

// DefaultIntegrals is the built-in synthetic two-electron integral
// generator: a deterministic, smooth, symmetric function of the global
// element indices with 1/(1+distance) decay, standing in for the real
// integrals the paper computes on demand (§V-B).
func DefaultIntegrals(arr string, lo, hi []int) *block.Block {
	dims := make([]int, len(lo))
	for d := range lo {
		dims[d] = hi[d] - lo[d] + 1
	}
	b := block.New(dims...)
	idx := make([]int, len(dims))
	data := b.Data()
	for off := range data {
		// Decode off into a multi-index (row-major).
		rem := off
		for d := len(dims) - 1; d >= 0; d-- {
			idx[d] = rem%dims[d] + lo[d]
			rem /= dims[d]
		}
		var spread, center float64
		for _, v := range idx {
			center += float64(v)
		}
		center /= float64(len(idx))
		for _, v := range idx {
			dv := float64(v) - center
			spread += dv * dv
		}
		data[off] = 1.0 / (1.0 + spread + 0.1*center)
	}
	return b
}

// PlacementFunc maps (array id, block ordinal, worker count) to the
// 0-based index of the worker that homes the block.
type PlacementFunc func(arr, ord, workers int) int

// HashPlacement is the default static strategy: a multiplicative hash
// spreading blocks without regard to locality, which "works well in
// practice" because access patterns are irregular and communication is
// overlapped anyway (paper §V-B).
func HashPlacement(arr, ord, workers int) int {
	return (arr*2654435761 + ord) % workers
}

// RoundRobinPlacement deals the blocks of each array out cyclically.
func RoundRobinPlacement(arr, ord, workers int) int {
	return ord % workers
}

// BlockedPlacement gives each worker a contiguous range of ordinals per
// array (requires knowing the block count, so it closes over the
// layout; see NewBlockedPlacement).
func NewBlockedPlacement(blocksOf func(arr int) int) PlacementFunc {
	return func(arr, ord, workers int) int {
		n := blocksOf(arr)
		if n <= 0 {
			return 0
		}
		w := ord * workers / n
		if w >= workers {
			w = workers - 1
		}
		return w
	}
}

// workerRanks returns the world ranks of all workers (the batch layout
// 1..W, or the job's membership snapshot in a pool), the member list of
// the worker collective group.
func (rt *runtime) workerRanks() []int {
	return append([]int(nil), rt.workerList...)
}

// criticalRanks returns the ranks whose death recovery cannot survive:
// the master (sole scheduler) and — with Replicas == 1 — the I/O
// servers (then the sole holders of served-array state).  With
// Replicas > 1 every served block lives on several servers, so server
// ranks become evictable like workers.
func (rt *runtime) criticalRanks() []int {
	ranks := []int{0}
	if rt.cfg.Replicas <= 1 {
		ranks = append(ranks, rt.serverList...)
	}
	return ranks
}

// serversEvictable reports whether I/O-server deaths are survivable in
// this run: recovery is on and every served block has backup replicas.
func (rt *runtime) serversEvictable() bool {
	return rt.cfg.Recover && rt.cfg.Replicas > 1
}

// homeWorker returns the world rank of the worker that owns block ord of
// array arr.
func (rt *runtime) homeWorker(arr, ord int) int {
	place := rt.cfg.Placement
	if place == nil {
		place = HashPlacement
	}
	w := place(arr, ord, rt.workers)
	if w < 0 || w >= rt.workers {
		panic(fmt.Sprintf("sip: placement returned worker %d out of range [0,%d)", w, rt.workers))
	}
	return rt.workerList[w]
}

// homeServer returns the world rank of the I/O server that owns block
// ord of served array arr.  The job id is folded into the hash so
// concurrent jobs spread their load differently; job 0 reproduces the
// historical placement exactly.
func (rt *runtime) homeServer(arr, ord int) int {
	if rt.servers == 0 {
		panic(fmt.Sprintf("sip: array %s is served but no I/O servers configured", rt.prog.Arrays[arr].Name))
	}
	return homeServerOf(rt.job, arr, ord, rt.serverList)
}

// Run compiles nothing: it executes an already compiled program under the
// given configuration and returns the result.
func Run(prog *bytecode.Program, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ranks := NewRanks(cfg)
	rt, cleanup, err := newRuntime(prog, cfg, mpi.NewWorld(ranks.N))
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rt.ownWorld()
	return rt.play(rankRange(0, ranks.N)...)
}

// rankRange returns the n consecutive world ranks first, first+1, ...
func rankRange(first, n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = first + i
	}
	return ranks
}

// newRuntime builds the state shared by the ranks of one run of prog
// over world, under an already filled cfg, in the batch layout: rank 0
// is the master, ranks 1..W the workers and W+1..W+S the I/O servers.
// A pool job then sets its job id and membership snapshot; a pool's
// shared servers run against a base runtime with a nil prog.  An empty
// cfg.ScratchDir gets a fresh temporary directory, which the returned
// cleanup removes.
func newRuntime(prog *bytecode.Program, cfg Config, world *mpi.World) (*runtime, func(), error) {
	rt := &runtime{
		cfg:        cfg,
		prog:       prog,
		world:      world,
		workers:    cfg.Workers,
		servers:    cfg.Servers,
		workerList: rankRange(1, cfg.Workers),
		serverList: rankRange(1+cfg.Workers, cfg.Servers),
		scratch:    cfg.ScratchDir,
		tracer:     cfg.Tracer,
		metrics:    cfg.Metrics,
		started:    time.Now(),
	}
	if prog != nil {
		layout, err := prog.Resolve(cfg.Params, cfg.Seg)
		if err != nil {
			return nil, nil, err
		}
		rt.layout = layout
	}
	if rt.scratch != "" {
		return rt, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "sip-scratch-")
	if err != nil {
		return nil, nil, fmt.Errorf("sip: scratch dir: %w", err)
	}
	rt.scratch = dir
	return rt, func() { os.RemoveAll(dir) }, nil
}

// ownWorld applies the run's world-wide settings to a world it owns
// (Run, RunRank): recovery's critical ranks and the MPI traffic
// observer.
func (rt *runtime) ownWorld() {
	if rt.cfg.Recover {
		// Worker ranks become evictable; the master and (unless
		// replicated) the I/O servers stay critical.
		rt.world.SetRecover(rt.criticalRanks()...)
	}
	if rt.metrics != nil {
		rt.world.SetObserver(newMPIStats(rt.metrics, rt.world.Size()))
	}
}

// play runs the given world ranks of the run in this process — the
// master (rank 0) on the calling goroutine, every worker with its
// service loop and every I/O server on goroutines of their own — waits
// for all of them, and folds their outcome into one Result.  It is the
// one lifecycle behind every entry point: Run plays all ranks, a pool
// job its master and workers, a pool's shared servers their ranks for
// the pool's lifetime, and RunRank exactly one rank.
//
// The master's Result carries the run's scalars and gathered arrays;
// without the master, the first played worker's local scalars stand in.
// The Profile merges the played workers and servers.
func (rt *runtime) play(ranks ...int) (*Result, error) {
	var m *master
	var workers []*worker
	var servers []*ioServer
	for _, r := range ranks {
		switch {
		case r == 0:
			m = newMaster(rt)
		case rt.workerIndexOf(r) >= 0:
			workers = append(workers, newWorker(rt, r))
		default:
			servers = append(servers, newIOServer(rt, r))
		}
	}
	if len(workers) > 0 && !rt.inPool() {
		rt.workerGroup = rt.world.Comm(workers[0].rank).GroupOf(rt.workerRanks()...)
	}

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[i] = w.run()
		}()
		go func() {
			defer wg.Done()
			w.serviceLoop()
		}()
	}
	srvErrs := make([]error, len(servers))
	for i, s := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srvErrs[i] = s.run()
		}()
	}
	res, masterErr := &Result{}, error(nil)
	if m != nil {
		res, masterErr = m.run()
	}
	wg.Wait()

	// Prefer a rank's own failure over the secondary "aborted after
	// peer failure" errors the poison fans out to the other ranks.
	// Errors from evicted ranks are not failures of the run: the world
	// deliberately completed degraded without them, and the eviction is
	// already part of the master's diagnosis.
	var abortErr error
	scan := func(rank int, err error) error {
		switch {
		case err == nil:
		case rt.world.IsEvicted(rank):
		case errors.Is(err, mpi.ErrAborted):
			if abortErr == nil {
				abortErr = err
			}
		default:
			return err
		}
		return nil
	}
	for i, err := range errs {
		if err := scan(workers[i].rank, err); err != nil {
			return nil, err
		}
	}
	for i, err := range srvErrs {
		if err := scan(servers[i].rank, err); err != nil {
			return nil, err
		}
	}
	if masterErr != nil {
		return nil, masterErr
	}
	if abortErr != nil {
		return nil, abortErr
	}

	if m == nil && len(workers) > 0 {
		res.Scalars = map[string]float64{}
		for i, s := range rt.prog.Scalars {
			res.Scalars[s.Name] = workers[0].scalars[i]
		}
	}
	// A lone master has no profile of its own, only the run's metrics.
	if len(workers)+len(servers) > 0 || rt.metrics != nil {
		res.Profile = mergeProfiles(workers, servers)
	}
	if rt.metrics != nil {
		foldRunMetrics(rt.metrics, workers, servers)
		res.Profile.Metrics = rt.metrics.Snapshot()
	}
	res.Elapsed = time.Since(rt.started)
	return res, nil
}

// RunSource is a convenience wrapper: parse, check, compile, run.
func RunSource(src string, cfg Config) (*Result, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return Run(prog, cfg)
}
