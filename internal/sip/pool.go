package sip

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Pool is the runtime substrate of `sial serve`: one persistent world of
// master-plane, worker, and I/O-server ranks that executes many compiled
// SIAL programs concurrently instead of being torn down after one run.
//
// Multiplexing works by namespace striding, not by partitioning ranks:
// every admitted job gets a dense id j >= 1, its message tags are offset
// by j*jobTagStride (so concurrent jobs share each rank's mailbox
// without ever matching each other's messages — rank 0 in particular
// runs one master goroutine per job, each receiving on its own tag
// window), and its block keys carry the job id end to end (worker
// partitions, server caches and disk files, effect-dedup ledgers,
// replica placement).  The I/O servers are shared: one server loop per
// server rank serves every job's served arrays, keyed by job, for the
// pool's whole lifetime.
//
// Pool jobs always run with Config.Recover forced on.  Master-mediated
// sync rounds are what make multi-tenancy safe: collective groups would
// be cached per member-set in the world and shared between jobs with
// identical membership, interleaving their barrier rounds.  Recovery
// mode routes every sync through the job's own master on strided tags,
// and also gives the pool its elasticity — worker kills are evictions
// the job replays around, and rank joins only require that later jobs'
// membership snapshots include the newcomer.
type Pool struct {
	cfg   PoolConfig
	world *mpi.World
	// base is the shared servers' runtime; it also holds the pool's
	// filled world-level Config, server ranks and scratch directory.
	base    *runtime
	cleanup func() // removes a scratch directory the pool created

	spareList []int

	srvErr error // the shared servers' outcome, set when they exit
	srvWG  sync.WaitGroup

	supWG sync.WaitGroup

	mu      sync.Mutex
	nextJob int
	workers []int // live worker ranks; grows on Join, shrinks on Kill
	// closed is written under mu but read lock-free by the supervisor's
	// receive-cancel predicate, which runs under rank 0's mailbox lock:
	// taking mu there would deadlock against Kill, which holds mu while
	// World.Evict wakes every mailbox.
	closed atomic.Bool
}

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Workers is the number of initially live worker ranks (>= 1).
	Workers int
	// Servers is the number of shared I/O-server ranks.
	Servers int
	// Spares is the number of latent worker ranks provisioned above the
	// servers; Join activates them one at a time.
	Spares int
	// Replicas is the served-array replication factor applied to every
	// job (see Config.Replicas).
	Replicas int
	// Recover makes worker ranks (and, with Replicas > 1, server ranks)
	// evictable, so Kill degrades jobs instead of failing them.
	Recover bool
	// ScratchDir holds every job's served blocks and checkpoints
	// (job-prefixed).  Empty means a temporary directory owned by the
	// pool and removed on Close.
	ScratchDir string
	// Gate, when non-nil, arbitrates chunk dispatch between concurrent
	// jobs (FIFO-with-fairness; see ChunkGate).
	Gate ChunkGate
	// Output receives job print statements and pool diagnostics
	// (default os.Stdout).
	Output io.Writer
	// Metrics, when non-nil, collects pool-lifetime counters (shared
	// server cache and dedup statistics).  Per-job registries are passed
	// per job via Config.Metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records pool-lifetime spans.
	Tracer *obs.Tracer
	// RecvTimeout/RecvRetries bound job receives (see Config).
	RecvTimeout time.Duration
	RecvRetries int
}

// ErrJobCanceled is returned by Run and RunJob (wrapped) when the job's
// Config.Cancel channel fired: the master abandoned the remaining
// work, fast-forwarded the program through its normal shutdown, and
// released every pool resource the job held.  Partial results are
// discarded.
var ErrJobCanceled = errors.New("sip: job canceled")

// NewPool builds the world, starts the shared I/O servers and the
// rank-0 supervisor, and returns a pool ready to accept jobs.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Spares < 0 {
		return nil, fmt.Errorf("sip: pool Spares = %d, need >= 0", cfg.Spares)
	}
	// The shared servers run against a base runtime with no program of
	// its own: every block they touch carries a tenant's job id, whose
	// registration supplies the layout.  Filling its Config validates the
	// pool's exactly as Run validates a run's.
	base := Config{
		Workers:    cfg.Workers,
		Servers:    cfg.Servers,
		Replicas:   cfg.Replicas,
		Recover:    cfg.Recover,
		ScratchDir: cfg.ScratchDir,
		Output:     cfg.Output,
		Metrics:    cfg.Metrics,
		Tracer:     cfg.Tracer,
	}
	if err := base.fill(); err != nil {
		return nil, err
	}
	world := mpi.NewWorld(1 + base.Workers + base.Servers + cfg.Spares)
	rt, cleanup, err := newRuntime(nil, base, world)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:       cfg,
		world:     world,
		base:      rt,
		cleanup:   cleanup,
		spareList: rankRange(1+base.Workers+base.Servers, cfg.Spares),
		nextJob:   1,
		workers:   rt.workerRanks(),
	}
	if len(p.spareList) > 0 {
		world.SetLatent(p.spareList...)
	}
	// The pool installs no MPI observer: per-job registries stay private
	// to their tenants.
	if cfg.Recover {
		world.SetRecover(rt.criticalRanks()...)
	}
	p.srvWG.Add(1)
	go func() {
		defer p.srvWG.Done()
		_, p.srvErr = rt.play(rt.serverList...)
	}()

	p.supWG.Add(1)
	go p.supervise()
	return p, nil
}

// supervise owns rank 0's job-0 tag window for the pool's lifetime: the
// un-strided tags no tenant master listens on.  Today that is tagDone
// error reports from dying shared servers (and any stray job-0
// telemetry); each is logged so a degraded pool is visible.
func (p *Pool) supervise() {
	defer p.supWG.Done()
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	comm := p.world.Comm(0)
	for !p.closed.Load() {
		m, ok := comm.RecvRangeUntil(mpi.AnySource, 0, jobTagStride-1, 200*time.Millisecond, p.closed.Load)
		if !ok {
			continue
		}
		switch msg := m.Data.(type) {
		case doneMsg:
			if msg.err != "" {
				fmt.Fprintf(p.base.cfg.Output, "[pool] rank %d: %s\n", msg.origin, msg.err)
			}
		case obsReportMsg:
			// In-process pools share registries; stray reports are folded
			// nowhere but must not clog the window.
		}
	}
}

// Workers returns the live worker ranks (a copy).
func (p *Pool) Workers() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := make([]int, 0, len(p.workers))
	for _, r := range p.workers {
		if !p.world.IsEvicted(r) {
			live = append(live, r)
		}
	}
	return live
}

// Servers returns the I/O-server ranks (a copy).
func (p *Pool) Servers() []int { return append([]int(nil), p.base.serverList...) }

// Evicted returns evicted ranks with their eviction reasons (for
// health endpoints).
func (p *Pool) Evicted() map[int]string { return p.world.Evicted() }

// Spares returns the still-latent spare ranks (a copy).
func (p *Pool) Spares() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.spareList...)
}

// Kill evicts a live worker rank, as fault injection or administrative
// drain.  Jobs running over the rank recover (replaying its chunks);
// jobs admitted afterwards exclude it.
func (p *Pool) Kill(rank int, reason string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("sip: pool is closed")
	}
	idx := -1
	for i, r := range p.workers {
		if r == rank {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("sip: rank %d is not a live pool worker", rank)
	}
	if !p.world.Evictable(rank) {
		return fmt.Errorf("sip: rank %d is not evictable (pool not recovering?)", rank)
	}
	p.world.Evict(rank, reason)
	p.workers = append(p.workers[:idx], p.workers[idx+1:]...)
	return nil
}

// Join activates one latent spare rank as a new worker and returns its
// rank.  Running jobs keep their membership snapshot; jobs admitted
// after the join schedule onto the newcomer too.
func (p *Pool) Join() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return 0, fmt.Errorf("sip: pool is closed")
	}
	if len(p.spareList) == 0 {
		return 0, fmt.Errorf("sip: no spare ranks left to join")
	}
	rank := p.spareList[0]
	if !p.world.Join(rank) {
		return 0, fmt.Errorf("sip: rank %d failed to join", rank)
	}
	p.spareList = p.spareList[1:]
	p.workers = append(p.workers, rank)
	return rank, nil
}

// RunJob admits prog as one job and executes it under cfg, blocking
// until it completes.  Safe for concurrent use: each call claims a fresh
// job id and tag window and runs its own master and worker goroutines
// over the shared world.
//
// cfg is the Config Run takes, but the pool owns the world-level fields
// and overwrites them: Workers (the live membership at admission),
// Servers, Recover (always on: pool jobs sync through their master),
// Replicas, ScratchDir, Tracer, Gate, RecvTimeout and RecvRetries.  A nil
// Output falls back to the pool's.
func (p *Pool) RunJob(prog *bytecode.Program, cfg Config) (res *Result, err error) {
	// A poisoned world (a critical rank died and aborted it) unwinds
	// communication on the caller's goroutine as an ErrAborted panic —
	// e.g. out of registerJob's readiness wait.  Surface it as an error:
	// one dead pool must not crash the process hosting it.
	defer func() {
		if r := recover(); r != nil {
			if r != mpi.ErrAborted {
				panic(r)
			}
			err = fmt.Errorf("sip: pool job aborted: %w", mpi.ErrAborted)
			if f := p.world.Failure(); f != nil {
				err = fmt.Errorf("sip: pool job aborted: %w: %w", f, mpi.ErrAborted)
			}
		}
	}()
	return p.runJob(prog, cfg)
}

func (p *Pool) runJob(prog *bytecode.Program, cfg Config) (*Result, error) {
	if prog == nil {
		return nil, fmt.Errorf("sip: job has no program")
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return nil, fmt.Errorf("sip: pool is closed")
	}
	job := p.nextJob
	p.nextJob++
	p.mu.Unlock()
	members := p.Workers()
	if len(members) == 0 {
		return nil, fmt.Errorf("sip: pool has no live workers")
	}

	cfg.Workers, cfg.Servers = len(members), p.cfg.Servers
	cfg.Recover = true // pool jobs always sync through their master
	cfg.Replicas, cfg.ScratchDir = p.cfg.Replicas, p.base.scratch
	cfg.Tracer, cfg.Gate = p.cfg.Tracer, p.cfg.Gate
	cfg.RecvTimeout, cfg.RecvRetries = p.cfg.RecvTimeout, p.cfg.RecvRetries
	if cfg.Output == nil {
		cfg.Output = p.base.cfg.Output
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// The scratch directory is the pool's, so there is nothing to clean.
	rt, _, err := newRuntime(prog, cfg, p.world)
	if err != nil {
		return nil, err
	}
	rt.job, rt.workerList, rt.serverList = job, members, p.base.serverList

	if err := p.registerJob(rt); err != nil {
		return nil, err
	}

	// A gate that tracks job lifecycles (e.g. serve.FairGate) learns the
	// pool-assigned job id here, bracketing the run.
	if lc, ok := p.cfg.Gate.(interface {
		Start(job int)
		Finish(job int)
	}); ok {
		lc.Start(job)
		defer lc.Finish(job)
	}
	return rt.play(append([]int{0}, members...)...)
}

// registerJob announces the job's layout to every live shared server and
// waits for their readiness acks, so the first prepare a worker sends
// can be sized and placed.
func (p *Pool) registerJob(rt *runtime) error {
	comm := p.world.Comm(0)
	want := 0
	for _, srv := range rt.serverList {
		if p.world.IsEvicted(srv) {
			continue
		}
		reg := &srvJob{
			job:      rt.job,
			prog:     rt.prog,
			layout:   rt.layout,
			preset:   rt.cfg.Preset,
			replicas: rt.cfg.Replicas,
			servers:  append([]int(nil), rt.serverList...),
		}
		comm.Send(srv, tagServer, srvRegMsg{j: reg})
		want++
	}
	deadline := time.Now().Add(30 * time.Second)
	for got := 0; got < want; {
		_, ok := comm.RecvRangeUntil(mpi.AnySource, rt.tag(tagJob), rt.tag(tagJob),
			200*time.Millisecond, func() bool { return time.Now().After(deadline) })
		if ok {
			got++
			continue
		}
		// A server evicted mid-registration never acks; recount the
		// live set and keep waiting for the rest.
		live := 0
		for _, srv := range rt.serverList {
			if !p.world.IsEvicted(srv) {
				live++
			}
		}
		if live < want {
			want = live
		}
		if time.Now().After(deadline) && got < want {
			return fmt.Errorf("sip: job %d: servers did not acknowledge registration", rt.job)
		}
	}
	return nil
}

// Close shuts the shared servers down (flushing every tenant's dirty
// blocks), stops the supervisor, and releases the scratch directory if
// the pool owns it.  Jobs must have completed; Close does not wait for
// them.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return nil
	}
	p.closed.Store(true)
	p.mu.Unlock()

	comm := p.world.Comm(0)
	for _, srv := range p.base.serverList {
		if !p.world.IsEvicted(srv) {
			comm.Send(srv, tagServer, shutdownMsg{})
		}
	}
	p.srvWG.Wait()
	p.supWG.Wait()
	p.cleanup()
	// A poisoned world already failed its jobs; Close reports only the
	// servers' own failures.
	if errors.Is(p.srvErr, mpi.ErrAborted) {
		return nil
	}
	return p.srvErr
}
