package sip

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/wire"
)

// master is the SIP management task (paper §V-B): it allocates pardo
// iterations to workers in guided chunks, coordinates checkpoints, and
// runs the shutdown protocol.
type master struct {
	rt   *runtime
	comm *mpi.Comm

	runs      map[[2]int]*pardoRun // (pardo id, generation) -> scheduler state
	ckptSaves map[int]*ckptCollect
	ckptLoads map[int][]int // array id -> requesting worker ranks

	// Recovery state (Config.Recover).
	syncs     map[int]*syncState // sync round -> progress
	evictSeen map[int]bool       // evictions already folded into the ledger
	doneRanks map[int]bool       // workers that reported done

	// cancelled records that Config.Cancel fired: pardo dispatch is
	// starved from here on and the run ends in ErrJobCanceled.
	cancelled bool

	// Snapshot / resume state (Config.CkptInterval > 0; snapshot.go).
	snap snapState
	// Resume scalar corrections: on the first collective over scalar sc
	// after a resume, injS[sc] (the manifest's true total) minus the
	// resumed workers' bases injB[sc] replaces the contributions of the
	// phase that was not re-executed.  injArmed marks corrections not yet
	// consumed.
	injS     []float64
	injB     []float64
	injArmed []bool
	// resumeBase is the worker state installed on the round-0 release of
	// a resumed run; resumeSkip holds per-(pardo,gen) iterations already
	// completed before the snapshot, filtered out of re-dispatch.
	resumeBase *workerState
	resumeSkip map[[2]int][][]int
	resumed    bool
	// stopNoted records that Config.Stop fired and the final snapshot
	// path is (or has been) taken.
	stopNoted bool

	// Replication state (Config.Replicas > 1).
	replRound  int // anti-entropy pass number (stale-ack filter)
	replHealed int // evicted-server count as of the last completed pass
}

type ckptCollect struct {
	blocks  []ArrayBlock
	origins []int
}

// syncState tracks one master-mediated sync round: which live workers
// have reported (and are parked awaiting release) and their collective
// contributions.  A report implies every put/prepare the worker issued
// this phase is acknowledged, so it doubles as the completion ack for
// all chunks the ledger holds against that worker.
type syncState struct {
	kind     int
	scalar   int // collective target scalar id (-1 otherwise)
	reported map[int]bool
	vals     map[int][]float64
	// states holds each parked worker's captured interpreter state
	// (nil entries when checkpointing is off or a pardo frame was
	// active); the snapshot base is taken from the lowest live rank.
	states map[int]*workerState
}

func newMaster(rt *runtime) *master {
	m := &master{
		rt:        rt,
		comm:      rt.world.Comm(0),
		runs:      map[[2]int]*pardoRun{},
		ckptSaves: map[int]*ckptCollect{},
		ckptLoads: map[int][]int{},
		syncs:     map[int]*syncState{},
		evictSeen: map[int]bool{},
		doneRanks: map[int]bool{},
	}
	m.initSnap()
	return m
}

// pardoRun enumerates the iteration space of one pardo execution lazily
// and tracks guided-scheduling state.
type pardoRun struct {
	rt      *runtime
	info    bytecode.PardoInfo
	vals    []int // odometer (current candidate), empty when exhausted
	los     []int
	his     []int
	started bool
	done    bool

	totalEst   int64 // product of ranges (upper bound; where clauses shrink it)
	issued     int64
	emptyPolls int // workers that have received a final empty chunk

	// Recovery ledger (Config.Recover): iterations handed to each worker
	// and not yet acknowledged by that worker's next sync report, plus
	// iterations reclaimed from dead workers awaiting re-dispatch.
	assigned map[int][][]int
	requeue  [][]int

	// Checkpoint watermarks (Config.CkptInterval > 0).  completed[wr]
	// holds the iterations wr has certainly finished — a worker requests
	// chunk N+1 only after executing all of chunk N, so the assignment
	// ledger at request time is the completed set.  completedDelta[wr] is
	// the in-pardo scalar contribution covering exactly those iterations.
	// skip marks iterations a resumed run must not re-dispatch (already
	// completed before the snapshot); skipIters is the same list in
	// manifest form, carried forward into further snapshots.
	completed      map[int][][]int
	completedDelta map[int][]float64
	skip           map[string]bool
	skipIters      [][]int
}

// installSkip seeds a resumed run with the iterations completed before
// the snapshot: next() filters them out, and further snapshots of this
// run carry them forward in their overlays.
func (r *pardoRun) installSkip(iters [][]int) {
	r.skip = map[string]bool{}
	for _, it := range iters {
		r.skip[fmt.Sprint(it)] = true
	}
	r.skipIters = iters
}

func newPardoRun(rt *runtime, pid int) *pardoRun {
	info := rt.prog.Pardos[pid]
	r := &pardoRun{rt: rt, info: info}
	r.vals = make([]int, len(info.Indices))
	r.los = make([]int, len(info.Indices))
	r.his = make([]int, len(info.Indices))
	r.totalEst = 1
	for i, id := range info.Indices {
		lo, hi := rt.layout.IndexRange(id)
		r.los[i], r.his[i] = lo, hi
		r.vals[i] = lo
		if hi < lo {
			r.done = true
		}
		r.totalEst *= int64(hi - lo + 1)
	}
	return r
}

// passes reports whether the current odometer values satisfy all where
// clauses.
func (r *pardoRun) passes() bool {
	if len(r.info.Where) == 0 {
		return true
	}
	idxVal := func(id int) int {
		for i, iid := range r.info.Indices {
			if iid == id {
				return r.vals[i]
			}
		}
		return 0
	}
	paramVal := func(id int) int { return r.rt.layout.ParamVal(id) }
	for _, wc := range r.info.Where {
		l := wc.L.Eval(idxVal, paramVal)
		rr := wc.R.Eval(idxVal, paramVal)
		if !bytecode.EvalCmp(wc.Cmp, l, rr) {
			return false
		}
	}
	return true
}

// advance moves the odometer to the next raw position; reports false at
// the end of the space.
func (r *pardoRun) advance() bool {
	for i := len(r.vals) - 1; i >= 0; i-- {
		r.vals[i]++
		if r.vals[i] <= r.his[i] {
			return true
		}
		r.vals[i] = r.los[i]
	}
	return false
}

// next returns up to n iterations that satisfy the where clauses.
func (r *pardoRun) next(n int) [][]int {
	var out [][]int
	for !r.done && len(out) < n {
		if r.started {
			if !r.advance() {
				r.done = true
				break
			}
		} else {
			r.started = true
		}
		if r.passes() {
			if r.skip != nil && r.skip[fmt.Sprint(r.vals)] {
				continue // completed before the snapshot this run resumed from
			}
			out = append(out, append([]int(nil), r.vals...))
		}
	}
	r.issued += int64(len(out))
	return out
}

// take returns up to n iterations for worker wr, serving iterations
// reclaimed from dead workers before fresh ones.  Under recovery every
// handout is recorded in the ledger until wr acknowledges it at its
// next sync point; without recovery it is exactly next().
func (r *pardoRun) take(n, wr int, rec bool, redispatched *obs.Counter) [][]int {
	var out [][]int
	if len(r.requeue) > 0 {
		if len(r.requeue) <= n {
			out, r.requeue = r.requeue, nil
		} else {
			out = r.requeue[:n:n]
			r.requeue = r.requeue[n:]
		}
		redispatched.Inc()
	} else {
		out = r.next(n)
	}
	if rec && len(out) > 0 {
		if r.assigned == nil {
			r.assigned = map[int][][]int{}
		}
		r.assigned[wr] = append(r.assigned[wr], out...)
	}
	return out
}

// chunkSize implements guided self-scheduling: chunks shrink as the
// remaining work shrinks ("The chunk size decreases as the computation
// proceeds.  This is similar to ... guided scheduling in OpenMP",
// paper §V-B).
func (r *pardoRun) chunkSize(workers int) int {
	remaining := r.totalEst - r.issued
	if remaining < 1 {
		remaining = 1
	}
	size := remaining / int64(2*workers)
	if size < 1 {
		size = 1
	}
	if size > 4096 {
		size = 4096
	}
	return int(size)
}

// recvAny is the master's main-loop receive.  With Config.RecvTimeout
// set it bounds the wait: when every retry expires without traffic the
// master diagnoses the stall (blaming a rank from suspects, the ranks
// it is still waiting on), fails the world, and returns the failure
// instead of hanging forever on a crashed rank.  Under Config.Recover
// it instead returns ok == false whenever the membership changed (so
// the caller can fold evictions into the ledger and re-check what it
// is waiting for), and a stall blamed on an evictable rank evicts that
// rank rather than failing the world.
func (m *master) recvAny(tag int, what string, suspects func() []int) (msg mpi.Message, ok bool, err error) {
	d := m.rt.cfg.RecvTimeout
	w := m.rt.world
	// Callers pass base tags; receives listen on this job's strided tag
	// space.  The wildcard covers the whole job window — several jobs'
	// masters can share rank 0's mailbox because each window is disjoint
	// (a plain AnyTag receive would steal the other jobs' traffic).
	lo, hi := m.rt.tag(tag), m.rt.tag(tag)
	if tag == mpi.AnyTag {
		lo, hi = m.rt.tagBase(), m.rt.tagBase()+jobTagStride-1
	}
	if m.rt.cfg.Recover {
		stamp := w.EvictStamp()
		// A freshly fired Config.Cancel also interrupts the wait (once:
		// after noteCancel records it, the predicate goes quiet again so
		// the master can keep receiving the fast-forwarding workers).
		cancel := func() bool {
			return w.EvictStamp() != stamp || (!m.cancelled && m.rt.cancelRequested()) ||
				(!m.stopNoted && m.stopSignaled())
		}
		attempts := 1 + m.rt.cfg.RecvRetries
		for i := 0; i < attempts; i++ {
			if msg, ok = m.comm.RecvRangeUntil(mpi.AnySource, lo, hi, d, cancel); ok {
				return msg, true, nil
			}
			if cancel() || d <= 0 {
				return mpi.Message{}, false, nil
			}
		}
		total := time.Duration(attempts) * d
		if m.rt.inPool() {
			// Pool ranks never die silently: real deaths arrive as explicit
			// evictions, which fire the cancel predicate above.  Silence here
			// means a suspect is merely slow — wedged on a dead rank's block
			// (bounded by its own receive deadline, after which it reports
			// done), or parked by the fairness gate — and evicting it would
			// amputate a live rank from every tenant in the pool.  Keep
			// waiting.
			return mpi.Message{}, false, nil
		}
		for _, r := range suspects() {
			if w.Evictable(r) {
				w.Evict(r, fmt.Sprintf("master heard no %s from it within %v", what, total))
				return mpi.Message{}, false, nil
			}
		}
		// Fall through to the fail-fast diagnosis below: the stall is on
		// a critical rank (or nobody), so degraded completion is off the
		// table.
	}
	if d <= 0 {
		return m.comm.RecvRange(mpi.AnySource, lo, hi), true, nil
	}
	attempts := 1 + m.rt.cfg.RecvRetries
	if !m.rt.cfg.Recover { // recover already spent its attempts above
		for i := 0; i < attempts; i++ {
			if msg, ok := m.comm.RecvRangeUntil(mpi.AnySource, lo, hi, d, nil); ok {
				return msg, true, nil
			}
		}
	}
	total := time.Duration(attempts) * d
	waiting := suspects()
	if len(waiting) == 0 {
		return mpi.Message{}, false, fmt.Errorf("sip: master: no %s within %v", what, total)
	}
	rf := &mpi.RankFailure{
		Rank:   waiting[0],
		Reason: fmt.Sprintf("master heard no %s within %v (still waiting on ranks %v)", what, total, waiting),
	}
	m.rt.world.Fail(rf.Rank, rf.Reason)
	return mpi.Message{}, false, rf
}

// relayErr rebuilds a failure reported over the done path.  When the
// reporter attributed it to a specific rank, the returned error wraps a
// reconstructed RankFailure so errors.As works on the master's result
// even if the relay beat the master's own detection.
func (m *master) relayErr(done doneMsg) error {
	if done.failRank < 0 {
		return fmt.Errorf("%s", done.err)
	}
	rf := &mpi.RankFailure{Rank: done.failRank, Reason: done.failReason}
	return fmt.Errorf("sip: master: %w (%s; reported by rank %d)",
		rf, NewRanks(m.rt.cfg).Role(rf.Rank), done.origin)
}

// recordRelay folds one relayed failure into the running diagnosis.
// The first error wins, except that an attributed relay (one carrying a
// RankFailure) replaces an earlier unattributed one: with several ranks
// racing to report, a bystander's generic "group aborted" can reach the
// master before the detecting rank's diagnosis.
func (m *master) recordRelay(cur error, done doneMsg) error {
	if done.err == "" {
		return cur
	}
	relay := m.relayErr(done)
	var rf *mpi.RankFailure
	if cur == nil || (!errors.As(cur, &rf) && errors.As(relay, &rf)) {
		return relay
	}
	return cur
}

// abortDiagnosis converts an ErrAborted panic into an error carrying
// the world's failure diagnosis, when one was recorded.
func (m *master) abortDiagnosis() error {
	if f := m.rt.world.Failure(); f != nil {
		return fmt.Errorf("sip: master: aborted: %w (%s): %w",
			f, NewRanks(m.rt.cfg).Role(f.Rank), mpi.ErrAborted)
	}
	return fmt.Errorf("sip: master: aborted after peer failure: %w", mpi.ErrAborted)
}

// noteCancel folds a fired Config.Cancel into the scheduler state: from
// here on every chunk request is answered empty, and iterations
// reclaimed from dead workers are dropped rather than replayed — the
// job is being abandoned, not completed.  Sync rounds, checkpoints,
// gathers, and the shutdown protocol all proceed normally, so the job's
// tag window and server-side namespace are retired exactly as on a
// normal completion; only the answers are garbage, and the run reports
// ErrJobCanceled instead of a result.
func (m *master) noteCancel(trk *obs.Track) {
	if m.cancelled || !m.rt.cancelRequested() {
		return
	}
	m.cancelled = true
	for _, r := range m.runs {
		r.requeue = nil
		r.assigned = nil
	}
	if trk != nil {
		trk.Instant(obs.CatChunk, "job_canceled", obs.AInt("job", m.rt.job))
	}
}

// run services messages until every worker reports done, then shuts down
// service loops and I/O servers and returns the gathered result.
func (m *master) run() (res *Result, err error) {
	rt := m.rt
	defer func() {
		if r := recover(); r != nil {
			if r == mpi.ErrAborted {
				err = m.abortDiagnosis()
				return
			}
			panic(r)
		}
	}()
	trk := rt.tracer.Track(0, 0, "master", "dispatch")
	chunkCtr := rt.metrics.Counter(metricMasterChunks)
	iterCtr := rt.metrics.Counter(metricMasterIters)
	redispCtr := rt.metrics.Counter(metricMasterRedispatched)
	res = &Result{Arrays: map[string][]ArrayBlock{}, Served: map[string][]ArrayBlock{}}
	if err := m.resumeSetup(trk); err != nil {
		return res, err
	}
	var scalarVals []float64
	scalarOrigin := -1
	var workerErr error
	for m.pendingWorkers() > 0 {
		m.noteCancel(trk)
		m.noteStop(trk)
		if rt.cfg.Recover {
			m.noteEvictions(trk)
			if err := m.completeSyncRounds(redispCtr, trk); err != nil {
				return res, err
			}
			if m.pendingWorkers() == 0 {
				break
			}
		}
		msg, ok, err := m.recvAny(mpi.AnyTag, "worker traffic", func() []int {
			var waiting []int
			for _, wr := range rt.workerList {
				if !m.doneRanks[wr] && !rt.world.IsEvicted(wr) {
					waiting = append(waiting, wr)
				}
			}
			return waiting
		})
		if err != nil {
			return res, err
		}
		if !ok {
			continue // membership changed; re-check the ledger
		}
		switch msg.Tag - rt.tagBase() {
		case tagChunkReq:
			var start time.Time
			if trk != nil {
				start = time.Now()
			}
			req := msg.Data.(chunkMsg)
			if rt.cfg.Recover && rt.world.IsEvicted(req.origin) {
				// A zombie's request racing its own eviction (the frame was
				// mailed before the rank died).  Serving it would assign
				// fresh iterations to the dead rank AFTER noteEvictions
				// swept its ledger entry — stranding them unexecuted and
				// unreplayed, which silently corrupts the collective.
				break
			}
			if m.cancelled {
				// The job is being abandoned: starve the pardo so every
				// worker fast-forwards to the next sync point and, from
				// there, the shutdown protocol.  No gate charge — a
				// canceled job must not brake its live peers.
				m.comm.Send(req.origin, rt.tag(tagChunkRep), chunkReply{})
				break
			}
			// Fairness between concurrent jobs (sial serve): the gate may
			// park this job's dispatch while other active jobs are behind
			// on their share of the pool.
			if rt.cfg.Gate != nil {
				rt.cfg.Gate.Acquire(rt.job)
			}
			key := [2]int{req.pardo, req.gen}
			r, ok := m.runs[key]
			if !ok {
				r = newPardoRun(rt, req.pardo)
				if sk, ok := m.resumeSkip[key]; ok {
					r.installSkip(sk)
					delete(m.resumeSkip, key)
				}
				m.runs[key] = r
			}
			// Fold the requester's progress into the chunk ledger before
			// handing out more work, and possibly take a mid-pardo snapshot
			// at the -ckpt-interval watermark.
			m.notePardoProgress(req, r, trk)
			if m.cancelled {
				// A stop-triggered snapshot just self-canceled the job.
				m.comm.Send(req.origin, rt.tag(tagChunkRep), chunkReply{})
				break
			}
			iters := r.take(r.chunkSize(rt.workers), req.origin, rt.cfg.Recover, redispCtr)
			if len(iters) == 0 {
				r.emptyPolls++
				// Under recovery the run must survive until the next sync
				// round seals the phase: a worker may still die holding
				// iterations that need re-queuing here.
				if r.emptyPolls >= rt.workers && !rt.cfg.Recover {
					delete(m.runs, key) // every worker has drained this run
				}
			}
			m.comm.Send(req.origin, rt.tag(tagChunkRep), chunkReply{iters: iters})
			chunkCtr.Inc()
			iterCtr.Add(int64(len(iters)))
			if trk != nil {
				// Flow-out endpoint: the worker's matching wait_block span
				// records the flow-in half under the same (0, origin,
				// tagChunkRep) id, so the merged trace draws the arrow.
				trk.FlowOut(start, msgFlowID(0, req.origin, rt.tag(tagChunkRep)),
					obs.CatChunk, "dispatch_chunk",
					obs.AInt("pardo", req.pardo), obs.AInt("iters", len(iters)))
			}
		case tagCkpt:
			req := msg.Data.(ckptMsg)
			if err := m.handleCkpt(req); err != nil {
				return res, err
			}
		case tagObs:
			m.handleObsReport(msg.Data.(obsReportMsg))
		case tagSync:
			m.handleSync(msg.Data.(syncMsg))
		case tagGather:
			g := msg.Data.(gatherMsg)
			m.recordGather(res.Arrays, g)
		case tagDone:
			done := msg.Data.(doneMsg)
			if rt.isServerRank(done.origin) {
				if trk != nil {
					trk.Instant(obs.CatChunk, "server_failed", obs.AInt("rank", done.origin))
				}
				// A server reporting failure over the done path.  When its
				// blocks are replicated elsewhere the master evicts it and
				// the run continues degraded; otherwise record the fatal
				// diagnosis (the world abort it triggers unblocks the loop
				// if workers can no longer finish).
				if rt.world.Evictable(done.origin) {
					rt.world.Evict(done.origin, done.err)
					break
				}
				workerErr = m.recordRelay(workerErr, done)
				break
			}
			if rt.world.IsEvicted(done.origin) {
				// A zombie's teardown racing its own eviction: marking it
				// done would cancel the re-queue of its in-flight
				// iterations.
				break
			}
			m.doneRanks[done.origin] = true
			if done.scalars != nil && (scalarOrigin < 0 || done.origin < scalarOrigin) {
				scalarVals = done.scalars
				scalarOrigin = done.origin
			}
			workerErr = m.recordRelay(workerErr, done)
			if trk != nil {
				trk.Instant(obs.CatChunk, "worker_done", obs.AInt("rank", msg.Source))
			}
		}
	}
	// All workers finished: stop service loops, then servers.  A job
	// inside a shared pool (job > 0) narrows the server shutdown to its
	// own blocks — the servers keep running for the other jobs.
	for _, wr := range rt.workerList {
		m.comm.Send(wr, rt.tag(tagService), shutdownMsg{job: rt.job})
	}
	for _, sr := range rt.serverList {
		if !rt.world.IsEvicted(sr) {
			m.comm.Send(sr, tagServer, shutdownMsg{gather: rt.cfg.GatherArrays, job: rt.job})
		}
	}
	if rt.cfg.GatherArrays {
		gathered := map[int]bool{}
		// Wait for live servers only, re-evaluated each iteration: a
		// server evicted mid-gather stops being owed (its blocks arrive
		// from the surviving replicas).
		awaiting := func() []int {
			var waiting []int
			for _, sr := range rt.serverList {
				if !gathered[sr] && !rt.world.IsEvicted(sr) {
					waiting = append(waiting, sr)
				}
			}
			return waiting
		}
		for len(awaiting()) > 0 {
			msg, ok, err := m.recvAny(tagGather, "server gather", awaiting)
			if err != nil {
				return res, err
			}
			if !ok {
				continue // membership changed; re-check who is owed
			}
			g := msg.Data.(gatherMsg)
			gathered[g.origin] = true
			m.recordServedGather(res.Served, g)
		}
	}
	res.Scalars = map[string]float64{}
	for i, s := range rt.prog.Scalars {
		if i < len(scalarVals) {
			res.Scalars[s.Name] = scalarVals[i]
		}
	}
	// Drain the final telemetry reports each live rank ships after its
	// run (and end-of-run metric fold) completed, so the merged trace and
	// metrics cover the whole run.  Pool jobs skip this: telemetry is
	// shipped per rank for the pool's lifetime, not per job, and is
	// drained by the pool's own obs loop on the global tagObs.
	if !rt.inPool() {
		m.collectFinalObs()
	}
	if m.cancelled {
		// The cancel outranks any secondary worker diagnosis: a worker
		// that timed out mid-fast-forward failed *because* the job was
		// abandoned, not the other way around.
		workerErr = fmt.Errorf("sip: job %d: %w", rt.job, ErrJobCanceled)
	}
	m.cleanupSnapshots(workerErr)
	return res, workerErr
}

func (m *master) recordGather(dst map[string][]ArrayBlock, g gatherMsg) {
	for arr, blocks := range g.arrays {
		name := m.rt.prog.Arrays[arr].Name
		dst[name] = append(dst[name], blocks...)
	}
}

// recordServedGather folds one I/O server's shutdown gather.  With
// Replicas > 1 every live replica reports a copy of each block, so only
// the current primary's copy is kept: after an eviction the promoted
// backups may not have been healed yet, but the primary is always a
// prior holder with the authoritative copy.
func (m *master) recordServedGather(dst map[string][]ArrayBlock, g gatherMsg) {
	if m.rt.cfg.Replicas <= 1 {
		m.recordGather(dst, g)
		return
	}
	for arr, blocks := range g.arrays {
		name := m.rt.prog.Arrays[arr].Name
		for _, ab := range blocks {
			if reps := m.rt.replicaServers(arr, ab.Ord); len(reps) > 0 && reps[0] == g.origin {
				dst[name] = append(dst[name], ab)
			}
		}
	}
}

// evictedServers counts I/O-server ranks evicted from the world.
func (m *master) evictedServers() int {
	n := 0
	for _, sr := range m.rt.serverList {
		if m.rt.world.IsEvicted(sr) {
			n++
		}
	}
	return n
}

// pendingWorkers counts workers the master still owes a completion:
// alive and not yet done.  Without recovery no rank is ever evicted, so
// this is exactly the old "all workers reported done" condition.
func (m *master) pendingWorkers() int {
	n := 0
	for _, wr := range m.rt.workerList {
		if !m.doneRanks[wr] && !m.rt.world.IsEvicted(wr) {
			n++
		}
	}
	return n
}

// liveWorkers counts workers not evicted from the world.
func (m *master) liveWorkers() int {
	n := 0
	for _, wr := range m.rt.workerList {
		if !m.rt.world.IsEvicted(wr) {
			n++
		}
	}
	return n
}

// noteEvictions folds newly evicted ranks into the scheduler state.
// For workers: their unacknowledged iterations go back on the
// re-dispatch queue, sync rounds stop waiting for them, and checkpoint
// collections that were only missing their contribution are completed
// against the reduced worker count.  Evicted I/O servers (Replicas > 1)
// only need recording — their blocks heal at the next server barrier's
// anti-entropy pass, and reads fail over to the surviving replicas in
// the meantime.
func (m *master) noteEvictions(trk *obs.Track) {
	evicted := m.rt.world.Evicted()
	ranks := append(append([]int(nil), m.rt.workerList...), m.rt.serverList...)
	for _, rank := range ranks {
		if _, dead := evicted[rank]; !dead || m.evictSeen[rank] {
			continue
		}
		m.evictSeen[rank] = true
		m.rt.metrics.Counter(metricFaultRankEvicted).Inc()
		m.rt.metrics.Counter(fmt.Sprintf("%s.rank%d", metricFaultRankEvicted, rank)).Inc()
		m.rt.flightRecord("evicted", rank, m.rt.world.Evicted()[rank])
		if m.rt.isServerRank(rank) {
			if trk != nil {
				trk.Instant(obs.CatChunk, "server_evicted", obs.AInt("rank", rank))
			}
			continue
		}
		if trk != nil {
			trk.Instant(obs.CatChunk, "worker_evicted", obs.AInt("rank", rank))
		}
		if m.doneRanks[rank] {
			continue // finished before dying: nothing in flight
		}
		// Reclaim every iteration the worker had not acknowledged.  The
		// dead worker's checkpoint watermark is dropped with it: its
		// completed iterations go back on the queue, so counting them in
		// a later snapshot's overlay would double-execute nothing but
		// skip their (now re-queued) scalar contributions.
		for _, r := range m.runs {
			if iters := r.assigned[rank]; len(iters) > 0 {
				r.requeue = append(r.requeue, iters...)
				delete(r.assigned, rank)
			}
			delete(r.completed, rank)
			delete(r.completedDelta, rank)
		}
		// Checkpoint collections no longer wait for the dead worker.
		for arr := range m.ckptSaves {
			m.maybeFinishCkptSave(arr)
		}
		for arr := range m.ckptLoads {
			m.maybeFinishCkptLoad(arr)
		}
	}
}

// handleSync records a worker's arrival at a sync point.  The report
// doubles as the completion ack for everything the ledger holds against
// that worker: by protocol it is sent only after all of the worker's
// put/prepare traffic has been acknowledged.
func (m *master) handleSync(req syncMsg) {
	if m.rt.world.IsEvicted(req.origin) {
		return
	}
	s := m.syncs[req.round]
	if s == nil {
		s = &syncState{
			scalar:   -1,
			reported: map[int]bool{},
			vals:     map[int][]float64{},
			states:   map[int]*workerState{},
		}
		m.syncs[req.round] = s
	}
	s.kind = req.kind
	s.scalar = req.scalar
	s.reported[req.origin] = true
	s.vals[req.origin] = req.vals
	s.states[req.origin] = req.state
	for _, r := range m.runs {
		delete(r.assigned, req.origin)
	}
}

// completeSyncRounds closes any sync round every live worker has
// reached.  If dead workers left re-queued iterations behind, parked
// survivors are first ordered to replay them (and re-report); once the
// queues are dry the master performs the round's coordination — server
// flush for server_barrier, element-wise sum for collectives — releases
// everyone, and seals the phase's pardo runs.
func (m *master) completeSyncRounds(redispCtr *obs.Counter, trk *obs.Track) error {
	rt := m.rt
	if m.cancelled {
		// Iterations reclaimed by evictions after the cancel landed must
		// not be replayed — the job is being abandoned.
		for _, r := range m.runs {
			r.requeue, r.assigned = nil, nil
		}
	}
	for round, s := range m.syncs {
		var parked []int
		complete := true
		for _, wr := range rt.workerList {
			if rt.world.IsEvicted(wr) || m.doneRanks[wr] {
				continue
			}
			if !s.reported[wr] {
				complete = false
				break
			}
			parked = append(parked, wr)
		}
		if !complete || len(parked) == 0 {
			continue
		}
		if m.resumeRequeued(round, s, parked, redispCtr) {
			continue // survivors are replaying; they will re-report
		}
		var vals []float64
		if s.kind == syncCollective {
			// Sum over every report, including workers that reported and
			// then died: their report covered work that is not replayed.
			for _, v := range s.vals {
				for len(vals) < len(v) {
					vals = append(vals, 0)
				}
				for i := range v {
					vals[i] += v[i]
				}
			}
			// Resume correction: the reports' bases came from the snapshot,
			// but the phase before it was not re-executed.  Substitute the
			// manifest's true total for the reported bases, once per scalar.
			if sc := s.scalar; m.snap.enabled && sc >= 0 && sc < len(m.injArmed) &&
				m.injArmed[sc] && len(vals) > 0 {
				vals[0] += m.injS[sc] - float64(len(s.vals))*m.injB[sc]
				m.injArmed[sc] = false
			}
		}
		if s.kind == syncServerBarrier {
			if err := m.flushServers(); err != nil {
				return err
			}
			// Heal replication before releasing anyone: once workers
			// resume, further traffic would race the re-replication
			// pushes.
			if err := m.rereplicateServers(); err != nil {
				return err
			}
		}
		// Sync points are the snapshot consistency points: every live
		// worker is parked, every effect acknowledged, dirty server state
		// flushable on demand.
		if err := m.maybeSyncSnapshot(s, parked, vals, trk); err != nil {
			return err
		}
		for _, wr := range parked {
			rep := syncReply{round: round, vals: vals}
			if round == 0 && m.resumed {
				rep.state = m.resumeBase
			}
			m.comm.Send(wr, rt.tag(tagSyncRep), rep)
		}
		delete(m.syncs, round)
		// Seal the phase: every run's iterations are executed and acked.
		for key := range m.runs {
			delete(m.runs, key)
		}
	}
	return nil
}

// resumeRequeued hands re-queued iterations of one pardo run to the
// parked survivors and reports whether any were dispatched.  Each
// ordered worker replays its share and re-reports the round, so the
// round stays open until every queue is dry.
func (m *master) resumeRequeued(round int, s *syncState, parked []int, redispCtr *obs.Counter) bool {
	for key, r := range m.runs {
		if len(r.requeue) == 0 {
			continue
		}
		n := len(r.requeue)
		per := (n + len(parked) - 1) / len(parked)
		i := 0
		for _, wr := range parked {
			if i >= n {
				break
			}
			hi := i + per
			if hi > n {
				hi = n
			}
			iters := r.requeue[i:hi:hi]
			i = hi
			if r.assigned == nil {
				r.assigned = map[int][][]int{}
			}
			r.assigned[wr] = append(r.assigned[wr], iters...)
			s.reported[wr] = false
			delete(s.vals, wr)
			delete(s.states, wr)
			m.comm.Send(wr, m.rt.tag(tagSyncRep), syncReply{
				round: round, resume: true, pardo: key[0], gen: key[1], iters: iters,
			})
			redispCtr.Inc()
		}
		r.requeue = nil
		return true // one run at a time; the re-reports trigger the next
	}
	return false
}

// flushServers performs the server_barrier flush on the workers'
// behalf: with every live worker parked at the sync round there is no
// competing traffic, so the master simply asks each live server to
// flush and waits for the acks.  Under Replicas == 1 servers are
// critical ranks — a missing ack is a fatal failure, never an eviction.
// With replication a silent evictable server is evicted instead and its
// ack written off: the surviving replicas hold its blocks.
func (m *master) flushServers() error {
	rt := m.rt
	var pending []int
	for _, sr := range rt.serverList {
		if rt.world.IsEvicted(sr) {
			continue
		}
		m.comm.Send(sr, tagServer, flushMsg{origin: 0, job: rt.job})
		pending = append(pending, sr)
	}
	d := rt.cfg.RecvTimeout
	attempts := 1 + rt.cfg.RecvRetries
	for _, sr := range pending {
		for got := false; !got && !rt.world.IsEvicted(sr); {
			if d <= 0 && !m.rt.serversEvictable() {
				m.comm.Recv(sr, rt.tag(tagFlushAck))
				break
			}
			stamp := rt.world.EvictStamp()
			cancel := func() bool { return rt.world.EvictStamp() != stamp }
			if d <= 0 {
				_, got = m.comm.RecvUntil(sr, rt.tag(tagFlushAck), 0, cancel)
				continue
			}
			for i := 0; i < attempts && !got; i++ {
				_, got = m.comm.RecvUntil(sr, rt.tag(tagFlushAck), d, cancel)
				if !got && cancel() {
					break
				}
			}
			if got || cancel() {
				continue
			}
			// True silence from a live server.
			if rt.inPool() {
				// Pool servers never die silently (see recvAny); a slow
				// flush under multi-tenant load is not a death.  Keep
				// waiting — an explicit eviction still cancels the wait.
				continue
			}
			total := time.Duration(attempts) * d
			if rt.world.Evictable(sr) {
				rt.world.Evict(sr, fmt.Sprintf("master heard no flush ack from it within %v", total))
				break
			}
			rf := &mpi.RankFailure{
				Rank:   sr,
				Reason: fmt.Sprintf("no flush ack within %v", total),
			}
			rt.world.Fail(rf.Rank, rf.Reason)
			return rf
		}
	}
	return nil
}

// rereplicateServers runs the anti-entropy pass (Config.Replicas > 1)
// at a server barrier after a server eviction, while every live worker
// is parked: each live server scans the blocks it holds, and pushes the
// ones it is primary for to replicas promoted into the set by the
// eviction.  The master coordinates the pass so it completes before the
// barrier releases — it waits for every server's scan ack plus one ack
// per pushed block, all on tagRepl.  A further eviction mid-pass
// restarts it with a higher round number; stragglers from the
// abandoned round are discarded by their round stamp.
func (m *master) rereplicateServers() error {
	rt := m.rt
	if rt.cfg.Replicas <= 1 || m.evictedServers() == m.replHealed {
		return nil
	}
	roundCtr := rt.metrics.Counter(metricReplRounds)
	pushCtr := rt.metrics.Counter(metricReplPushed)
restart:
	for {
		healedTo := m.evictedServers()
		m.replRound++
		round := m.replRound
		var live []int
		for _, sr := range rt.serverList {
			if !rt.world.IsEvicted(sr) {
				live = append(live, sr)
			}
		}
		if len(live) == 0 {
			// Every server is gone; reads will fail with a cause instead.
			m.replHealed = healedTo
			return nil
		}
		for _, sr := range live {
			m.comm.Send(sr, tagServer, rereplicateMsg{round: round, job: rt.job})
		}
		roundCtr.Inc()
		scanned := map[int]bool{}
		pushes, acks := 0, 0
		for len(scanned) < len(live) || acks < pushes {
			if m.evictedServers() != healedTo {
				continue restart // a pass participant died: rescan
			}
			msg, ok, err := m.recvAny(tagRepl, "re-replication ack", func() []int {
				var waiting []int
				for _, sr := range live {
					if !scanned[sr] && !rt.world.IsEvicted(sr) {
						waiting = append(waiting, sr)
					}
				}
				if len(waiting) == 0 {
					// Scans are in; a push destination owes the ack.
					for _, sr := range live {
						if !rt.world.IsEvicted(sr) {
							waiting = append(waiting, sr)
						}
					}
				}
				return waiting
			})
			if err != nil {
				return err
			}
			if !ok {
				continue restart // membership changed: rescan the new set
			}
			switch a := msg.Data.(type) {
			case rereplicateAck:
				if a.round != round {
					break // straggler from an abandoned pass
				}
				scanned[a.origin] = true
				pushes += a.pushed
			case replAckMsg:
				if a.round == round {
					acks++
				}
			}
		}
		pushCtr.Add(int64(pushes))
		m.replHealed = healedTo
		if m.evictedServers() == healedTo {
			return nil
		}
		// A server died while the pass ran: heal again against the new set.
	}
}

// ckptPath returns the checkpoint file for an array.  Pool jobs prefix
// the file with their job id so two jobs checkpointing same-named
// arrays into the shared scratch never collide.
func (m *master) ckptPath(arr int) string {
	name := fmt.Sprintf("ckpt_%s.ckpt", m.rt.prog.Arrays[arr].Name)
	if m.rt.job != 0 {
		name = fmt.Sprintf("ckpt_j%d_%s.ckpt", m.rt.job, m.rt.prog.Arrays[arr].Name)
	}
	return filepath.Join(m.rt.scratch, name)
}

// handleCkpt advances the blocks_to_list / list_to_blocks protocols.
// Collections complete once every live worker has contributed; under
// recovery noteEvictions re-checks pending collections when the live
// count drops.
func (m *master) handleCkpt(req ckptMsg) error {
	if m.rt.cfg.Recover && m.rt.world.IsEvicted(req.origin) {
		// A zombie's checkpoint traffic racing its own eviction: its
		// contribution must not stand in for a live worker's.
		return nil
	}
	switch req.op {
	case ckptSave:
		col := m.ckptSaves[req.arr]
		if col == nil {
			col = &ckptCollect{}
			m.ckptSaves[req.arr] = col
		}
		col.blocks = append(col.blocks, req.blocks...)
		col.origins = append(col.origins, req.origin)
		m.maybeFinishCkptSave(req.arr)
		return nil
	case ckptLoad:
		m.ckptLoads[req.arr] = append(m.ckptLoads[req.arr], req.origin)
		m.maybeFinishCkptLoad(req.arr)
		return nil
	}
	return fmt.Errorf("sip: master: unknown checkpoint op %d", req.op)
}

// writeCkptFile writes a checkpoint atomically and verifiably: the
// blocks are encoded with the hostile-length-guarded wire codec and
// framed by writeIntegrityFile (magic header + CRC trailer, temp file +
// fsync + rename), so a crash mid-write leaves either the old
// checkpoint or the new one — never a torn file — and bit rot is
// detected at load instead of decoded into garbage.
func writeCkptFile(path string, arr int, blocks []ArrayBlock) error {
	payload := wire.Encode(ckptData{arr: arr, blocks: blocks})
	return writeIntegrityFile(path, ckptFileMagic, payload)
}

func (m *master) maybeFinishCkptSave(arr int) {
	col := m.ckptSaves[arr]
	if col == nil || len(col.origins) < m.liveWorkers() {
		return
	}
	delete(m.ckptSaves, arr)
	ack := ""
	if err := writeCkptFile(m.ckptPath(arr), arr, col.blocks); err != nil {
		ack = err.Error()
	}
	for _, origin := range col.origins {
		m.comm.Send(origin, m.rt.tag(tagCkpt), ack)
	}
}

func (m *master) maybeFinishCkptLoad(arr int) {
	rt := m.rt
	origins := m.ckptLoads[arr]
	if len(origins) < m.liveWorkers() {
		return
	}
	delete(m.ckptLoads, arr)
	var blocks []ArrayBlock
	payload, err := readIntegrityFile(m.ckptPath(arr), ckptFileMagic)
	if err == nil {
		var v any
		if v, err = wire.Decode(payload); err == nil {
			if data, ok := v.(ckptData); ok {
				blocks = data.blocks
			} else {
				err = fmt.Errorf("sip: checkpoint %s holds %T, not blocks", m.ckptPath(arr), v)
			}
		}
	}
	if err != nil {
		for _, origin := range origins {
			m.comm.Send(origin, m.rt.tag(tagCkpt), err.Error())
		}
		return
	}
	// Partition blocks by home worker.
	perWorker := map[int][]ArrayBlock{}
	for _, ab := range blocks {
		home := rt.homeWorker(arr, ab.Ord)
		perWorker[home] = append(perWorker[home], ab)
	}
	for _, origin := range origins {
		m.comm.Send(origin, m.rt.tag(tagCkpt), ckptData{arr: arr, blocks: perWorker[origin]})
	}
}
