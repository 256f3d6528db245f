package sip

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/segment"
)

// frame kinds on the interpreter's control stack.
const (
	frameDo = iota
	frameDoIn
	framePardo
	frameCall
)

// frame is one entry of the interpreter control stack.
type frame struct {
	kind    int
	idx     int // loop index id (do/doIn)
	cur, hi int
	startPC int // pc of the loop-start instruction

	// pardo state
	pid     int
	chunk   [][]int
	pos     int
	exitPC  int
	replay  bool // re-executing a dead worker's iterations (Config.Recover)
	effectN int  // per-iteration put/prepare ordinal for dedup seqs
	// entryScalars is the scalar table at pardo entry (checkpointing
	// only): each chunk request reports scalars-minus-entry, the
	// completed-contribution watermark mid-pardo snapshots fold into
	// the manifest sums (snapshot.go).
	entryScalars []float64

	// call state
	retPC  int
	procID int

	// profiling
	started time.Time
	iters   int64
}

// worker interprets byte code on one rank (paper §V: "Each worker loops
// through the instruction table executing bytecode instructions").
type worker struct {
	rt   *runtime
	comm *mpi.Comm
	rank int

	scalars  []float64
	idxVal   []int
	idxBound []bool
	stack    []float64
	frames   []frame
	pc       int

	temps   map[blockKey]*block.Block
	locals  map[blockKey]*block.Block
	statics map[blockKey]*block.Block
	dist    *store
	cache   *blockCache
	pool    *blockPool

	pendingPutAcks  int
	pendingPrepAcks int
	nextReply       int

	// Recovery state (Config.Recover).  syncRound numbers this worker's
	// master-mediated sync points (all workers pass the same ones in the
	// same order).  pardoPCs records each pardo's start pc so replayed
	// iterations can re-enter the body.  owedPutAcks tracks outstanding
	// put acks per destination so acks owed by a dead home can be
	// forgotten; owedPrepAcks does the same for prepare acks when the
	// servers are evictable (Replicas > 1).  seenPuts/seenPrevPuts are
	// the two live epochs of the put-dedup ledger, shared with the
	// service loop (seenMu) and rotated at each sync release.
	syncRound    int
	pardoPCs     []int
	owedPutAcks  map[int]int
	owedPrepAcks map[int]int
	seenMu       sync.Mutex
	seenPuts     map[uint64]bool
	seenPrevPuts map[uint64]bool
	dropCtr      *obs.Counter
	retireCtr    *obs.Counter
	failoverCtr  *obs.Counter

	// pardoGen counts executions of each pardo so the master can keep
	// scheduling state per execution (a pardo inside a do loop runs many
	// times; all workers execute the surrounding control flow
	// identically, so generations stay in step).
	pardoGen []int

	prof *Profile

	// Observability: trk is the interpreter's span track (nil when
	// tracing is off — every instrumented site nil-checks before
	// building attributes), waitHist the shared wait-time histogram,
	// and traceOn whether this rank emits text trace lines.
	trk      *obs.Track
	waitHist *obs.Histogram
	traceOn  bool
}

func newWorker(rt *runtime, rank int) *worker {
	w := &worker{
		rt:       rt,
		comm:     rt.world.Comm(rank),
		rank:     rank,
		scalars:  make([]float64, len(rt.prog.Scalars)),
		idxVal:   make([]int, len(rt.prog.Indices)),
		idxBound: make([]bool, len(rt.prog.Indices)),
		temps:    map[blockKey]*block.Block{},
		locals:   map[blockKey]*block.Block{},
		statics:  map[blockKey]*block.Block{},
		dist:     newStore(),
		cache:    newBlockCache(rt.cfg.CacheBlocks),
		pool:     newBlockPool(),
		pardoGen: make([]int, len(rt.prog.Pardos)),
		pardoPCs: make([]int, len(rt.prog.Pardos)),
		prof:     newProfile(rt.prog),
	}
	if rt.cfg.Recover {
		w.owedPutAcks = map[int]int{}
		w.seenPuts = map[uint64]bool{}
		w.seenPrevPuts = map[uint64]bool{}
	}
	if rt.serversEvictable() {
		w.owedPrepAcks = map[int]int{}
	}
	w.dropCtr = rt.metrics.Counter(metricDedupDroppedEffects)
	w.retireCtr = rt.metrics.Counter(metricDedupRetired)
	w.failoverCtr = rt.metrics.Counter(metricReplFailovers)
	for i, s := range rt.prog.Scalars {
		w.scalars[i] = s.Init
	}
	w.trk = rt.tracer.Track(rank, 0, fmt.Sprintf("worker %d", rank), "interp")
	w.waitHist = rt.metrics.Histogram(metricWorkerWait)
	w.traceOn = rt.traceRank(rank)
	return w
}

// workerIndex is this worker's 0-based index among workers.
func (w *worker) workerIndex() int { return w.rt.workerIndexOf(w.rank) }

// initPresets populates this worker's partition of distributed arrays
// from Config.Preset.
func (w *worker) initPresets() error {
	for name, fn := range w.rt.cfg.Preset {
		arr := w.rt.prog.ArrayID(name)
		if arr < 0 {
			return fmt.Errorf("sip: preset for unknown array %q", name)
		}
		if w.rt.prog.Arrays[arr].Kind != bytecode.ArrayDistributed {
			continue // served presets are installed by the I/O servers
		}
		shape := w.rt.layout.Shapes[arr]
		var err error
		shape.EachCoord(func(c segment.Coord) {
			ord := shape.Ordinal(c)
			if w.rt.homeWorker(arr, ord) != w.rank || err != nil {
				return
			}
			lo, hi := shape.BlockBounds(c)
			b := fn(c.Clone(), lo, hi)
			if b == nil {
				return
			}
			if !dimsEqual(b.Dims(), shape.BlockDims(c)) {
				err = fmt.Errorf("sip: preset %s%v returned dims %v, want %v", name, c, b.Dims(), shape.BlockDims(c))
				return
			}
			w.dist.put(blockKey{job: w.rt.job, arr: arr, ord: ord}, b, false)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func dimsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// run executes the program to completion.  On any failure it poisons the
// worker group (so peers blocked in collectives abort instead of
// hanging) and still reports done to the master, which keeps the
// shutdown protocol deadlock-free.
func (w *worker) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == mpi.ErrAborted {
				err = fmt.Errorf("sip: worker %d: aborted after peer failure: %w", w.rank, mpi.ErrAborted)
				if f := w.rt.world.Failure(); f != nil {
					err = fmt.Errorf("sip: worker %d: aborted: %w: %w", w.rank, f, mpi.ErrAborted)
				}
			} else {
				err = fmt.Errorf("sip: worker %d: panic: %v", w.rank, r)
			}
		}
		if err != nil && w.rt.world.IsEvicted(w.rank) {
			// This rank was deliberately evicted (pool Kill, liveness
			// diagnosis); its unwinding is part of the recovery, not a
			// failure to report.  The master already tracks the eviction,
			// and a done report would wrongly mark the rank finished —
			// suppressing the re-queue of its in-flight iterations.
			return
		}
		if err != nil {
			// A diagnosed rank failure (receive deadline naming a silent
			// peer) fails the whole world so every rank learns the cause;
			// ordinary errors only poison the worker group.  The done
			// report carries the diagnosis structurally (failRank) so the
			// master can rebuild the RankFailure even when the relay wins
			// the race against its own detection.
			d := doneMsg{origin: w.rank, err: err.Error(), failRank: -1}
			var rf *mpi.RankFailure
			if errors.As(err, &rf) {
				// In a pool the diagnosis stays in the done report: failing
				// the shared world would abort every tenant, and the blamed
				// rank — typically one already evicted by Pool.Kill, whose
				// distributed blocks died with it — is the pool's business,
				// not this job's.
				if !errors.Is(err, mpi.ErrAborted) && !w.rt.inPool() {
					w.rt.world.Fail(rf.Rank, rf.Reason)
				}
				d.failRank, d.failReason = rf.Rank, rf.Reason
			}
			// Pool jobs (job > 0) share the world with other tenants: a
			// failed job must not poison the pool's worker group.  Its
			// own syncs are master-mediated (pool jobs always run with
			// Recover), so the done report is enough to unwind it.
			if !w.rt.inPool() {
				w.rt.workerGroup.Poison()
			}
			w.comm.Send(0, w.rt.tag(tagDone), d)
		}
	}()
	if err := w.initPresets(); err != nil {
		return err
	}
	// All homes are initialized before anyone can fetch.  The round-0
	// release may carry a resume base (Config.Resume): installState then
	// jumps this worker to the snapshot's program point before the
	// interpreter loop starts.
	if w.rt.cfg.Recover {
		if _, err := w.masterSync(syncBarrier, -1, false, nil); err != nil {
			return err
		}
	} else {
		w.rt.workerGroup.Barrier()
	}

	code := w.rt.prog.Code
	for {
		in := &code[w.pc]
		switch in.Op {
		case bytecode.OpHalt:
			if w.traceOn {
				w.trace(in)
			}
			return w.shutdown()
		default:
			if err := w.exec(in); err != nil {
				return fmt.Errorf("sip: worker %d: pc %d line %d (%s): %w",
					w.rank, w.pc, in.Line, in.Op, err)
			}
		}
	}
}

// shutdown runs the end-of-program protocol.  Service loops stay alive
// until the master has heard from every worker, so late get/put requests
// from stragglers are still answered; the master shuts them down.
func (w *worker) shutdown() error {
	if w.rt.cfg.Recover {
		// The final sync round: any iterations a freshly dead worker
		// still held are replayed here before anyone reports done.
		if _, err := w.masterSync(syncBarrier, -1, false, nil); err != nil {
			return err
		}
	} else {
		if err := w.drainPutAcks(); err != nil {
			return err
		}
		if err := w.drainPrepAcks(); err != nil {
			return err
		}
		w.rt.workerGroup.Barrier()
	}
	if w.rt.cfg.GatherArrays {
		arrays := map[int][]ArrayBlock{}
		w.dist.each(func(k blockKey, b *block.Block) {
			arrays[k.arr] = append(arrays[k.arr], ArrayBlock{Ord: k.ord, Data: append([]float64(nil), b.Data()...)})
		})
		w.comm.Send(0, w.rt.tag(tagGather), gatherMsg{origin: w.rank, arrays: arrays})
	}
	done := doneMsg{origin: w.rank, failRank: -1}
	if w.rank == w.rt.firstWorker() || w.rt.cfg.Recover {
		// Collectives make scalars identical across workers; rank 1
		// reports them so the master never shares memory with a worker.
		// Under recovery every worker reports (rank 1 may be the dead
		// one) and the master keeps the lowest-ranked survivor's values.
		done.scalars = append([]float64(nil), w.scalars...)
	}
	w.comm.Send(0, w.rt.tag(tagDone), done)
	return nil
}

// exec dispatches one instruction.  On return the pc has been advanced.
func (w *worker) exec(in *bytecode.Instr) error {
	if w.traceOn {
		w.trace(in)
	}
	start := time.Now()
	next := w.pc + 1
	switch in.Op {
	case bytecode.OpNop:

	// --- scalar stack ---
	case bytecode.OpPushLit:
		w.push(in.F)
	case bytecode.OpPushScalar:
		w.push(w.scalars[in.A])
	case bytecode.OpPushParam:
		w.push(float64(w.rt.layout.ParamVal(in.A)))
	case bytecode.OpPushIndex:
		if !w.idxBound[in.A] {
			return fmt.Errorf("index %s has no value", w.rt.prog.Indices[in.A].Name)
		}
		w.push(float64(w.idxVal[in.A]))
	case bytecode.OpAdd:
		r, l := w.pop(), w.pop()
		w.push(l + r)
	case bytecode.OpSub:
		r, l := w.pop(), w.pop()
		w.push(l - r)
	case bytecode.OpMul:
		r, l := w.pop(), w.pop()
		w.push(l * r)
	case bytecode.OpDiv:
		r, l := w.pop(), w.pop()
		w.push(l / r)
	case bytecode.OpCmp:
		r, l := w.pop(), w.pop()
		if bytecode.EvalCmp(in.A, l, r) {
			w.push(1)
		} else {
			w.push(0)
		}
	case bytecode.OpStoreScalar:
		v := w.pop()
		switch in.B {
		case bytecode.AssignSet:
			w.scalars[in.A] = v
		case bytecode.AssignAdd:
			w.scalars[in.A] += v
		case bytecode.AssignSub:
			w.scalars[in.A] -= v
		case bytecode.AssignMul:
			w.scalars[in.A] *= v
		}
	case bytecode.OpDot:
		a, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := w.readBlock(in.R[2])
		if err != nil {
			return err
		}
		w.push(block.Dot(a, b))

	// --- control flow ---
	case bytecode.OpJump:
		next = in.A
	case bytecode.OpJumpIfFalse:
		if w.pop() == 0 {
			next = in.A
		}
	case bytecode.OpDoStart:
		lo, hi := w.rt.layout.IndexRange(in.A)
		if lo > hi {
			next = in.C
			break
		}
		w.frames = append(w.frames, frame{kind: frameDo, idx: in.A, cur: lo, hi: hi, startPC: w.pc})
		w.bind(in.A, lo)
	case bytecode.OpDoEnd:
		f := &w.frames[len(w.frames)-1]
		f.cur++
		if f.cur <= f.hi {
			w.bind(f.idx, f.cur)
			next = f.startPC + 1
		} else {
			w.unbind(f.idx)
			w.frames = w.frames[:len(w.frames)-1]
		}
	case bytecode.OpDoInStart:
		sub := w.rt.layout.Indices[in.A]
		super := w.rt.layout.Indices[in.B]
		if !w.idxBound[in.B] {
			return fmt.Errorf("do %s in %s: super index unbound", sub.Name, super.Name)
		}
		lo, hi := super.SubSegments(sub, w.idxVal[in.B])
		if lo > hi {
			next = in.C
			break
		}
		w.frames = append(w.frames, frame{kind: frameDoIn, idx: in.A, cur: lo, hi: hi, startPC: w.pc})
		w.bind(in.A, lo)
	case bytecode.OpDoInEnd:
		f := &w.frames[len(w.frames)-1]
		f.cur++
		if f.cur <= f.hi {
			w.bind(f.idx, f.cur)
			next = f.startPC + 1
		} else {
			w.unbind(f.idx)
			w.frames = w.frames[:len(w.frames)-1]
		}
	case bytecode.OpPardoStart:
		w.pardoPCs[in.A] = w.pc // all workers pass here; replay re-enters at pc+1
		gen := w.pardoGen[in.A]
		w.pardoGen[in.A]++
		f := frame{kind: framePardo, pid: in.A, cur: gen, startPC: w.pc, exitPC: in.C, started: time.Now()}
		if w.rt.cfg.CkptInterval > 0 {
			f.entryScalars = append([]float64(nil), w.scalars...)
		}
		chunk, err := w.fetchChunk(in.A, gen, f.entryScalars)
		if err != nil {
			return err
		}
		if len(chunk) == 0 {
			w.prof.pardoDone(in.A, time.Since(f.started), 0)
			next = in.C
			break
		}
		f.chunk = chunk
		w.frames = append(w.frames, f)
		w.setIteration(in.A, chunk[0])
	case bytecode.OpPardoEnd:
		f := &w.frames[len(w.frames)-1]
		w.clearTemps()
		f.pos++
		f.iters++
		f.effectN = 0
		if f.pos >= len(f.chunk) {
			if f.replay {
				f.chunk = nil // replay runs exactly the ordered iterations
			} else {
				chunk, err := w.fetchChunk(f.pid, f.cur, f.entryScalars)
				if err != nil {
					return err
				}
				f.chunk = chunk
			}
			f.pos = 0
		}
		if len(f.chunk) > 0 {
			w.setIteration(f.pid, f.chunk[f.pos])
			next = f.startPC + 1
		} else {
			for _, id := range w.rt.prog.Pardos[f.pid].Indices {
				w.unbind(id)
			}
			w.prof.pardoDone(f.pid, time.Since(f.started), f.iters)
			next = f.exitPC
			w.frames = w.frames[:len(w.frames)-1]
		}
	case bytecode.OpCall:
		w.frames = append(w.frames, frame{kind: frameCall, retPC: w.pc + 1,
			procID: in.A, started: time.Now()})
		next = w.rt.prog.Procs[in.A].Entry
	case bytecode.OpReturn:
		f := w.frames[len(w.frames)-1]
		if f.kind != frameCall {
			return fmt.Errorf("return outside procedure")
		}
		w.prof.procDone(f.procID, time.Since(f.started))
		w.frames = w.frames[:len(w.frames)-1]
		next = f.retPC

	// --- block super instructions ---
	case bytecode.OpBlockFill:
		v := w.pop()
		loc, err := w.locate(in.R[0])
		if err != nil {
			return err
		}
		var dims []int
		if loc.region {
			dims = loc.rext
		} else {
			dims = loc.dims
		}
		b := w.newBlock(w.rt.prog.Arrays[in.R[0].Arr].Kind, dims)
		b.Fill(v)
		if err := w.storeDst(in.R[0], loc, b, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockCopy:
		src, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		loc, err := w.locate(in.R[0])
		if err != nil {
			return err
		}
		var val *block.Block
		if in.A == bytecode.CopyPermute && !block.IdentityPerm(in.Aux) {
			val = src.Permute(in.Aux)
		} else {
			val = src.Clone()
		}
		if err := w.storeDst(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockScale:
		v := w.pop()
		src, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		val := src.Clone()
		val.Scale(v)
		loc, err := w.locate(in.R[0])
		if err != nil {
			return err
		}
		if err := w.storeDst(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockSum:
		a, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := w.readBlock(in.R[2])
		if err != nil {
			return err
		}
		val := a.Clone()
		if in.A == 0 {
			val.AddScaled(1, b)
		} else {
			val.AddScaled(-1, b)
		}
		loc, err := w.locate(in.R[0])
		if err != nil {
			return err
		}
		if err := w.storeDst(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpContract:
		a, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := w.readBlock(in.R[2])
		if err != nil {
			return err
		}
		spec := block.Spec{A: in.R[1].Idx, B: in.R[2].Idx, C: in.R[0].Idx}
		val, err := block.Contract(spec, a, b)
		if err != nil {
			return err
		}
		if fl, err := block.ContractFlops(spec, a.Dims(), b.Dims()); err == nil {
			w.prof.addFlops(fl)
		}
		loc, err := w.locate(in.R[0])
		if err != nil {
			return err
		}
		if err := w.storeDst(in.R[0], loc, val, in.B); err != nil {
			return err
		}

	// --- communication super instructions ---
	case bytecode.OpGet:
		if err := w.doGet(in.R[0], true); err != nil {
			return err
		}
	case bytecode.OpRequest:
		if err := w.doGet(in.R[0], true); err != nil {
			return err
		}
	case bytecode.OpPut:
		if err := w.doPut(in.R[0], in.R[1], in.A == 1); err != nil {
			return err
		}
	case bytecode.OpPrepare:
		if err := w.doPut(in.R[0], in.R[1], in.A == 1); err != nil {
			return err
		}
	case bytecode.OpComputeIntegrals:
		if err := w.doComputeIntegrals(in.R[0]); err != nil {
			return err
		}
	case bytecode.OpExecute:
		if err := w.doExecute(in); err != nil {
			return err
		}
	case bytecode.OpBarrier:
		var err error
		if in.A == 1 {
			err = w.serverBarrier()
		} else {
			err = w.sipBarrier()
		}
		if err != nil {
			return err
		}
	case bytecode.OpCollective:
		if w.rt.cfg.Recover {
			vals, err := w.masterSync(syncCollective, in.A, true, func() []float64 {
				return []float64{w.scalars[in.A]}
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				w.scalars[in.A] = vals[0]
			}
			break
		}
		if err := w.drainPutAcks(); err != nil {
			return err
		}
		w.scalars[in.A] = w.rt.workerGroup.AllreduceSum(w.scalars[in.A])
	case bytecode.OpPrint:
		if w.rank == w.rt.firstWorker() {
			w.rt.outMu.Lock()
			if in.A >= 0 {
				fmt.Fprint(w.rt.cfg.Output, w.rt.prog.Strings[in.A])
			}
			if in.B >= 0 {
				if in.A >= 0 {
					fmt.Fprint(w.rt.cfg.Output, " ")
				}
				fmt.Fprintf(w.rt.cfg.Output, "%.12g", w.scalars[in.B])
			}
			fmt.Fprintln(w.rt.cfg.Output)
			w.rt.outMu.Unlock()
		}
	case bytecode.OpBlocksToList:
		if err := w.checkpointSave(in.A); err != nil {
			return err
		}
	case bytecode.OpListToBlocks:
		if err := w.checkpointLoad(in.A); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	d := time.Since(start)
	w.prof.record(in.Op, in.Line, d)
	if w.trk != nil {
		w.trk.Complete(start, d, obs.CatInterp, in.Op.String(), obs.AInt("line", in.Line))
	}
	w.pc = next
	return nil
}

// trace emits one line describing the instruction about to execute,
// including the active pardo iteration's index values.
func (w *worker) trace(in *bytecode.Instr) {
	iter := ""
	for i := len(w.frames) - 1; i >= 0; i-- {
		if w.frames[i].kind == framePardo {
			pd := w.rt.prog.Pardos[w.frames[i].pid]
			parts := make([]string, len(pd.Indices))
			for d, id := range pd.Indices {
				parts[d] = fmt.Sprintf("%s=%d", w.rt.prog.Indices[id].Name, w.idxVal[id])
			}
			iter = " [" + strings.Join(parts, ",") + "]"
			break
		}
	}
	w.rt.outMu.Lock()
	fmt.Fprintf(w.rt.cfg.Trace, "w%d pc=%-4d line=%-3d %s%s\n", w.rank, w.pc, in.Line, in.Op, iter)
	w.rt.outMu.Unlock()
}

func (w *worker) push(v float64) { w.stack = append(w.stack, v) }

func (w *worker) pop() float64 {
	v := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	return v
}

func (w *worker) bind(id, v int) {
	w.idxVal[id] = v
	w.idxBound[id] = true
}

func (w *worker) unbind(id int) { w.idxBound[id] = false }

// setIteration binds the pardo indices to one iteration's values.
func (w *worker) setIteration(pid int, vals []int) {
	for i, id := range w.rt.prog.Pardos[pid].Indices {
		w.bind(id, vals[i])
	}
}

// clearTemps recycles all per-iteration temp blocks into the block pool
// (paper §V-B: worker memory is managed as stacks of preallocated
// blocks, so steady-state iterations allocate nothing).
func (w *worker) clearTemps() {
	for _, b := range w.temps {
		w.pool.put(b)
	}
	clear(w.temps)
}

// recvTimed is Recv with the configured deadline: with RecvTimeout off
// it blocks like Recv; with it on, a receive whose every retry expires
// is diagnosed as a failure of the rank owing the message (src >= 0) —
// an *mpi.RankFailure the run() defer uses to fail the world — or as a
// generic timeout for wildcard receives.
func (w *worker) recvTimed(src, tag int, what string) (mpi.Message, error) {
	d := w.rt.cfg.RecvTimeout
	if d <= 0 {
		return w.comm.Recv(src, tag), nil
	}
	attempts := 1 + w.rt.cfg.RecvRetries
	for i := 0; i < attempts; i++ {
		if m, ok := w.comm.RecvTimeout(src, tag, d); ok {
			return m, nil
		}
	}
	total := time.Duration(attempts) * d
	if src >= 0 {
		return mpi.Message{}, &mpi.RankFailure{
			Rank:   src,
			Reason: fmt.Sprintf("worker %d heard no %s within %v", w.rank, what, total),
		}
	}
	return mpi.Message{}, fmt.Errorf("sip: worker %d: no %s within %v", w.rank, what, total)
}

// awaitRequest completes a posted Irecv under the configured deadline,
// with the same diagnosis semantics as recvTimed.
func (w *worker) awaitRequest(req *mpi.Request, what string) (mpi.Message, error) {
	d := w.rt.cfg.RecvTimeout
	if d <= 0 {
		return req.Wait(), nil
	}
	attempts := 1 + w.rt.cfg.RecvRetries
	for i := 0; i < attempts; i++ {
		if m, ok := req.WaitTimeout(d); ok {
			return m, nil
		}
	}
	total := time.Duration(attempts) * d
	if src := req.Source(); src >= 0 {
		return mpi.Message{}, &mpi.RankFailure{
			Rank:   src,
			Reason: fmt.Sprintf("worker %d heard no %s within %v", w.rank, what, total),
		}
	}
	return mpi.Message{}, fmt.Errorf("sip: worker %d: no %s within %v", w.rank, what, total)
}

// fetchChunk asks the master for the next iterations of a pardo
// execution ("Initially, the set of iterations ... is divided into
// 'chunks' and doled out to the workers.  When a worker completes its
// chunk, it requests another chunk from the master", paper §V-B).
func (w *worker) fetchChunk(pid, gen int, entry []float64) ([][]int, error) {
	start := time.Now()
	var delta []float64
	if entry != nil {
		// Cumulative scalar contribution since pardo entry: requesting
		// chunk N+1 implies chunks 1..N are complete, so this is the
		// completed-iteration watermark the checkpointing master records.
		delta = make([]float64, len(w.scalars))
		for i := range delta {
			delta[i] = w.scalars[i] - entry[i]
		}
	}
	w.comm.Send(0, w.rt.tag(tagChunkReq), chunkMsg{pardo: pid, gen: gen, origin: w.rank, delta: delta})
	m, err := w.recvTimed(0, w.rt.tag(tagChunkRep), "chunk reply from the master")
	if err != nil {
		return nil, err
	}
	rep := m.Data.(chunkReply)
	if w.trk != nil {
		// Flow-in half of the master's dispatch_chunk flow-out.
		w.trk.FlowIn(start, msgFlowID(0, w.rank, w.rt.tag(tagChunkRep)),
			obs.CatChunk, "fetch_chunk",
			obs.AInt("pardo", pid), obs.AInt("iters", len(rep.iters)))
	}
	return rep.iters, nil
}

// refLoc is the resolved location of a block reference: the block
// coordinate plus, for subindex references, the region within the block.
type refLoc struct {
	key    blockKey
	coord  segment.Coord
	dims   []int
	region bool
	rlo    []int // region offset within the block (0-based)
	rext   []int // region extent
}

// locate resolves a reference against the current index values.
// overrides, if non-nil, substitutes values for specific index ids
// (used by the prefetcher to address future iterations).
func (w *worker) locateWith(ref bytecode.Ref, overrides map[int]int) (refLoc, error) {
	prog := w.rt.prog
	layout := w.rt.layout
	arr := prog.Arrays[ref.Arr]
	shape := layout.Shapes[ref.Arr]
	loc := refLoc{coord: make(segment.Coord, len(ref.Idx))}
	val := func(id int) (int, error) {
		if v, ok := overrides[id]; ok {
			return v, nil
		}
		if !w.idxBound[id] {
			return 0, fmt.Errorf("index %s has no value", prog.Indices[id].Name)
		}
		return w.idxVal[id], nil
	}
	for i, id := range ref.Idx {
		sym := prog.Indices[id]
		dimID := arr.Dims[i]
		dimSym := prog.Indices[dimID]
		if sym.Parent >= 0 && dimSym.Parent < 0 {
			// Subindex against a super dimension: the block coordinate
			// comes from the parent; the region from the subindex.
			pv, err := val(sym.Parent)
			if err != nil {
				return loc, err
			}
			sv, err := val(id)
			if err != nil {
				return loc, err
			}
			loc.coord[i] = pv
			if !loc.region {
				loc.region = true
				loc.rlo = make([]int, len(ref.Idx))
				loc.rext = make([]int, len(ref.Idx))
			}
			parent := layout.Indices[sym.Parent]
			sub := layout.Indices[id]
			blockLo, _ := parent.SegBounds(pv)
			subLo, subHi := sub.SegBounds(sv)
			loc.rlo[i] = subLo - blockLo
			loc.rext[i] = subHi - subLo + 1
			continue
		}
		v, err := val(id)
		if err != nil {
			return loc, err
		}
		loc.coord[i] = v
	}
	if err := shape.CheckCoord(loc.coord); err != nil {
		return loc, err
	}
	loc.key = blockKey{job: w.rt.job, arr: ref.Arr, ord: shape.Ordinal(loc.coord)}
	loc.dims = shape.BlockDims(loc.coord)
	if loc.region {
		// Fill region defaults for non-sub dimensions: whole extent.
		for i := range ref.Idx {
			if loc.rext[i] == 0 {
				loc.rlo[i] = 0
				loc.rext[i] = loc.dims[i]
			}
		}
	}
	return loc, nil
}

func (w *worker) locate(ref bytecode.Ref) (refLoc, error) {
	return w.locateWith(ref, nil)
}

// localMap returns the worker-local map holding blocks of the given
// array kind, or nil for communicated arrays.
func (w *worker) localMap(kind bytecode.ArrayKind) map[blockKey]*block.Block {
	switch kind {
	case bytecode.ArrayTemp:
		return w.temps
	case bytecode.ArrayLocal:
		return w.locals
	case bytecode.ArrayStatic:
		return w.statics
	}
	return nil
}

// newBlock allocates a zeroed block for a worker-local array, drawing
// temp blocks from the recycling pool.
func (w *worker) newBlock(kind bytecode.ArrayKind, dims []int) *block.Block {
	if kind == bytecode.ArrayTemp {
		return w.pool.get(dims)
	}
	return block.New(dims...)
}

// readBlock resolves a reference to a block value: local blocks from the
// worker maps, distributed/served blocks from the cache (waiting for
// in-flight fetches and charging the wait to the enclosing pardo).
// Region references return the extracted subblock.
func (w *worker) readBlock(ref bytecode.Ref) (*block.Block, error) {
	loc, err := w.locate(ref)
	if err != nil {
		return nil, err
	}
	arr := w.rt.prog.Arrays[ref.Arr]
	var b *block.Block
	if m := w.localMap(arr.Kind); m != nil {
		b = m[loc.key]
		if b == nil {
			return nil, fmt.Errorf("read of uninitialized %s block %s%v", arr.Kind, arr.Name, loc.coord)
		}
	} else {
		e := w.cache.lookup(loc.key)
		if e == nil {
			return nil, fmt.Errorf("block %s%v used without get/request", arr.Name, loc.coord)
		}
		b, err = w.waitBlock(e)
		if err != nil {
			return nil, err
		}
	}
	if loc.region {
		return b.Extract(loc.rlo, loc.rext), nil
	}
	return b, nil
}

// waitBlock waits for an in-flight fetch, recording the wait time
// against the innermost pardo (paper §VI-B: per-pardo wait times are the
// primary tuning signal).  Under Config.RecvTimeout the wait is bounded:
// a reply that never comes is diagnosed as a failure of the home rank.
func (w *worker) waitBlock(e *cacheEntry) (*block.Block, error) {
	if !e.pending() {
		return e.b, nil
	}
	start := time.Now()
	// Capture the responder and reply tag before the wait consumes the
	// request: they key the flow event pairing this wait with the remote
	// serve_get span in the merged trace.
	flowSrc, flowTag := -1, 0
	if e.req != nil {
		flowSrc, flowTag = e.req.Source(), e.req.Tag()
	}
	if w.rt.serversEvictable() && w.rt.prog.Arrays[e.key.arr].Kind == bytecode.ArrayServed {
		if err := w.waitServedBlock(e); err != nil {
			return nil, err
		}
	} else {
		m, err := w.awaitRequest(e.req, fmt.Sprintf("reply for block %s", e.key))
		if err != nil {
			return nil, err
		}
		e.b = m.Data.(*block.Block)
		e.req = nil
	}
	d := time.Since(start)
	w.prof.addWait(w.currentPardo(), d)
	w.waitHist.Observe(int64(d))
	if w.trk != nil {
		if flowSrc >= 0 {
			w.trk.FlowIn(start, msgFlowID(flowSrc, w.rank, flowTag),
				obs.CatWait, "wait_block", obs.A("block", e.key.String()))
		} else {
			w.trk.Complete(start, d, obs.CatWait, "wait_block", obs.A("block", e.key.String()))
		}
	}
	return e.b, nil
}

// waitServedBlock completes a served-block fetch when the servers are
// evictable (Recover with Replicas > 1): it waits on the pending
// request, waking on membership changes, and when the server it was
// reading from is dead — evicted by another detector, or evicted here
// after a silent receive deadline — re-issues the fetch to the block's
// next live replica.  The retry is bounded by the replica count: each
// failover moves down the (finite, shrinking) live-replica order, and
// when none remain the block is unrecoverable.
func (w *worker) waitServedBlock(e *cacheEntry) error {
	world := w.rt.world
	d := w.rt.cfg.RecvTimeout
	for {
		src := e.req.Source()
		if !world.IsEvicted(src) {
			stamp := world.EvictStamp()
			cancel := func() bool { return world.EvictStamp() != stamp }
			if d <= 0 {
				if m, ok := e.req.WaitUntil(0, cancel); ok {
					e.b = m.Data.(*block.Block)
					e.req = nil
					return nil
				}
			} else {
				attempts := 1 + w.rt.cfg.RecvRetries
				silent := true
				for i := 0; i < attempts; i++ {
					if m, ok := e.req.WaitUntil(d, cancel); ok {
						e.b = m.Data.(*block.Block)
						e.req = nil
						return nil
					}
					if cancel() {
						silent = false // membership changed: re-check src
						break
					}
				}
				if silent && !w.rt.inPool() {
					// Outside a pool, silence is the only death signal, so
					// the reader evicts and fails over.  Pool servers die by
					// explicit eviction only (see master.recvAny): a slow
					// reply under multi-tenant load must not amputate a live
					// server, so keep waiting — a real eviction cancels the
					// wait and the failover below takes over.
					world.Evict(src, fmt.Sprintf("worker %d heard no reply for block %s within %v",
						w.rank, e.key, time.Duration(attempts)*d))
				}
			}
		}
		if !world.IsEvicted(src) {
			continue // an unrelated rank was evicted; keep waiting on src
		}
		replicas := w.rt.replicaServers(e.key.arr, e.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("sip: worker %d: block %s: every replica server is dead", w.rank, e.key)
		}
		w.failoverCtr.Inc()
		if w.trk != nil {
			w.trk.Instant(obs.CatGet, "read_failover",
				obs.A("block", e.key.String()), obs.AInt("from", src), obs.AInt("to", replicas[0]))
		}
		replyTag := w.rt.tag(tagReplyBase) + w.nextReply
		w.nextReply++
		e.req = w.comm.Irecv(replicas[0], replyTag)
		w.comm.Send(replicas[0], tagServer, getMsg{key: e.key, replyTag: replyTag, origin: w.rank})
	}
}

// currentPardo returns the innermost active pardo id, or -1.
func (w *worker) currentPardo() int {
	for i := len(w.frames) - 1; i >= 0; i-- {
		if w.frames[i].kind == framePardo {
			return w.frames[i].pid
		}
	}
	return -1
}

// storeDst writes a computed value into a destination reference with the
// given assign mode.  Region destinations read-modify-write the base
// block.
func (w *worker) storeDst(ref bytecode.Ref, loc refLoc, val *block.Block, mode int) error {
	arr := w.rt.prog.Arrays[ref.Arr]
	m := w.localMap(arr.Kind)
	if m == nil {
		return fmt.Errorf("direct write to %s array %s", arr.Kind, arr.Name)
	}
	if loc.region {
		base := m[loc.key]
		if base == nil {
			base = w.newBlock(arr.Kind, loc.dims)
			m[loc.key] = base
		}
		switch mode {
		case bytecode.AssignSet:
			base.Insert(loc.rlo, val)
		case bytecode.AssignAdd, bytecode.AssignSub:
			cur := base.Extract(loc.rlo, loc.rext)
			if mode == bytecode.AssignAdd {
				cur.AddScaled(1, val)
			} else {
				cur.AddScaled(-1, val)
			}
			base.Insert(loc.rlo, cur)
		default:
			return fmt.Errorf("unsupported assign mode for subblock destination")
		}
		return nil
	}
	switch mode {
	case bytecode.AssignSet:
		if !dimsEqual(val.Dims(), loc.dims) {
			return fmt.Errorf("assignment to %s%v: got dims %v, want %v", arr.Name, loc.coord, val.Dims(), loc.dims)
		}
		m[loc.key] = val
	case bytecode.AssignAdd, bytecode.AssignSub:
		cur := m[loc.key]
		if cur == nil {
			cur = w.newBlock(arr.Kind, loc.dims)
			m[loc.key] = cur
		}
		if mode == bytecode.AssignAdd {
			cur.AddScaled(1, val)
		} else {
			cur.AddScaled(-1, val)
		}
	default:
		return fmt.Errorf("unsupported assign mode %d for block destination", mode)
	}
	return nil
}

// doGet implements get (distributed) and request (served): resolve the
// block's location and start an asynchronous fetch unless it is already
// cached.  Prefetches ahead in the innermost sequential loop.
func (w *worker) doGet(ref bytecode.Ref, prefetch bool) error {
	loc, err := w.locate(ref)
	if err != nil {
		return err
	}
	if e := w.cache.lookup(loc.key); e != nil {
		e.poll()
	} else if _, err := w.startFetch(ref.Arr, loc); err != nil {
		return err
	}
	if prefetch && w.rt.cfg.PrefetchWindow > 0 {
		w.prefetchAhead(ref)
	}
	return nil
}

// startFetch begins an asynchronous fetch of one block into the cache.
// Served blocks are requested from their primary replica; the error is
// non-nil only when every replica of the block has been evicted.
func (w *worker) startFetch(arrID int, loc refLoc) (*cacheEntry, error) {
	arr := w.rt.prog.Arrays[arrID]
	var home int
	if arr.Kind == bytecode.ArrayServed {
		if w.rt.cfg.Replicas > 1 {
			replicas := w.rt.replicaServers(arrID, loc.key.ord)
			if len(replicas) == 0 {
				return nil, fmt.Errorf("request %s%v: every replica server is dead", arr.Name, loc.coord)
			}
			home = replicas[0]
		} else {
			home = w.rt.homeServer(arrID, loc.key.ord)
		}
	} else {
		home = w.rt.homeWorker(arrID, loc.key.ord)
	}
	if home == w.rank {
		// Locally homed: copy out of the store under its lock.
		b := w.dist.getCopy(loc.key, loc.dims)
		return w.cache.insertReady(loc.key, b), nil
	}
	replyTag := w.rt.tag(tagReplyBase) + w.nextReply
	w.nextReply++
	req := w.comm.Irecv(home, replyTag)
	// Worker homes listen on this job's strided service tag; I/O servers
	// are shared across jobs and listen on the global tagServer (the
	// job travels in the block key).
	msgTag := w.rt.tag(tagService)
	if arr.Kind == bytecode.ArrayServed {
		msgTag = tagServer
	}
	w.comm.Send(home, msgTag, getMsg{key: loc.key, replyTag: replyTag, origin: w.rank})
	w.prof.fetches++
	if w.trk != nil {
		w.trk.Instant(obs.CatGet, "fetch_issued",
			obs.A("block", loc.key.String()), obs.AInt("home", home))
	}
	return w.cache.insertPending(loc.key, req), nil
}

// prefetchAhead requests the blocks this get will need in the next
// iterations of the innermost enclosing sequential loop (paper §V-A:
// "The SIP looks ahead and requests several blocks that it expects will
// be needed soon").
func (w *worker) prefetchAhead(ref bytecode.Ref) {
	// Find the innermost do/doIn frame whose index appears in the ref
	// (directly or as the parent of a subindex used by the ref).
	var fr *frame
	for i := len(w.frames) - 1; i >= 0 && fr == nil; i-- {
		f := &w.frames[i]
		if f.kind != frameDo && f.kind != frameDoIn {
			continue
		}
		for _, id := range ref.Idx {
			if id == f.idx || w.rt.prog.Indices[id].Parent == f.idx {
				fr = f
				break
			}
		}
	}
	if fr == nil {
		return
	}
	for ahead := 1; ahead <= w.rt.cfg.PrefetchWindow; ahead++ {
		v := fr.cur + ahead
		if v > fr.hi {
			return
		}
		loc, err := w.locateWith(ref, map[int]int{fr.idx: v})
		if err != nil {
			return
		}
		if w.cache.lookup(loc.key) == nil {
			if _, err := w.startFetch(ref.Arr, loc); err != nil {
				return // prefetch is best-effort; the demand fetch reports
			}
			w.prof.prefetches++
		}
	}
}

// doPut implements put (distributed) and prepare (served).
func (w *worker) doPut(dst, src bytecode.Ref, acc bool) error {
	loc, err := w.locate(dst)
	if err != nil {
		return err
	}
	val, err := w.readBlock(src)
	if err != nil {
		return err
	}
	if !dimsEqual(val.Dims(), loc.dims) {
		return fmt.Errorf("put %s%v: got dims %v, want %v",
			w.rt.prog.Arrays[dst.Arr].Name, loc.coord, val.Dims(), loc.dims)
	}
	arr := w.rt.prog.Arrays[dst.Arr]
	if w.trk != nil {
		w.trk.Instant(obs.CatPut, "put_issued",
			obs.A("block", loc.key.String()), obs.AInt("bytes", 8*val.Size()))
	}
	seq := w.effectSeq()
	// The source block may be reused next iteration, so no receiver may
	// share it: Multicast clones it per in-process receiver, while a
	// serializing transport encodes it once before returning — at most
	// one payload copy end-to-end over TCP, and zero clones for the
	// whole replica fan-out.
	msg := putMsg{key: loc.key, b: val, acc: acc, origin: w.rank, needAck: true, seq: seq}
	cloned := func() any {
		m := msg
		m.b = val.Clone()
		return m
	}
	if arr.Kind == bytecode.ArrayServed {
		if w.rt.cfg.Replicas > 1 {
			// Fan out to every live replica; the quorum is all of them
			// (dead replicas' acks are written off on eviction, and the
			// anti-entropy pass restores the factor later).
			replicas := w.rt.replicaServers(dst.Arr, loc.key.ord)
			if len(replicas) == 0 {
				return fmt.Errorf("prepare %s%v: every replica server is dead", arr.Name, loc.coord)
			}
			w.comm.Multicast(replicas, tagServer, msg, cloned)
			for _, srv := range replicas {
				w.pendingPrepAcks++
				if w.owedPrepAcks != nil {
					w.owedPrepAcks[srv]++
				}
			}
		} else {
			home := w.rt.homeServer(dst.Arr, loc.key.ord)
			w.comm.Multicast([]int{home}, tagServer, msg, cloned)
			w.pendingPrepAcks++
		}
	} else {
		home := w.rt.homeWorker(dst.Arr, loc.key.ord)
		switch {
		case home == w.rank:
			w.applyLocalPut(loc.key, val.Clone(), acc, seq)
		case w.rt.world.IsEvicted(home):
			// The home rank is gone and its partition with it; the block
			// is unrecoverable (distributed arrays are not durable under
			// recovery) — drop the put rather than wait on a dead rank.
		default:
			w.comm.Multicast([]int{home}, w.rt.tag(tagService), msg, cloned)
			w.pendingPutAcks++
			if w.owedPutAcks != nil {
				w.owedPutAcks[home]++
			}
		}
	}
	// Drop any stale cached copy of the block we just overwrote.
	w.cache.invalidate(loc.key)
	return nil
}

func (w *worker) doComputeIntegrals(ref bytecode.Ref) error {
	loc, err := w.locate(ref)
	if err != nil {
		return err
	}
	arr := w.rt.prog.Arrays[ref.Arr]
	shape := w.rt.layout.Shapes[ref.Arr]
	lo, hi := shape.BlockBounds(loc.coord)
	b := w.rt.cfg.Integrals(arr.Name, lo, hi)
	if b == nil || !dimsEqual(b.Dims(), loc.dims) {
		return fmt.Errorf("compute_integrals %s%v: generator returned wrong dims", arr.Name, loc.coord)
	}
	m := w.localMap(arr.Kind)
	m[loc.key] = b
	return nil
}

func (w *worker) doExecute(in *bytecode.Instr) error {
	name := w.rt.prog.Strings[in.A]
	fn, ok := w.rt.cfg.Super[name]
	if !ok {
		fn, ok = builtinSuper[name]
	}
	if !ok {
		return fmt.Errorf("execute: super instruction %q not registered", name)
	}
	blocks := make([]*block.Block, in.B)
	for i := 0; i < in.B; i++ {
		ref := in.R[i]
		arr := w.rt.prog.Arrays[ref.Arr]
		loc, err := w.locate(ref)
		if err != nil {
			return err
		}
		if loc.region {
			return fmt.Errorf("execute %s: subblock arguments not supported", name)
		}
		if m := w.localMap(arr.Kind); m != nil {
			b := m[loc.key]
			if b == nil {
				b = block.New(loc.dims...)
				m[loc.key] = b
			}
			blocks[i] = b
		} else {
			b, err := w.readBlock(ref)
			if err != nil {
				return err
			}
			blocks[i] = b.Clone() // protect the cache from mutation
		}
	}
	scalars := make([]*float64, len(in.Aux))
	for i, id := range in.Aux {
		scalars[i] = &w.scalars[id]
	}
	ctx := &ExecCtx{Worker: w.workerIndex(), Layout: w.rt.layout}
	return fn(ctx, blocks, scalars)
}

// drainPutAcks consumes acknowledgements for all outstanding distributed
// puts.  Under recovery it additionally writes off acks owed by evicted
// homes (they will never arrive; the blocks died with the rank) and
// wakes on membership changes to re-check the ledger.
func (w *worker) drainPutAcks() error {
	if !w.rt.cfg.Recover {
		for w.pendingPutAcks > 0 {
			if _, err := w.recvTimed(mpi.AnySource, w.rt.tag(tagPutAck),
				fmt.Sprintf("put ack (%d outstanding)", w.pendingPutAcks)); err != nil {
				return err
			}
			w.pendingPutAcks--
		}
		return nil
	}
	world := w.rt.world
	for w.pendingPutAcks > 0 {
		for home, n := range w.owedPutAcks {
			if world.IsEvicted(home) {
				w.pendingPutAcks -= n
				delete(w.owedPutAcks, home)
			}
		}
		if w.pendingPutAcks <= 0 {
			break
		}
		stamp := world.EvictStamp()
		cancel := func() bool { return world.EvictStamp() != stamp }
		d := w.rt.cfg.RecvTimeout
		if d <= 0 {
			if m, ok := w.comm.RecvUntil(mpi.AnySource, w.rt.tag(tagPutAck), 0, cancel); ok {
				w.notePutAck(m.Source)
			}
			continue
		}
		attempts := 1 + w.rt.cfg.RecvRetries
		timedOut := true
		for i := 0; i < attempts; i++ {
			m, ok := w.comm.RecvUntil(mpi.AnySource, w.rt.tag(tagPutAck), d, cancel)
			if ok {
				w.notePutAck(m.Source)
				timedOut = false
				break
			}
			if cancel() {
				timedOut = false // membership changed: re-check owed acks
				break
			}
		}
		if timedOut {
			total := time.Duration(attempts) * d
			for home, n := range w.owedPutAcks {
				if n > 0 {
					return &mpi.RankFailure{
						Rank:   home,
						Reason: fmt.Sprintf("worker %d heard no put ack within %v", w.rank, total),
					}
				}
			}
			return fmt.Errorf("sip: worker %d: no put ack within %v", w.rank, total)
		}
	}
	w.pendingPutAcks = 0
	return nil
}

// notePutAck folds one received put ack into the per-destination ledger,
// ignoring stale acks from homes whose debt was already written off on
// eviction (the ack was delivered before the firewall went up).
func (w *worker) notePutAck(src int) {
	if w.owedPutAcks[src] <= 0 {
		return
	}
	w.owedPutAcks[src]--
	if w.owedPutAcks[src] == 0 {
		delete(w.owedPutAcks, src)
	}
	w.pendingPutAcks--
}

// drainPrepAcks consumes acknowledgements for all outstanding prepares.
// With evictable servers (Replicas > 1 under recovery) the quorum is
// every live replica: acks owed by evicted servers are written off (the
// surviving replicas hold the data), membership changes wake the wait,
// and a live server that stays silent past the receive deadline is
// evicted rather than fatal.
func (w *worker) drainPrepAcks() error {
	if w.owedPrepAcks == nil {
		for w.pendingPrepAcks > 0 {
			if _, err := w.recvTimed(mpi.AnySource, w.rt.tag(tagPrepAck),
				fmt.Sprintf("prepare ack (%d outstanding)", w.pendingPrepAcks)); err != nil {
				return err
			}
			w.pendingPrepAcks--
		}
		return nil
	}
	world := w.rt.world
	for w.pendingPrepAcks > 0 {
		for srv, n := range w.owedPrepAcks {
			if world.IsEvicted(srv) {
				w.pendingPrepAcks -= n
				delete(w.owedPrepAcks, srv)
			}
		}
		if w.pendingPrepAcks <= 0 {
			break
		}
		stamp := world.EvictStamp()
		cancel := func() bool { return world.EvictStamp() != stamp }
		d := w.rt.cfg.RecvTimeout
		if d <= 0 {
			if m, ok := w.comm.RecvUntil(mpi.AnySource, w.rt.tag(tagPrepAck), 0, cancel); ok {
				w.notePrepAck(m.Source)
			}
			continue
		}
		attempts := 1 + w.rt.cfg.RecvRetries
		timedOut := true
		for i := 0; i < attempts; i++ {
			m, ok := w.comm.RecvUntil(mpi.AnySource, w.rt.tag(tagPrepAck), d, cancel)
			if ok {
				w.notePrepAck(m.Source)
				timedOut = false
				break
			}
			if cancel() {
				timedOut = false // membership changed: re-check owed acks
				break
			}
		}
		if timedOut {
			total := time.Duration(attempts) * d
			evicted := false
			for srv, n := range w.owedPrepAcks {
				if n > 0 && !world.IsEvicted(srv) {
					world.Evict(srv, fmt.Sprintf("worker %d heard no prepare ack within %v", w.rank, total))
					evicted = true
					break
				}
			}
			if !evicted {
				return fmt.Errorf("sip: worker %d: no prepare ack within %v", w.rank, total)
			}
		}
	}
	w.pendingPrepAcks = 0
	clear(w.owedPrepAcks)
	return nil
}

// notePrepAck folds one received prepare ack into the per-server
// ledger, ignoring stale acks from servers whose debt was already
// written off on eviction.
func (w *worker) notePrepAck(src int) {
	if w.owedPrepAcks[src] <= 0 {
		return
	}
	w.owedPrepAcks[src]--
	if w.owedPrepAcks[src] == 0 {
		delete(w.owedPrepAcks, src)
	}
	w.pendingPrepAcks--
}

// sipBarrier separates conflicting accesses to distributed arrays: all
// outstanding puts are applied, all workers rendezvous, and cached remote
// blocks are invalidated so later gets see the new values.
func (w *worker) sipBarrier() error {
	if w.rt.cfg.Recover {
		if _, err := w.masterSync(syncBarrier, -1, true, nil); err != nil {
			return err
		}
		w.cache.invalidateAll()
		return nil
	}
	if err := w.drainPutAcks(); err != nil {
		return err
	}
	w.rt.workerGroup.Barrier()
	w.cache.invalidateAll()
	return nil
}

// serverBarrier separates conflicting accesses to served arrays: all
// prepares applied, dirty server caches flushed, caches invalidated.
func (w *worker) serverBarrier() error {
	if w.rt.cfg.Recover {
		// The master performs the flush itself once every live worker
		// has reached (and, if needed, replayed past) this round.
		if _, err := w.masterSync(syncServerBarrier, -1, true, nil); err != nil {
			return err
		}
		w.cache.invalidateAll()
		return nil
	}
	if err := w.drainPrepAcks(); err != nil {
		return err
	}
	w.rt.workerGroup.Barrier()
	// One worker triggers the flush on every server; all wait for it.
	if w.rank == w.rt.firstWorker() {
		for _, srv := range w.rt.serverList {
			w.comm.Send(srv, tagServer, flushMsg{origin: w.rank, job: w.rt.job})
		}
		for s := 0; s < w.rt.servers; s++ {
			if _, err := w.recvTimed(mpi.AnySource, w.rt.tag(tagFlushAck),
				fmt.Sprintf("server flush ack (%d outstanding)", w.rt.servers-s)); err != nil {
				return err
			}
		}
	}
	w.rt.workerGroup.Barrier()
	w.cache.invalidateAll()
	return nil
}

// serviceLoop answers get/put requests against this worker's partition
// of the distributed arrays.  It runs concurrently with the interpreter,
// providing the asynchronous progress the paper's SIP achieves by
// periodically polling for messages (§V-B).
func (w *worker) serviceLoop() {
	// A poisoned run aborts this worker's mailbox; the blocked Recv
	// below then panics with ErrAborted instead of waiting for a
	// shutdown message that may never come.
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	trk := w.rt.tracer.Track(w.rank, 1, fmt.Sprintf("worker %d", w.rank), "service")
	for {
		m := w.comm.Recv(mpi.AnySource, w.rt.tag(tagService))
		switch msg := m.Data.(type) {
		case getMsg:
			var start time.Time
			if trk != nil {
				start = time.Now()
			}
			dims := w.rt.layout.Shapes[msg.key.arr].BlockDims(w.rt.layout.Shapes[msg.key.arr].CoordOf(msg.key.ord))
			b := w.dist.getCopy(msg.key, dims)
			w.comm.Send(msg.origin, msg.replyTag, b)
			if trk != nil {
				// Flow-out endpoint matched by the requester's wait_block
				// flow-in (same responder/origin/replyTag triple).
				trk.FlowOut(start, msgFlowID(w.rank, msg.origin, msg.replyTag),
					obs.CatGet, "serve_get",
					obs.A("block", msg.key.String()), obs.AInt("origin", msg.origin))
			}
		case putMsg:
			var start time.Time
			if trk != nil {
				start = time.Now()
			}
			w.applyLocalPut(msg.key, msg.b, msg.acc, msg.seq)
			if msg.needAck {
				w.comm.Send(msg.origin, w.rt.tag(tagPutAck), ackMsg{})
			}
			if trk != nil {
				trk.End(start, obs.CatPut, "serve_put",
					obs.A("block", msg.key.String()), obs.AInt("origin", msg.origin))
			}
		case shutdownMsg:
			return
		}
	}
}

// checkpointSave implements blocks_to_list: every worker ships its
// partition of the array to the master, which serializes the whole array
// (paper §IV-C: used to pass data between SIAL programs and for
// rudimentary checkpointing).
func (w *worker) checkpointSave(arrID int) error {
	if err := w.drainPutAcks(); err != nil {
		return err
	}
	if err := w.ckptBarrier(); err != nil {
		return err
	}
	var blocks []ArrayBlock
	w.dist.each(func(k blockKey, b *block.Block) {
		if k.arr == arrID {
			blocks = append(blocks, ArrayBlock{Ord: k.ord, Data: append([]float64(nil), b.Data()...)})
		}
	})
	w.comm.Send(0, w.rt.tag(tagCkpt), ckptMsg{op: ckptSave, arr: arrID, blocks: blocks, origin: w.rank})
	// Wait for the master's completion ack.
	if _, err := w.recvTimed(0, w.rt.tag(tagCkpt), "checkpoint ack from the master"); err != nil {
		return err
	}
	return w.ckptBarrier()
}

// ckptBarrier is the rendezvous around checkpoint operations: a plain
// worker-group barrier, or a master-mediated sync round under recovery
// (so a worker death during the checkpoint still resolves).
func (w *worker) ckptBarrier() error {
	if w.rt.cfg.Recover {
		_, err := w.masterSync(syncCkpt, -1, false, nil)
		return err
	}
	w.rt.workerGroup.Barrier()
	return nil
}

// checkpointLoad implements list_to_blocks: every worker asks the
// master, which reads the serialized array and replies to each worker
// with the blocks that worker homes; the worker installs them directly
// into its own store.
func (w *worker) checkpointLoad(arrID int) error {
	if err := w.drainPutAcks(); err != nil {
		return err
	}
	if err := w.ckptBarrier(); err != nil {
		return err
	}
	w.dist.deleteArray(arrID)
	w.cache.invalidateAll()
	w.comm.Send(0, w.rt.tag(tagCkpt), ckptMsg{op: ckptLoad, arr: arrID, origin: w.rank})
	m, err := w.recvTimed(0, w.rt.tag(tagCkpt), "checkpoint data from the master")
	if err != nil {
		return err
	}
	switch data := m.Data.(type) {
	case string:
		return fmt.Errorf("list_to_blocks: %s", data)
	case ckptData:
		shape := w.rt.layout.Shapes[arrID]
		for _, ab := range data.blocks {
			dims := shape.BlockDims(shape.CoordOf(ab.Ord))
			w.dist.put(blockKey{job: w.rt.job, arr: arrID, ord: ab.Ord}, block.FromData(ab.Data, dims...), false)
		}
	}
	return w.ckptBarrier()
}

// masterSync reports this worker's arrival at a sync point and blocks
// until the master releases it.  The report is sent only after every
// outstanding put/prepare is acknowledged, so it doubles as the
// completion ack for all chunks this worker executed this phase.  When
// the master instead orders a replay of a dead worker's iterations, the
// worker executes them and re-reports the same round (recomputing vals
// and the captured state, which may have changed during the replay).
// Returns the reduced vals from the release.
//
// scalar is the collective's target scalar (-1 otherwise).  With
// capture set and checkpointing on, the report carries this worker's
// interpreter state — the master's snapshot consistency points
// (snapshot.go).  A release carrying a state (the round-0 resume path)
// installs it before returning.
func (w *worker) masterSync(kind, scalar int, capture bool, vals func() []float64) ([]float64, error) {
	round := w.syncRound
	w.syncRound++
	for {
		if err := w.drainPutAcks(); err != nil {
			return nil, err
		}
		if err := w.drainPrepAcks(); err != nil {
			return nil, err
		}
		var v []float64
		if vals != nil {
			v = vals()
		}
		var st *workerState
		if capture {
			st = w.captureState()
		}
		w.comm.Send(0, w.rt.tag(tagSync), syncMsg{origin: w.rank, round: round, kind: kind, vals: v, scalar: scalar, state: st})
		// Block without a deadline: the master may legitimately stay
		// silent for as long as the slowest worker computes.  The master
		// is a critical rank — its death fails the world and aborts this
		// receive via the liveness monitor.
		m := w.comm.Recv(0, w.rt.tag(tagSyncRep))
		rep := m.Data.(syncReply)
		if rep.round != round {
			return nil, fmt.Errorf("sip: worker %d: sync reply for round %d at round %d", w.rank, rep.round, round)
		}
		if !rep.resume {
			// The release seals the phase; effects older than the previous
			// phase can no longer be replayed, so retire their dedup entries.
			w.retireSeenPuts()
			if rep.state != nil {
				w.installState(rep.state)
			}
			return rep.vals, nil
		}
		if err := w.replayChunk(rep.pardo, rep.gen, rep.iters); err != nil {
			return nil, err
		}
	}
}

// captureState snapshots this worker's interpreter state at a sync
// point, or nil when a pardo frame is active (a barrier inside a pardo
// body is not an SPMD-consistent program point — workers hold different
// iterations).  resumePC is the instruction after the sync point: exec
// advances there when the release returns.
func (w *worker) captureState() *workerState {
	if w.rt.cfg.CkptInterval <= 0 {
		return nil
	}
	st := &workerState{
		resumePC:  w.pc + 1,
		syncRound: w.syncRound,
		scalars:   append([]float64(nil), w.scalars...),
		idxVal:    append([]int(nil), w.idxVal...),
		idxBound:  append([]bool(nil), w.idxBound...),
		pardoGen:  append([]int(nil), w.pardoGen...),
	}
	for i := range w.frames {
		f := &w.frames[i]
		if f.kind == framePardo {
			return nil
		}
		st.frames = append(st.frames, frameState{kind: f.kind, idx: f.idx,
			cur: f.cur, hi: f.hi, startPC: f.startPC, exitPC: f.exitPC,
			retPC: f.retPC, procID: f.procID})
	}
	return st
}

// installState jumps this worker to a snapshot's program point: pc,
// sync round numbering, scalars, index bindings, pardo generations, and
// the control stack (round-0 release of a resumed run).  The state was
// captured on some worker of the snapshotting run, but sync points are
// SPMD program points, so it is valid for every worker of this one.
func (w *worker) installState(st *workerState) {
	w.pc = st.resumePC
	w.syncRound = st.syncRound
	copy(w.scalars, st.scalars)
	copy(w.idxVal, st.idxVal)
	copy(w.idxBound, st.idxBound)
	copy(w.pardoGen, st.pardoGen)
	w.frames = w.frames[:0]
	for _, f := range st.frames {
		w.frames = append(w.frames, frame{kind: f.kind, idx: f.idx, cur: f.cur,
			hi: f.hi, startPC: f.startPC, exitPC: f.exitPC, retPC: f.retPC,
			procID: f.procID, started: time.Now()})
	}
	w.cache.invalidateAll()
}

// replayChunk re-executes iterations a dead worker held when it was
// evicted.  The pardo body runs exactly as in the original dispatch;
// put/prepare effects carry the same deterministic seqs, so any the
// dead worker already delivered are dropped at the destination.
func (w *worker) replayChunk(pid, gen int, iters [][]int) error {
	if len(iters) == 0 {
		return nil
	}
	code := w.rt.prog.Code
	startPC := w.pardoPCs[pid]
	base := len(w.frames)
	f := frame{kind: framePardo, pid: pid, cur: gen, startPC: startPC,
		exitPC: code[startPC].C, replay: true, chunk: iters, started: time.Now()}
	w.frames = append(w.frames, f)
	w.setIteration(pid, iters[0])
	savedPC := w.pc
	w.pc = startPC + 1
	for len(w.frames) > base {
		in := &code[w.pc]
		if err := w.exec(in); err != nil {
			w.pc = savedPC
			return fmt.Errorf("sip: worker %d: replay pc %d line %d (%s): %w",
				w.rank, w.pc, in.Line, in.Op, err)
		}
	}
	w.pc = savedPC
	return nil
}

// effectSeq returns the deterministic id of the next put/prepare effect
// of the current pardo iteration, or 0 outside recovery or outside a
// pardo.  The id hashes (pardo, generation, iteration values, effect
// ordinal) — and deliberately not the origin rank, so a survivor
// replaying a dead worker's iteration regenerates the same id.
func (w *worker) effectSeq() uint64 {
	if !w.rt.cfg.Recover {
		return 0
	}
	for i := len(w.frames) - 1; i >= 0; i-- {
		f := &w.frames[i]
		if f.kind != framePardo {
			continue
		}
		const prime = 1099511628211
		h := uint64(14695981039346656037) // FNV-1a 64
		mix := func(v uint64) {
			for s := 0; s < 64; s += 8 {
				h = (h ^ (v>>s)&0xff) * prime
			}
		}
		if w.rt.job != 0 {
			// Separate jobs' effect ids: a server deduping across tenants
			// must never drop one job's put for another's.  Job 0 mixes
			// nothing, keeping batch seqs byte-identical.
			mix(uint64(w.rt.job))
		}
		mix(uint64(f.pid))
		mix(uint64(f.cur))
		for _, x := range f.chunk[f.pos] {
			mix(uint64(x))
		}
		mix(uint64(f.effectN))
		f.effectN++
		if h == 0 {
			h = 1 // 0 means "no dedup"
		}
		return h
	}
	return 0
}

// applyLocalPut applies a put to this worker's partition, dropping
// replayed effects whose seq was already seen (so accumulates land
// at-most-once).  Called from both the interpreter (local home) and the
// service loop, hence the lock.
func (w *worker) applyLocalPut(k blockKey, b *block.Block, acc bool, seq uint64) {
	if seq != 0 && !w.markSeen(seq) {
		w.dropCtr.Inc()
		return
	}
	w.dist.put(k, b, acc)
}

// markSeen records an effect id, reporting false if it was already
// present in either live epoch of the ledger.  Clearing the whole
// ledger at a sync release would race with a faster survivor's
// next-phase effects arriving via the service loop before this worker
// processes its own release — those land in the pre-rotation epoch, so
// retireSeenPuts keeps the previous epoch alive for one more phase and
// only drops entries two releases old, whose phase the master's sealed
// ledger can no longer order replays for.
func (w *worker) markSeen(seq uint64) bool {
	w.seenMu.Lock()
	defer w.seenMu.Unlock()
	if w.seenPuts[seq] || w.seenPrevPuts[seq] {
		return false
	}
	w.seenPuts[seq] = true
	return true
}

// retireSeenPuts rotates the put-dedup ledger at a sync release: the
// previous epoch's entries are retired (counted by sip.dedup.retired)
// and the current epoch becomes the previous one, so the ledger holds
// at most the last two phases' effects instead of growing for the
// lifetime of the run.
func (w *worker) retireSeenPuts() {
	if w.seenPuts == nil {
		return
	}
	w.seenMu.Lock()
	retired := len(w.seenPrevPuts)
	w.seenPrevPuts = w.seenPuts
	w.seenPuts = map[uint64]bool{}
	w.seenMu.Unlock()
	if retired > 0 {
		w.retireCtr.Add(int64(retired))
	}
}
