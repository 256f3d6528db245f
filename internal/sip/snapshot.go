package sip

// Automatic consistent job-level checkpoint/restart (docs/FAULTS.md,
// "Restart from snapshot").  With Config.CkptInterval > 0 the master
// takes snapshots at its natural consistency points: after every
// completed master-mediated sync round (barriers, server barriers,
// collectives — the points that seal a phase), and mid-pardo every
// CkptInterval completed chunks when the active pardos are pure (no
// put/prepare in their bodies, so re-execution has no external
// effects).  A snapshot is an epoch directory of served-array block
// files (hard-linked from the servers' scratch — the atomic spill path
// guarantees each file is either the old or the new version, never
// torn) plus an atomic manifest: temp+fsync+rename, CRC32 over the
// whole payload, per-block-file CRC32s, the resume base state, the
// per-scalar contribution sums, and the completed-iteration overlays.
//
// On restart (Config.Resume) the master loads the newest manifest that
// passes every checksum — falling back one epoch when the latest is
// torn or corrupt — rehydrates the served arrays by re-putting the
// epoch's blocks to the *current* server set (placement-independent:
// worker and server counts may differ from the snapshotting run),
// releases the startup barrier with the base state attached so every
// worker jumps to the recorded program counter, and skips the overlay
// iterations whose contributions the manifest already carries.
//
// Consistency contract (same class as eviction recovery, see
// docs/FAULTS.md): durable state is served arrays + scalars + control
// state.  Distributed arrays are rebuilt from presets and phase-local
// re-execution; collective scalars must be pure reduction accumulators
// (zero-initialized, accumulated only in pardo iterations between their
// initialization and the collective).  Snapshot block capture reads the
// servers' scratch directories directly, so master and servers must
// share one filesystem (true for in-process pools and localhost
// launches).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/wire"
)

// SnapshotInfo describes one completed checkpoint (Config.OnSnapshot).
type SnapshotInfo struct {
	Epoch    int           // snapshot epoch, monotonically increasing
	Bytes    int64         // manifest + captured block bytes
	Blocks   int           // served-array block files captured
	Duration time.Duration // wall time spent taking the snapshot
}

// ResumeInfo describes a successful restart from a snapshot
// (Config.OnResume).
type ResumeInfo struct {
	Epoch  int // epoch the run resumed from
	Blocks int // served-array blocks rehydrated
}

// frameState is one control frame of a worker's frame stack, captured
// at a sync point.  Only do/doIn/call frames appear: a snapshot is
// never taken while a pardo frame is active on the reporting worker.
type frameState struct {
	kind    int
	idx     int
	cur     int
	hi      int
	startPC int
	exitPC  int
	retPC   int
	procID  int
}

// workerState is the resume base: one worker's interpreter state at a
// master-mediated sync point.  All workers are at the same program
// point when it is captured (SPMD), so one worker's control state
// stands in for every worker of the restarted run, whatever its count.
type workerState struct {
	resumePC  int // pc of the instruction after the sync point
	syncRound int // next sync round number (rounds are program points)
	scalars   []float64
	idxVal    []int
	idxBound  []bool
	pardoGen  []int
	frames    []frameState
}

func (st *workerState) clone() *workerState {
	if st == nil {
		return nil
	}
	c := &workerState{resumePC: st.resumePC, syncRound: st.syncRound}
	c.scalars = append([]float64(nil), st.scalars...)
	c.idxVal = append([]int(nil), st.idxVal...)
	c.idxBound = append([]bool(nil), st.idxBound...)
	c.pardoGen = append([]int(nil), st.pardoGen...)
	c.frames = append([]frameState(nil), st.frames...)
	return c
}

// ckptOverlay records the iterations of one pardo execution that were
// completed before a mid-pardo snapshot.  On resume the master skips
// them during dispatch; their scalar contributions travel in the
// manifest's sums.
type ckptOverlay struct {
	pardo int
	gen   int
	iters [][]int
}

// ckptBlockEntry is one captured served-array block file.
type ckptBlockEntry struct {
	arr   int
	ord   int
	rel   string // file name inside the epoch directory
	crc   uint32
	bytes int64
}

// ckptManifest is the snapshot manifest.  sums holds, per scalar, the
// total contribution across every worker at capture time; on resume the
// master corrects the first collective on each scalar by
// sums[s] - reporters*base.scalars[s], which makes the reduction
// independent of how many workers the restarted run has.  A nil base
// resumes from instruction zero (presets and SPMD prologue re-execute
// deterministically).
type ckptManifest struct {
	epoch       int
	name        string
	fingerprint uint32
	base        *workerState
	sums        []float64
	overlays    []ckptOverlay
	blocks      []ckptBlockEntry
}

const (
	manifestMagic = "SMF1" // snapshot manifest file
	ckptFileMagic = "SCK1" // blocks_to_list checkpoint file
)

// writeIntegrityFile writes magic+payload+CRC32(magic+payload)
// atomically: temp file in the same directory, fsync, rename.  A crash
// mid-write leaves the old file or the new one, never a torn one — and
// a torn rename target is caught by the checksum.
func writeIntegrityFile(path, magic string, payload []byte) error {
	h := crc32.NewIEEE()
	h.Write([]byte(magic))
	h.Write(payload)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write([]byte(magic))
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		_, err = f.Write(trailer[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readIntegrityFile reads a file written by writeIntegrityFile,
// verifying magic and checksum.
func readIntegrityFile(path, magic string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < len(magic)+4 || string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("sip: %s: bad magic", path)
	}
	payload := buf[len(magic) : len(buf)-4]
	h := crc32.NewIEEE()
	h.Write(buf[:len(buf)-4])
	if got, want := h.Sum32(), binary.LittleEndian.Uint32(buf[len(buf)-4:]); got != want {
		return nil, fmt.Errorf("sip: %s: checksum mismatch (%08x != %08x)", path, got, want)
	}
	return payload, nil
}

// fileCRC returns the CRC32 and size of a file's contents.
func fileCRC(path string) (uint32, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return h.Sum32(), n, nil
}

// linkOrCopy hard-links src to dst, copying when linking is
// unsupported.  Linking is safe against later rewrites because the
// spill path replaces block files by rename (a fresh inode), never by
// writing in place.
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// ckptFingerprint identifies the (program, params, segmentation) a
// snapshot belongs to, so a manifest left by a different job under the
// same checkpoint name is rejected instead of silently restored.
func ckptFingerprint(rt *runtime) uint32 {
	var sb strings.Builder
	fmt.Fprintf(&sb, "prog=%s code=%d scalars=%d arrays=%d pardos=%d seg=%+v",
		rt.prog.Name, len(rt.prog.Code), len(rt.prog.Scalars),
		len(rt.prog.Arrays), len(rt.prog.Pardos), rt.cfg.Seg)
	keys := make([]string, 0, len(rt.cfg.Params))
	for k := range rt.cfg.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%d", k, rt.cfg.Params[k])
	}
	return crc32.ChecksumIEEE([]byte(sb.String()))
}

// snapState is the master's checkpoint bookkeeping.
type snapState struct {
	enabled     bool
	dir         string // <scratch>/ckpt/<CkptName>
	name        string
	keep        int
	interval    int
	fingerprint uint32

	epoch       int  // last epoch written (or highest found on disk)
	chunksSince int  // completed chunks since the last snapshot
	startupDone bool // the round-0 startup barrier has completed

	// base is the state a restart would resume from: the last sync-point
	// capture (nil = instruction zero).  baseSums are the per-scalar
	// contribution totals consistent with base.  baseValid goes false
	// whenever a sync round seals a phase without a snapshot — mid-pardo
	// snapshots would then misattribute the sealed phase's effects.
	base      *workerState
	baseSums  []float64
	baseValid bool

	pure        map[int]bool // pardo id -> body free of external effects
	stopPending bool         // Config.Stop fired: snapshot, then self-cancel
}

func (m *master) manifestPath(epoch int) string {
	return filepath.Join(m.snap.dir, fmt.Sprintf("manifest_%d.ckpt", epoch))
}

func (m *master) epochDir(epoch int) string {
	return filepath.Join(m.snap.dir, fmt.Sprintf("epoch%d", epoch))
}

// initSnap wires the checkpoint state from the config (newMaster).
func (m *master) initSnap() {
	cfg := &m.rt.cfg
	if cfg.CkptInterval <= 0 {
		return
	}
	m.snap.enabled = true
	m.snap.interval = cfg.CkptInterval
	m.snap.keep = cfg.CkptKeep
	m.snap.name = cfg.CkptName
	m.snap.dir = filepath.Join(m.rt.scratch, "ckpt", m.snap.name)
	m.snap.fingerprint = ckptFingerprint(m.rt)
	m.snap.baseValid = true
	m.snap.pure = map[int]bool{}
	n := len(m.rt.prog.Scalars)
	m.snap.baseSums = make([]float64, n)
	m.injS = make([]float64, n)
	m.injB = make([]float64, n)
	m.injArmed = make([]bool, n)
}

// pardoPure reports whether a pardo body is free of external effects
// (put/prepare/barrier/collective/checkpoint/call), so its iterations
// can be re-executed from an earlier state without double-applying
// anything.  Reads (get/request) and local compute are fine.
func (m *master) pardoPure(pid int) bool {
	if v, ok := m.snap.pure[pid]; ok {
		return v
	}
	pure := false
	code := m.rt.prog.Code
	for pc := range code {
		in := &code[pc]
		if in.Op != bytecode.OpPardoStart || in.A != pid {
			continue
		}
		pure = true
		for j := pc + 1; j < in.C && j < len(code); j++ {
			switch code[j].Op {
			case bytecode.OpPut, bytecode.OpPrepare, bytecode.OpBarrier,
				bytecode.OpCollective, bytecode.OpBlocksToList,
				bytecode.OpListToBlocks, bytecode.OpCall, bytecode.OpPardoStart:
				pure = false
			}
		}
		break
	}
	m.snap.pure[pid] = pure
	return pure
}

// captureBlocks hard-links every served-array block file of this job
// from the live servers' scratch directories into the epoch directory,
// first-found per block, and returns the manifest entries with their
// checksums.  Callers flush the servers first, so the on-disk set is
// the complete served state.
func (m *master) captureBlocks(dir string) ([]ckptBlockEntry, int64, error) {
	rt := m.rt
	var out []ckptBlockEntry
	var total int64
	seen := map[[2]int]bool{}
	for _, sr := range rt.serverList {
		if rt.world.IsEvicted(sr) {
			continue
		}
		srvDir := filepath.Join(rt.scratch, fmt.Sprintf("srv%d", sr))
		names, err := os.ReadDir(srvDir)
		if err != nil {
			if os.IsNotExist(err) {
				continue // server never spilled anything
			}
			return nil, 0, err
		}
		for _, de := range names {
			if de.IsDir() || filepath.Ext(de.Name()) != ".blk" {
				continue
			}
			name := de.Name()
			var job, arr, ord int
			if rt.job != 0 {
				if n, _ := fmt.Sscanf(name, "j%d_a%d_b%d.blk", &job, &arr, &ord); n != 3 || job != rt.job {
					continue
				}
			} else {
				if n, _ := fmt.Sscanf(name, "a%d_b%d.blk", &arr, &ord); n != 2 {
					continue
				}
			}
			if arr < 0 || arr >= len(rt.prog.Arrays) || ord < 0 {
				continue
			}
			k := [2]int{arr, ord}
			if seen[k] {
				continue // a replica already supplied this block
			}
			seen[k] = true
			rel := fmt.Sprintf("a%d_b%d.blk", arr, ord)
			dst := filepath.Join(dir, rel)
			if err := linkOrCopy(filepath.Join(srvDir, name), dst); err != nil {
				return nil, 0, err
			}
			crc, sz, err := fileCRC(dst)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, ckptBlockEntry{arr: arr, ord: ord, rel: rel, crc: crc, bytes: sz})
			total += sz
		}
	}
	return out, total, nil
}

// writeSnapshot captures one epoch: block files into a fresh epoch
// directory, then the manifest, then retention GC.  The manifest is the
// commit point — a crash before its rename leaves the previous epoch
// authoritative.
func (m *master) writeSnapshot(base *workerState, sums []float64, overlays []ckptOverlay, trk *obs.Track) error {
	rt := m.rt
	start := time.Now()
	epoch := m.snap.epoch + 1
	dir := m.epochDir(epoch)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blocks, blockBytes, err := m.captureBlocks(dir)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	man := ckptManifest{
		epoch:       epoch,
		name:        m.snap.name,
		fingerprint: m.snap.fingerprint,
		base:        base,
		sums:        append([]float64(nil), sums...),
		overlays:    overlays,
		blocks:      blocks,
	}
	payload := wire.Encode(man)
	if err := writeIntegrityFile(m.manifestPath(epoch), manifestMagic, payload); err != nil {
		os.RemoveAll(dir)
		return err
	}
	m.snap.epoch = epoch
	m.gcSnapshots()
	total := blockBytes + int64(len(payload))
	rt.metrics.Counter(metricCkptSnapshots).Inc()
	rt.metrics.Counter(metricCkptBytes).Add(total)
	rt.metrics.Counter(metricCkptDuration).Add(time.Since(start).Nanoseconds())
	rt.metrics.Gauge(metricCkptEpoch).Set(int64(epoch))
	if trk != nil {
		trk.Instant(obs.CatChunk, "snapshot",
			obs.AInt("epoch", epoch), obs.AInt("blocks", len(blocks)))
	}
	if cb := rt.cfg.OnSnapshot; cb != nil {
		cb(SnapshotInfo{Epoch: epoch, Bytes: total, Blocks: len(blocks), Duration: time.Since(start)})
	}
	return nil
}

// gcSnapshots removes manifests and epoch directories older than the
// retention window (Config.CkptKeep).
func (m *master) gcSnapshots() {
	cut := m.snap.epoch - m.snap.keep
	entries, err := os.ReadDir(m.snap.dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		var e int
		name := de.Name()
		if n, _ := fmt.Sscanf(name, "manifest_%d.ckpt", &e); n == 1 && !de.IsDir() {
			if e <= cut {
				os.Remove(filepath.Join(m.snap.dir, name))
			}
			continue
		}
		if n, _ := fmt.Sscanf(name, "epoch%d", &e); n == 1 && de.IsDir() && e <= cut {
			os.RemoveAll(filepath.Join(m.snap.dir, name))
		}
	}
}

// loadSnapshot returns the newest fully valid manifest, walking back
// one epoch at a time past torn or corrupted ones.  Whatever happens,
// m.snap.epoch ends up above every epoch number found on disk so new
// snapshots never collide with old files.
func (m *master) loadSnapshot() *ckptManifest {
	entries, err := os.ReadDir(m.snap.dir)
	if err != nil {
		return nil
	}
	maxSeen := m.snap.epoch
	var epochs []int
	for _, de := range entries {
		var e int
		if n, _ := fmt.Sscanf(de.Name(), "manifest_%d.ckpt", &e); n == 1 && !de.IsDir() {
			epochs = append(epochs, e)
		} else if n, _ := fmt.Sscanf(de.Name(), "epoch%d", &e); n != 1 || !de.IsDir() {
			continue
		}
		if e > maxSeen {
			maxSeen = e
		}
	}
	m.snap.epoch = maxSeen
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	for i, e := range epochs {
		man, err := m.readManifest(e)
		if err != nil {
			if i == 0 {
				m.rt.metrics.Counter(metricResumeFallbacks).Inc()
			}
			continue
		}
		return man
	}
	return nil
}

// readManifest reads and fully validates one epoch's manifest: file
// checksum, codec decode, fingerprint, and the CRC32 of every captured
// block file.  Any failure disqualifies the whole epoch.
func (m *master) readManifest(epoch int) (*ckptManifest, error) {
	payload, err := readIntegrityFile(m.manifestPath(epoch), manifestMagic)
	if err != nil {
		return nil, err
	}
	v, err := wire.Decode(payload)
	if err != nil {
		return nil, err
	}
	man, ok := v.(ckptManifest)
	if !ok {
		return nil, fmt.Errorf("sip: manifest %d decodes to %T", epoch, v)
	}
	if man.fingerprint != m.snap.fingerprint {
		m.rt.metrics.Counter(metricResumeRejected).Inc()
		return nil, fmt.Errorf("sip: manifest %d fingerprint mismatch (different program/params)", epoch)
	}
	dir := m.epochDir(epoch)
	for _, be := range man.blocks {
		crc, sz, err := fileCRC(filepath.Join(dir, be.rel))
		if err != nil {
			return nil, err
		}
		if crc != be.crc || sz != be.bytes {
			return nil, fmt.Errorf("sip: epoch %d block %s corrupt (crc %08x/%d, want %08x/%d)",
				epoch, be.rel, crc, sz, be.crc, be.bytes)
		}
	}
	return &man, nil
}

// rehydrate pushes a manifest's served-array blocks to the current
// live server set as ordinary replace-puts (seq 0 always applies), so
// placement — and the server count itself — is free to differ from the
// snapshotting run.  Acks return on this job's tagPrepAck at rank 0,
// which nothing else uses.
func (m *master) rehydrate(man *ckptManifest) error {
	rt := m.rt
	dir := m.epochDir(man.epoch)
	owed := map[int]int{}
	for _, be := range man.blocks {
		if be.arr < 0 || be.arr >= len(rt.prog.Arrays) ||
			rt.prog.Arrays[be.arr].Kind != bytecode.ArrayServed {
			return fmt.Errorf("sip: resume: manifest block for non-served array %d", be.arr)
		}
		buf, err := os.ReadFile(filepath.Join(dir, be.rel))
		if err != nil {
			return err
		}
		shape := rt.layout.Shapes[be.arr]
		dims := shape.BlockDims(shape.CoordOf(be.ord))
		size := 1
		for _, d := range dims {
			size *= d
		}
		if len(buf) != 8*size {
			return fmt.Errorf("sip: resume: block a%d_b%d has %d bytes, want %d", be.arr, be.ord, len(buf), 8*size)
		}
		data := make([]float64, size)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		var dsts []int
		if rt.cfg.Replicas > 1 {
			dsts = rt.replicaServers(be.arr, be.ord)
		} else {
			dsts = []int{rt.homeServer(be.arr, be.ord)}
		}
		key := blockKey{job: rt.job, arr: be.arr, ord: be.ord}
		for _, sr := range dsts {
			if rt.world.IsEvicted(sr) {
				continue
			}
			b := block.FromData(append([]float64(nil), data...), dims...)
			m.comm.Send(sr, tagServer, putMsg{key: key, b: b, origin: 0, needAck: true})
			owed[sr]++
		}
	}
	d := rt.cfg.RecvTimeout
	attempts := 1 + rt.cfg.RecvRetries
	misses := 0
	for {
		total := 0
		for sr, n := range owed {
			if rt.world.IsEvicted(sr) {
				delete(owed, sr) // its blocks heal at the next anti-entropy pass
				continue
			}
			total += n
		}
		if total == 0 {
			return nil
		}
		stamp := rt.world.EvictStamp()
		cancel := func() bool { return rt.world.EvictStamp() != stamp }
		msg, ok := m.comm.RecvUntil(mpi.AnySource, rt.tag(tagPrepAck), d, cancel)
		if ok {
			owed[msg.Source]--
			misses = 0
			continue
		}
		if cancel() || d <= 0 {
			continue
		}
		if misses++; misses >= attempts && !rt.inPool() {
			return fmt.Errorf("sip: resume: no rehydration ack within %v (still owed %d)",
				time.Duration(attempts)*d, total)
		}
	}
}

// cleanStaleBlocks removes this job's served-block spill files left in
// the servers' scratch directories by a previous incarnation (same job
// id over a shared scratch — a restarted `sial serve` reassigns pool
// job ids from 1).  After a restart the snapshot is the only durable
// served state: a stale file would otherwise shadow the re-execution of
// the lost phase, and replayed accumulates would double-apply — the
// effect-dedup ledger died with the old run.
func (m *master) cleanStaleBlocks() {
	rt := m.rt
	for _, sr := range rt.serverList {
		srvDir := filepath.Join(rt.scratch, fmt.Sprintf("srv%d", sr))
		entries, err := os.ReadDir(srvDir)
		if err != nil {
			continue
		}
		for _, de := range entries {
			name := de.Name()
			if de.IsDir() || filepath.Ext(name) != ".blk" {
				continue
			}
			var job, arr, ord int
			if rt.job != 0 {
				if n, _ := fmt.Sscanf(name, "j%d_a%d_b%d.blk", &job, &arr, &ord); n != 3 || job != rt.job {
					continue
				}
			} else if n, _ := fmt.Sscanf(name, "a%d_b%d.blk", &arr, &ord); n != 2 {
				continue
			}
			os.Remove(filepath.Join(srvDir, name))
		}
	}
}

// resumeSetup runs once before the master's main loop.  Without Resume
// it clears stale snapshots of a previous same-named run; with Resume
// it loads the newest valid epoch, rehydrates the servers, and arms the
// resume state consumed at the round-0 release and the first
// collectives.
func (m *master) resumeSetup(trk *obs.Track) error {
	rt := m.rt
	if !m.snap.enabled {
		return nil
	}
	m.cleanStaleBlocks()
	if !rt.cfg.Resume {
		os.RemoveAll(m.snap.dir)
		return os.MkdirAll(m.snap.dir, 0o755)
	}
	if err := os.MkdirAll(m.snap.dir, 0o755); err != nil {
		return err
	}
	man := m.loadSnapshot()
	if man == nil {
		rt.metrics.Counter(metricResumeCold).Inc()
		return nil
	}
	if err := m.rehydrate(man); err != nil {
		return err
	}
	m.resumeBase = man.base
	if len(man.overlays) > 0 {
		m.resumeSkip = map[[2]int][][]int{}
		for _, ov := range man.overlays {
			key := [2]int{ov.pardo, ov.gen}
			m.resumeSkip[key] = append(m.resumeSkip[key], ov.iters...)
		}
	}
	for i := range m.injS {
		if i < len(man.sums) {
			m.injS[i] = man.sums[i]
		}
		if man.base != nil && i < len(man.base.scalars) {
			m.injB[i] = man.base.scalars[i]
		}
		m.injArmed[i] = true
	}
	m.snap.base = man.base
	copy(m.snap.baseSums, m.injS)
	m.snap.baseValid = true
	m.resumed = true
	rt.metrics.Counter(metricResumeResumed).Inc()
	rt.metrics.Counter(metricResumeBlocks).Add(int64(len(man.blocks)))
	rt.metrics.Gauge(metricCkptEpoch).Set(int64(man.epoch))
	if trk != nil {
		trk.Instant(obs.CatChunk, "resumed",
			obs.AInt("epoch", man.epoch), obs.AInt("blocks", len(man.blocks)))
	}
	if cb := rt.cfg.OnResume; cb != nil {
		cb(ResumeInfo{Epoch: man.epoch, Blocks: len(man.blocks)})
	}
	return nil
}

// maybeSyncSnapshot runs inside completeSyncRounds after the round's
// coordination (collective reduction, server flush) and before the
// release sends: every live worker is parked, every effect of the
// sealing phase is acknowledged, so this is a consistency point.  For
// rounds that are not server barriers the servers are flushed on
// demand first — the workers are parked, so the flush races nothing.
func (m *master) maybeSyncSnapshot(s *syncState, parked []int, vals []float64, trk *obs.Track) error {
	if !m.snap.enabled {
		return nil
	}
	if !m.snap.startupDone {
		// The round-0 startup barrier: nothing has executed yet, and a
		// restart from instruction zero reproduces it, so the base stays
		// valid without a capture.
		m.snap.startupDone = true
		return nil
	}
	if m.cancelled || s.kind == syncCkpt {
		m.snap.baseValid = false
		return nil
	}
	n := 0
	for _, st := range s.states {
		if st == nil {
			// A worker reached this sync point inside a pardo body (or an
			// old-format peer): no consistent capture exists this round.
			m.snap.baseValid = false
			return nil
		}
		n++
	}
	if n == 0 || s.states[parked[0]] == nil {
		m.snap.baseValid = false
		return nil
	}
	if s.kind != syncServerBarrier {
		if err := m.flushServers(); err != nil {
			return err
		}
	}
	base := s.states[parked[0]].clone()
	sums := make([]float64, len(m.rt.prog.Scalars))
	for _, st := range s.states {
		for i, v := range st.scalars {
			if i < len(sums) {
				sums[i] += v
			}
		}
	}
	// Carry forward corrections not yet consumed by a collective.
	for i := range sums {
		if m.injArmed[i] {
			sums[i] += m.injS[i] - float64(n)*m.injB[i]
		}
	}
	if s.kind == syncCollective && s.scalar >= 0 && s.scalar < len(sums) && len(vals) > 0 {
		// The workers install the reduced value on release; the base must
		// resume them past that point with the same view.
		base.scalars[s.scalar] = vals[0]
		sums[s.scalar] = float64(n) * vals[0]
	}
	if err := m.writeSnapshot(base, sums, nil, trk); err != nil {
		m.rt.metrics.Counter(metricCkptErrors).Inc()
		m.snap.baseValid = false
		m.finishStop(trk) // a drain must not hang on a failing disk
		return nil
	}
	m.snap.base = base
	m.snap.baseSums = sums
	m.snap.baseValid = true
	m.snap.chunksSince = 0
	m.finishStop(trk)
	return nil
}

// notePardoProgress folds one chunk request into the completion ledger:
// everything previously assigned to the requester is now complete (a
// worker processes its chunks sequentially and requests the next only
// after the last finished), and the request's delta carries the
// requester's cumulative in-pardo scalar contributions.  Every
// CkptInterval completed chunks — or immediately when a drain is
// pending — a mid-pardo snapshot is attempted.
func (m *master) notePardoProgress(req chunkMsg, r *pardoRun, trk *obs.Track) {
	if !m.snap.enabled {
		return
	}
	if len(r.assigned[req.origin]) > 0 {
		if r.completed == nil {
			r.completed = map[int][][]int{}
			r.completedDelta = map[int][]float64{}
		}
		r.completed[req.origin] = append([][]int(nil), r.assigned[req.origin]...)
		if req.delta != nil {
			r.completedDelta[req.origin] = append([]float64(nil), req.delta...)
		}
		m.snap.chunksSince++
	}
	if m.snap.chunksSince >= m.snap.interval || m.snap.stopPending {
		m.maybeChunkSnapshot(trk)
	}
}

// maybeChunkSnapshot takes a mid-pardo snapshot when it is consistent
// to do so: the base is the latest sealed sync point, and every pardo
// run of the open phase is pure, so re-executing from the base skips
// exactly the overlay iterations and replays the rest without external
// effects.
func (m *master) maybeChunkSnapshot(trk *obs.Track) {
	if !m.snap.baseValid || m.cancelled {
		return
	}
	for key := range m.runs {
		if !m.pardoPure(key[0]) {
			return
		}
	}
	sums := append([]float64(nil), m.snap.baseSums...)
	var overlays []ckptOverlay
	for key, r := range m.runs {
		ov := ckptOverlay{pardo: key[0], gen: key[1]}
		ov.iters = append(ov.iters, r.skipIters...)
		for _, its := range r.completed {
			ov.iters = append(ov.iters, its...)
		}
		if len(ov.iters) == 0 {
			continue
		}
		overlays = append(overlays, ov)
		for _, d := range r.completedDelta {
			for i, v := range d {
				if i < len(sums) {
					sums[i] += v
				}
			}
		}
	}
	if err := m.writeSnapshot(m.snap.base, sums, overlays, trk); err != nil {
		m.rt.metrics.Counter(metricCkptErrors).Inc()
		m.finishStop(trk)
		return
	}
	m.snap.chunksSince = 0
	m.finishStop(trk)
}

// stopSignaled reports whether Config.Stop has fired.
func (m *master) stopSignaled() bool {
	if m.rt.cfg.Stop == nil {
		return false
	}
	select {
	case <-m.rt.cfg.Stop:
		return true
	default:
		return false
	}
}

// noteStop folds a fired Config.Stop into the scheduler: with
// checkpointing on, the master takes one final snapshot at the next
// consistency point and then self-cancels (sial serve drain-requeue);
// without it, Stop degenerates to an immediate cooperative cancel.
func (m *master) noteStop(trk *obs.Track) {
	if m.stopNoted || !m.stopSignaled() {
		return
	}
	m.stopNoted = true
	if !m.snap.enabled {
		m.selfCancel(trk)
		return
	}
	m.snap.stopPending = true
}

// finishStop completes a pending drain-stop after the final snapshot
// attempt (successful or not — a drain must terminate either way).
func (m *master) finishStop(trk *obs.Track) {
	if m.snap.stopPending {
		m.selfCancel(trk)
	}
}

// selfCancel abandons the run exactly as a fired Config.Cancel would:
// dispatch starves, reclaimed iterations are dropped, and the run ends
// in ErrJobCanceled through the normal shutdown protocol.
func (m *master) selfCancel(trk *obs.Track) {
	if m.cancelled {
		return
	}
	m.cancelled = true
	m.snap.stopPending = false
	for _, r := range m.runs {
		r.requeue = nil
		r.assigned = nil
	}
	if trk != nil {
		trk.Instant(obs.CatChunk, "job_stopped", obs.AInt("job", m.rt.job))
	}
}

// cleanupSnapshots removes the checkpoint directory after a clean,
// un-stopped completion: the job's result is final, so its snapshots
// are dead weight.  Stopped (drain-requeued) and failed runs keep
// theirs for the restart.
func (m *master) cleanupSnapshots(workerErr error) {
	if m.snap.enabled && workerErr == nil && !m.cancelled && !m.stopNoted {
		os.RemoveAll(m.snap.dir)
	}
}
