package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/block"
	"repro/internal/mpi/transport"
	"repro/internal/sip"
)

// probe is the outside-in instrumentation of one job (or, for the
// service, of one phase): pass-through wrappers around the callbacks
// the runtime accepts, which time each call, add it to the counters and
// record it as a span under parent.  A nil *probe wraps nothing.
type probe struct {
	tr     *tracer
	parent *span

	integralCalls, integralElems, integralNs atomic.Int64
	superNs                                  atomic.Int64
	acquires                                 atomic.Int64
	sends, sendNs                            atomic.Int64
	framesOut, bytesOut                      atomic.Int64
}

// timed records a callback span from start to now and adds its length
// to ns, when ns is not nil.
func (p *probe) timed(name string, ns *atomic.Int64, start time.Time) {
	end := time.Now()
	if ns != nil {
		ns.Add(int64(end.Sub(start)))
	}
	p.tr.record(name, p.parent, start, end)
}

// under makes sp the parent of the callback spans recorded from now on.
func (p *probe) under(sp *span) {
	if p != nil {
		p.parent = sp
	}
}

func (p *probe) integrals(f sip.IntegralFunc) sip.IntegralFunc {
	if p == nil {
		return f
	}
	return func(arr string, lo, hi []int) *block.Block {
		start := time.Now()
		b := f(arr, lo, hi)
		p.timed("integral", &p.integralNs, start)
		p.integralCalls.Add(1)
		p.integralElems.Add(int64(b.Size()))
		return b
	}
}

func (p *probe) supers(m map[string]sip.SuperFunc) map[string]sip.SuperFunc {
	if p == nil {
		return m
	}
	out := make(map[string]sip.SuperFunc, len(m))
	for name, f := range m {
		out[name] = func(ctx *sip.ExecCtx, blocks []*block.Block, scalars []*float64) error {
			start := time.Now()
			err := f(ctx, blocks, scalars)
			p.timed("super", &p.superNs, start)
			return err
		}
	}
	return out
}

// gate wraps g (nil: the unconstrained batch behaviour) to count and
// time the master's chunk-dispatch acquisitions.
func (p *probe) gate(g sip.ChunkGate) sip.ChunkGate {
	if p == nil {
		return g
	}
	return &gateProbe{p: p, inner: g}
}

type gateProbe struct {
	p     *probe
	inner sip.ChunkGate
}

func (g *gateProbe) Acquire(job int) {
	start := time.Now()
	if g.inner != nil {
		g.inner.Acquire(job)
	}
	g.p.timed("gate.acquire", nil, start)
	g.p.acquires.Add(1)
}

// transport wraps tr to count and time sends.  It forwards the
// multicast capability only when tr has it, so the world takes the same
// encode-once or clone-per-destination path as without the probe.
func (p *probe) transport(tr transport.Transport) transport.Transport {
	if p == nil {
		return tr
	}
	t := &transportProbe{p: p, inner: tr}
	if mc := transport.MulticasterFor(tr); mc != nil {
		return &multicastProbe{transportProbe: t, mc: mc}
	}
	return t
}

type transportProbe struct {
	p     *probe
	inner transport.Transport
}

func (t *transportProbe) Start(h transport.Handler, down transport.PeerDown) error {
	return t.inner.Start(h, down)
}

func (t *transportProbe) Send(src, dst, tag int, data any) error {
	start := time.Now()
	err := t.inner.Send(src, dst, tag, data)
	t.p.timed("transport.send", &t.p.sendNs, start)
	t.p.sends.Add(1)
	return err
}

func (t *transportProbe) Close() error { return t.inner.Close() }

type multicastProbe struct {
	*transportProbe
	mc transport.Multicaster
}

func (t *multicastProbe) SendMulti(src int, dsts []int, tag int, data any) error {
	start := time.Now()
	err := t.mc.SendMulti(src, dsts, tag, data)
	t.p.timed("transport.send", &t.p.sendNs, start)
	t.p.sends.Add(int64(len(dsts)))
	return err
}

// observer counts what the TCP writer puts on the wire.  The transport
// reports one callback per message written (several may share one
// frame), so framesOut counts messages written.
func (p *probe) observer() transport.Observer {
	if p == nil {
		return nil
	}
	return &wireObserver{p: p}
}

type wireObserver struct {
	transport.NopObserver
	p *probe
}

func (o *wireObserver) OnFrameSend(peer, bytes int) {
	o.p.framesOut.Add(1)
	o.p.bytesOut.Add(int64(bytes))
}

// dirWatch counts the directories created directly under one directory
// (inotify), without touching the code that creates them.
type dirWatch struct {
	dir     string
	fd      int
	created atomic.Int64
	done    chan struct{}
}

// watchStop is the file whose creation ends the watch.
const watchStop = ".watch-stop"

func watchDir(dir string) (*dirWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CREATE); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify watch %s: %w", dir, err)
	}
	w := &dirWatch{dir: dir, fd: fd, done: make(chan struct{})}
	go w.loop()
	return w, nil
}

// loop counts directory creations until it reads the stop file's.
func (w *dirWatch) loop() {
	defer close(w.done)
	var buf [4096]byte
	for {
		n, err := syscall.Read(w.fd, buf[:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil || n <= 0 {
			return
		}
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
			name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+int(ev.Len)]
			if ev.Mask&syscall.IN_ISDIR != 0 {
				w.created.Add(1)
			} else if string(bytes.TrimRight(name, "\x00")) == watchStop {
				return
			}
			off += syscall.SizeofInotifyEvent + int(ev.Len)
		}
	}
}

// close creates the stop file, waits for the loop to count every event
// before it, and releases the descriptor.
func (w *dirWatch) close() {
	stop := filepath.Join(w.dir, watchStop)
	if err := os.WriteFile(stop, nil, 0o600); err == nil {
		<-w.done
		os.Remove(stop)
	}
	syscall.Close(w.fd)
}

// rssSampler records the resident set size of this process, sampled
// from /proc/self/statm every period until stopped, as the peak of each
// window of windows samples.
type rssSampler struct {
	peaks []int64 // bytes, one per window; owned by the sampling goroutine
	stop  chan struct{}
	done  chan struct{}
}

func sampleRSS(period time.Duration, window int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		var peak int64
		for i := 1; ; i++ {
			peak = max(peak, readRSS())
			if i%window == 0 {
				s.peaks = append(s.peaks, peak)
				peak = 0
			}
			select {
			case <-s.stop:
				if peak > 0 || len(s.peaks) == 0 {
					s.peaks = append(s.peaks, peak)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median of the window peaks
// in MB, and the number of windows.
func (s *rssSampler) finish() (float64, int) {
	close(s.stop)
	<-s.done
	var mb sample
	for _, p := range s.peaks {
		mb = append(mb, float64(p)/(1<<20))
	}
	return mb.median(), len(mb)
}

func readRSS() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
