package main

import (
	"time"

	"sihtm/internal/memsim"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// switchSystem is the tm.System a workload's workers are bound to. The
// benchmark points it at the plain system or at its traced wrapper
// between measurement slices, so one set of persistent workers (and one
// database) serves both the untraced and the traced windows.
type switchSystem struct {
	tm.System
	cur tm.System
}

// Atomic implements tm.System through the current target.
func (s *switchSystem) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	s.cur.Atomic(thread, kind, body)
}

// tracedSystem measures one tm.System from the outside: the host time
// of every Atomic call, of every body run inside it, and the simulated
// accesses and distinct lines the body touches. The system itself is
// untouched; the wrapper sees only what a caller of the tm interface
// sees.
type tracedSystem struct {
	tm.System
	th []threadTrace
}

func newTracedSystem(sys tm.System) *tracedSystem {
	t := &tracedSystem{System: sys, th: make([]threadTrace, sys.Threads())}
	for i := range t.th {
		t.th[i].run = t.th[i].runBody
	}
	return t
}

// threadTrace is one worker thread's accumulators. Only its own worker
// writes it; readers wait until the workers have stopped.
type threadTrace struct {
	atomicHist stats.Histogram
	atomics    uint64
	atomicNs   int64
	bodyRuns   uint64
	bodyNs     int64 // all body runs, aborted ones included
	usefulNs   int64 // the last (committing) body run of each Atomic
	accesses   uint64
	readLines  uint64 // distinct lines of the committing run
	writeLines uint64

	ops    countingOps
	cur    func(tm.Ops)
	run    func(tm.Ops) // runBody, bound once so Atomic allocates nothing
	lastNs int64
	lastR  uint64
	lastW  uint64
	_      [64]byte
}

// Atomic implements tm.System.
func (s *tracedSystem) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	t := &s.th[thread]
	t.cur = body
	t0 := time.Now()
	s.System.Atomic(thread, kind, t.run)
	d := time.Since(t0)
	t.atomicHist.Observe(d)
	t.atomics++
	t.atomicNs += int64(d)
	t.usefulNs += t.lastNs
	t.readLines += t.lastR
	t.writeLines += t.lastW
	t.cur = nil
}

// runBody times one body run. An aborting hardware transaction unwinds
// the body by panic, so the accounting sits in a deferred call.
func (t *threadTrace) runBody(ops tm.Ops) {
	t.ops.begin(ops)
	start := time.Now()
	defer func() {
		d := int64(time.Since(start))
		t.bodyRuns++
		t.bodyNs += d
		t.accesses += t.ops.n
		t.lastNs, t.lastR, t.lastW = d, t.ops.r, t.ops.w
	}()
	t.cur(&t.ops)
}

// layerStats is a tracedSystem's totals over a window.
type layerStats struct {
	hist                        stats.HistogramSnapshot
	atomics, bodyRuns, accesses uint64
	atomicNs, bodyNs, usefulNs  int64
	readLines, writeLines       uint64
}

// snapshot sums the per-thread accumulators.
func (s *tracedSystem) snapshot() layerStats {
	var ls layerStats
	for i := range s.th {
		t := &s.th[i]
		ls.hist = addHist(ls.hist, t.atomicHist.Snapshot())
		ls.atomics += t.atomics
		ls.bodyRuns += t.bodyRuns
		ls.accesses += t.accesses
		ls.atomicNs += t.atomicNs
		ls.bodyNs += t.bodyNs
		ls.usefulNs += t.usefulNs
		ls.readLines += t.readLines
		ls.writeLines += t.writeLines
	}
	return ls
}

// addHist sums two histogram snapshots bucket-wise.
func addHist(a, b stats.HistogramSnapshot) stats.HistogramSnapshot {
	if len(a.Counts) < len(b.Counts) {
		a, b = b, a
	}
	out := stats.HistogramSnapshot{Counts: append([]uint64(nil), a.Counts...), SumNs: a.SumNs + b.SumNs}
	for i, c := range b.Counts {
		out.Counts[i] += c
	}
	return out
}

// countingOps forwards a body's accesses and counts them: every access,
// and the distinct lines read and written in the current body run. The
// line set is an open-addressing table reset by generation, so a body
// run costs no allocation.
type countingOps struct {
	inner   tm.Ops
	n, r, w uint64
	gen     uint32
	slots   []lineSlot
	used    int
}

type lineSlot struct {
	line memsim.Line
	gen  uint32
	seen uint8 // bit 0 read, bit 1 written
}

func (o *countingOps) begin(inner tm.Ops) {
	o.inner = inner
	o.n, o.r, o.w = 0, 0, 0
	o.gen++
	o.used = 0
	if o.slots == nil || o.gen == 0 {
		o.slots = make([]lineSlot, 1024)
		o.gen = 1
	}
}

// note marks line with bit and reports whether the bit is new.
func (o *countingOps) note(line memsim.Line, bit uint8) bool {
	if 2*(o.used+1) > len(o.slots) {
		o.grow()
	}
	mask := uint64(len(o.slots) - 1)
	for i := uint64(line) * 0x9E3779B97F4A7C15 >> 32 & mask; ; i = (i + 1) & mask {
		s := &o.slots[i]
		if s.gen != o.gen {
			*s = lineSlot{line: line, gen: o.gen, seen: bit}
			o.used++
			return true
		}
		if s.line == line {
			if s.seen&bit != 0 {
				return false
			}
			s.seen |= bit
			return true
		}
	}
}

// grow doubles the table, keeping the current run's lines.
func (o *countingOps) grow() {
	old := o.slots
	o.slots = make([]lineSlot, 2*len(old))
	mask := uint64(len(o.slots) - 1)
	for _, s := range old {
		if s.gen != o.gen {
			continue
		}
		i := uint64(s.line) * 0x9E3779B97F4A7C15 >> 32 & mask
		for o.slots[i].gen == o.gen {
			i = (i + 1) & mask
		}
		o.slots[i] = s
	}
}

// Read implements tm.Ops.
func (o *countingOps) Read(a memsim.Addr) uint64 {
	o.n++
	if o.note(memsim.LineOf(a), 1) {
		o.r++
	}
	return o.inner.Read(a)
}

// Write implements tm.Ops.
func (o *countingOps) Write(a memsim.Addr, v uint64) {
	o.n++
	if o.note(memsim.LineOf(a), 2) {
		o.w++
	}
	o.inner.Write(a, v)
}
