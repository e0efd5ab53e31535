// Package p8tm implements the P8TM baseline (Issa et al., DISC'17) the
// paper compares against in §4.2: like SI-HTM it runs update transactions
// as ROTs (write-set-bounded capacity) and read-only transactions
// uninstrumented behind a quiescence scheme — but unlike SI-HTM it offers
// full serializability, which it buys with software instrumentation of
// every read of an update transaction.
//
// Faithfulness note (recorded in DESIGN.md): the original P8TM validates
// update-transaction read sets with a suspend/resume-based scheme on real
// hardware. This reproduction keeps its cost model and guarantees —
// per-read software logging, commit-time validation, quiescence before
// commit — using value-based read validation serialized by a short commit
// lock (NOrec-style), which yields the same serializable semantics and
// the same "pays for read tracking that SI-HTM avoids" performance shape.
// The paper disables P8TM's on-line self-tuning in its evaluation, and so
// does this package.
package p8tm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sihtm/internal/clock"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// DefaultRetries is the ROT attempt budget before the SGL fall-back.
const DefaultRetries = 10

// Config tunes P8TM.
type Config struct {
	// Retries is the attempt budget per transaction before the SGL
	// fall-back. 0 means DefaultRetries.
	Retries int
}

// stateSlot mirrors sihtm's quiescence state array.
type stateSlot struct {
	v atomic.Uint64
	_ [120]byte
}

type readLogEntry struct {
	addr memsim.Addr
	val  uint64
}

// workerState is the per-thread scratch (read log, write filter).
type workerState struct {
	readLog   []readLogEntry
	writeSet  []memsim.Addr
	snap      []uint64
	validFail bool
}

// System is the P8TM concurrency control.
type System struct {
	m       *htm.Machine
	clk     *clock.Clock
	threads int
	retries int
	state   []stateSlot
	lock    *sgl.Lock
	commit  sync.Mutex // serializes validate+write-back
	col     *stats.Collector
	workers []workerState

	// hook, when set, makes the SGL fall-back publish through a
	// tm.Recorder so its write set reaches the durability seam; ROT
	// commits reach the hook through the machine (htm.CommitHook).
	hook tm.CommitHook
	recs []tm.Recorder
}

// NewSystem builds P8TM for the first `threads` hardware threads of m.
func NewSystem(m *htm.Machine, threads int, cfg Config) *System {
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	s := &System{
		m:       m,
		clk:     clock.New(),
		threads: threads,
		retries: cfg.Retries,
		state:   make([]stateSlot, threads),
		lock:    sgl.New(m),
		col:     stats.New(threads),
		workers: make([]workerState, threads),
	}
	for i := range s.workers {
		s.workers[i].snap = make([]uint64, threads)
	}
	return s
}

// SGL returns the fall-back path's single global lock.
func (s *System) SGL() *sgl.Lock { return s.lock }

// Name implements tm.System.
func (s *System) Name() string { return "p8tm" }

// Threads implements tm.System.
func (s *System) Threads() int { return s.threads }

// Collector implements tm.System.
func (s *System) Collector() *stats.Collector { return s.col }

// SetCommitHook implements tm.HookableSystem for the fall-back path.
// Call before any transaction runs.
func (s *System) SetCommitHook(h tm.CommitHook) {
	s.hook = h
	s.recs = make([]tm.Recorder, s.threads)
}

// instrumentedOps is the update-transaction access path: reads go through
// the hardware (untracked, capacity-free) but are logged in software for
// commit-time validation — the per-read cost SI-HTM eliminates.
type instrumentedOps struct {
	tx *htm.Tx
	w  *workerState
}

func (o instrumentedOps) Read(a memsim.Addr) uint64 {
	v := o.tx.Read(a)
	o.w.readLog = append(o.w.readLog, readLogEntry{addr: a, val: v})
	return v
}

func (o instrumentedOps) Write(a memsim.Addr, v uint64) {
	o.tx.Write(a, v)
	o.w.writeSet = append(o.w.writeSet, a)
}

func (s *System) syncWithGL(thread int, th *htm.Thread) {
	for {
		s.state[thread].v.Store(s.clk.Now())
		if !s.lock.IsLocked(th) {
			return
		}
		s.state[thread].v.Store(clock.Inactive)
		s.lock.WaitUnlocked(th)
	}
}

// Atomic implements tm.System.
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	th := s.m.Thread(thread)
	l := s.col.Thread(thread)

	if kind == tm.KindReadOnly {
		// Uninstrumented read-only path behind quiescence, as in SI-HTM.
		s.syncWithGL(thread, th)
		body(tm.ReadOnlyPlainOps{Th: th})
		s.state[thread].v.Store(clock.Inactive)
		l.Commit(true)
		return
	}

	// As in the other HTM-based systems, capacity aborts are treated as
	// persistent (TEXASR hint): one grace retry, then the fall-back.
	capacityAborts := 0
	for attempt := 0; attempt < s.retries && capacityAborts < 2; attempt++ {
		s.syncWithGL(thread, th)
		ab := s.updateOnce(thread, th, l, body)
		if ab == nil {
			l.Commit(false)
			return
		}
		if ab.Code == htm.CodeCapacity {
			capacityAborts++
		}
		s.state[thread].v.Store(clock.Inactive)
		kindOf := tm.AbortKindOf(ab.Code)
		if s.workers[thread].validFail {
			kindOf = stats.AbortTransactional // read validation is a data conflict
		}
		l.Abort(kindOf)
		runtime.Gosched()
	}

	s.lock.Acquire(th)
	s.drainOthers(thread)
	if s.hook != nil {
		rec := &s.recs[thread]
		rec.Begin(tm.PlainOps{Th: th})
		body(rec)
		rec.Flush(thread, s.hook)
	} else {
		body(tm.PlainOps{Th: th})
	}
	s.lock.Release(th)
	l.Commit(false)
	l.Fallback()
}

func (s *System) updateOnce(thread int, th *htm.Thread, l stats.Thread, body func(tm.Ops)) (abort *htm.Abort) {
	w := &s.workers[thread]
	w.readLog = w.readLog[:0]
	w.writeSet = w.writeSet[:0]
	w.validFail = false

	l.HWBegin(true)
	tx := th.Begin(htm.ModeROT)
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*htm.Abort); ok {
				abort = a
				return
			}
			panic(r)
		}
	}()

	body(instrumentedOps{tx: tx, w: w})

	tx.Suspend()
	s.state[thread].v.Store(clock.Completed)
	tx.Resume()

	snap := w.snap
	for c := range s.state {
		snap[c] = s.state[c].v.Load()
	}
	for c := range s.state {
		if c == thread || snap[c] <= clock.Completed {
			continue
		}
		spins := uint64(0)
		for s.state[c].v.Load() == snap[c] {
			tx.Poll()
			spins++
			runtime.Gosched()
		}
		l.WaitSpins(spins)
	}

	// Validate + write back under the commit lock so no other update
	// transaction's write-back interleaves with our validation. Both
	// validation reads and Commit can unwind with an abort (the
	// transaction may still be doomed by a concurrent reader), so the
	// unlock is deferred inside the critical closure.
	s.commit.Lock()
	func() {
		defer s.commit.Unlock()
		if !s.validate(tx, w) {
			w.validFail = true
			tx.AbortExplicit()
		}
		tx.Commit()
	}()
	s.state[thread].v.Store(clock.Inactive)
	return nil
}

// validate re-reads the logged read set and compares values, skipping
// addresses the transaction itself wrote afterwards (those are protected
// by the hardware's write-write conflict detection).
func (s *System) validate(tx *htm.Tx, w *workerState) bool {
	for _, e := range w.readLog {
		if w.wrote(e.addr) {
			continue
		}
		if tx.Read(e.addr) != e.val {
			return false
		}
	}
	return true
}

func (w *workerState) wrote(a memsim.Addr) bool {
	for _, wa := range w.writeSet {
		if wa == a {
			return true
		}
	}
	return false
}

func (s *System) drainOthers(thread int) {
	for c := range s.state {
		if c == thread {
			continue
		}
		for s.state[c].v.Load() != clock.Inactive {
			runtime.Gosched()
		}
	}
}

var _ tm.System = (*System)(nil)
