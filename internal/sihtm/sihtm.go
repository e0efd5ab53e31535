// Package sihtm implements SI-HTM, the paper's contribution: a restricted,
// single-version implementation of Snapshot Isolation built from the
// POWER8 HTM's rollback-only transactions (ROTs) plus a software-regulated
// quiescence ("safety wait") before the hardware commit.
//
// Update transactions execute as ROTs — capacity-bounded only by their
// write set — and, once complete, publish a "completed" state and wait
// until every transaction that was active when they completed has
// finished (Algorithm 1). Read-only transactions run entirely outside the
// hardware, uninstrumented, announcing themselves through the same state
// array so writers quiesce on them (Algorithm 2). A single-global-lock
// fall-back path guarantees progress; as the paper's footnote 2 notes,
// early lock subscription is impossible here, so the lock is checked at
// begin time and the lock holder explicitly drains active transactions.
//
// The package also implements the paper's §6 future-work sketches as
// opt-in policies: a killing policy (a completed transaction kills
// laggards that prolong its quiescence) and a batching interface (running
// several transactions inside one ROT + one quiescence).
package sihtm

import (
	"runtime"
	"sync/atomic"

	"sihtm/internal/clock"
	"sihtm/internal/htm"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// DefaultRetries is the ROT attempt budget before the SGL fall-back.
const DefaultRetries = 10

// Config tunes SI-HTM.
type Config struct {
	// Retries is the ROT attempt budget per transaction before the SGL
	// fall-back. 0 means DefaultRetries.
	Retries int
	// DisableROFastPath forces read-only transactions through the update
	// path (ROT + safety wait). Used by the quiescence-cost ablation.
	DisableROFastPath bool
	// KillerSpins, when > 0, enables the §6 killing policy: a completed
	// transaction that has spun this many times waiting for one laggard
	// kills the laggard's transaction (read-only fast-path transactions
	// cannot be killed and are always waited out).
	KillerSpins int
}

// stateSlot is one thread's entry in Algorithm 1's shared state array,
// padded to its own cache line. v holds inactive (0), completed (1), or
// the begin timestamp; cur exposes the thread's live ROT to the killing
// policy.
type stateSlot struct {
	v   atomic.Uint64
	cur atomic.Pointer[htm.Tx]
	_   [112]byte
}

// System is the SI-HTM concurrency control.
type System struct {
	m       *htm.Machine
	clk     *clock.Clock
	threads int
	cfg     Config
	state   []stateSlot
	lock    *sgl.Lock
	col     *stats.Collector
	snaps   [][]uint64 // per-thread scratch for the state snapshot

	// hook, when set, makes the SGL fall-back publish through a
	// tm.Recorder so its write set reaches the durability seam; ROT
	// commits reach the hook through the machine (htm.CommitHook).
	hook tm.CommitHook
	recs []tm.Recorder // one per thread, fall-back only
}

// NewSystem builds SI-HTM for the first `threads` hardware threads of m.
func NewSystem(m *htm.Machine, threads int, cfg Config) *System {
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	s := &System{
		m:       m,
		clk:     clock.New(),
		threads: threads,
		cfg:     cfg,
		state:   make([]stateSlot, threads),
		lock:    sgl.New(m),
		col:     stats.New(threads),
		snaps:   make([][]uint64, threads),
	}
	for i := range s.snaps {
		s.snaps[i] = make([]uint64, threads)
	}
	return s
}

// SGL returns the fall-back path's single global lock.
func (s *System) SGL() *sgl.Lock { return s.lock }

// Name implements tm.System.
func (s *System) Name() string { return "si-htm" }

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

// syncWithGL is Algorithm 2's SyncWithGL: announce activity, then retract
// and wait if the global lock is held, retrying until the announcement
// sticks while the lock is free.
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

	if kind == tm.KindReadOnly && !s.cfg.DisableROFastPath {
		// Algorithm 2's read-only fast path: uninstrumented, outside the
		// hardware, unbounded capacity, never aborts. The state
		// announcement is what makes writers quiesce on us.
		s.syncWithGL(thread, th)
		body(tm.ReadOnlyPlainOps{Th: th})
		// The atomic store below plays the role of the lwsync: all reads
		// above complete before the state change is visible.
		s.state[thread].v.Store(clock.Inactive)
		l.Commit(true)
		return
	}

	// Capacity aborts carry the POWER TEXASR persistence hint: a write
	// set that overflowed the TMCAM will overflow again, so after one
	// grace retry the transaction heads straight for the fall-back.
	capacityAborts := 0
	for attempt := 0; attempt < s.cfg.Retries && capacityAborts < 2; attempt++ {
		s.syncWithGL(thread, th)
		ab := s.updateOnce(thread, th, l, body)
		if ab == nil {
			l.Commit(kind == tm.KindReadOnly)
			return
		}
		if ab.Code == htm.CodeCapacity {
			capacityAborts++
		}
		s.state[thread].v.Store(clock.Inactive)
		l.Abort(tm.AbortKindOf(ab.Code))
		runtime.Gosched()
	}

	// Fall-back: acquire the global lock, drain every active transaction,
	// then run serially and non-transactionally. With a commit hook
	// installed the body runs against a Recorder, so the write set is
	// captured and published through the durability seam (the drain above
	// guarantees no hardware commit is still publishing, so the record's
	// sequence number agrees with the serialization order).
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
	l.Commit(kind == tm.KindReadOnly)
	l.Fallback()
}

// updateOnce runs one ROT attempt: body, then Algorithm 1's TxEnd
// (suspend, publish completed, resume, snapshot, safety wait, commit).
// The caller has already announced the begin timestamp.
func (s *System) updateOnce(thread int, th *htm.Thread, l stats.Thread, body func(tm.Ops)) (abort *htm.Abort) {
	l.HWBegin(true)
	tx := th.Begin(htm.ModeROT)
	slot := &s.state[thread]
	slot.cur.Store(tx)
	defer slot.cur.Store(nil)
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*htm.Abort); ok {
				abort = a
				return
			}
			panic(r)
		}
	}()

	body(tm.TxOps{Tx: tx})

	// TxEnd, Algorithm 1: the state update must be non-transactional —
	// inside the ROT it would consume capacity and, worse, every peer
	// snapshotting our state would kill us.
	tx.Suspend()
	slot.v.Store(clock.Completed)
	tx.Resume() // delivers any conflict that landed while suspended

	snap := s.snaps[thread]
	for c := range s.state {
		snap[c] = s.state[c].v.Load()
	}
	// Safety wait: every thread that was running a transaction when we
	// completed must finish before we make our writes visible.
	for c := range s.state {
		if c == thread || snap[c] <= clock.Completed {
			continue
		}
		spins := uint64(0)
		for s.state[c].v.Load() == snap[c] {
			tx.Poll() // a doomed waiter must stop waiting
			spins++
			if s.cfg.KillerSpins > 0 && spins == uint64(s.cfg.KillerSpins) {
				if victim := s.state[c].cur.Load(); victim != nil {
					victim.Kill()
				}
			}
			runtime.Gosched()
		}
		l.WaitSpins(spins)
	}

	tx.Commit()
	slot.v.Store(clock.Inactive)
	return nil
}

// drainOthers waits until no other thread has an announced transaction.
// Called with the global lock held: newcomers observe the lock and stand
// down, so the wait terminates.
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
