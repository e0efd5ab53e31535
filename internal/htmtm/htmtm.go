// Package htmtm is the plain-HTM concurrency control the paper uses as
// its primary baseline ("HTM" in every figure): each transaction runs as
// a regular hardware transaction with early lock subscription, retrying a
// bounded number of times before serialising on the single-global-lock
// fall-back path.
//
// Because regular transactions track reads and writes, this system pays
// the full TMCAM capacity cost the paper's §2.2 describes — large
// transactions abort on capacity, escalate to the SGL, and the SGL kills
// every subscribed transaction (non-transactional aborts), which is
// precisely the collapse visible in the HTM curves of Figures 6–10.
package htmtm

import (
	"runtime"

	"sihtm/internal/htm"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// DefaultRetries is the number of hardware attempts before falling back
// to the SGL, matching the artifact's default retry budget.
const DefaultRetries = 10

// Config tunes the system.
type Config struct {
	// Retries is the hardware attempt budget per transaction before the
	// SGL fall-back. 0 means DefaultRetries.
	Retries int
}

// System is the plain-HTM concurrency control.
type System struct {
	m       *htm.Machine
	lock    *sgl.Lock
	threads int
	retries int
	col     *stats.Collector

	// hook, when set, makes the SGL fall-back publish through a
	// tm.Recorder so its write set reaches the durability seam.
	hook tm.CommitHook
	recs []tm.Recorder
}

// NewSystem builds the baseline for the first `threads` hardware threads
// of m.
func NewSystem(m *htm.Machine, threads int, cfg Config) *System {
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	return &System{
		m:       m,
		lock:    sgl.New(m),
		threads: threads,
		retries: cfg.Retries,
		col:     stats.New(threads),
	}
}

// SGL returns the fall-back path's single global lock.
func (s *System) SGL() *sgl.Lock { return s.lock }

// Name implements tm.System.
func (s *System) Name() string { return "htm" }

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

// Atomic implements tm.System: regular hardware transaction with early
// lock subscription, bounded retries, then the SGL path. Capacity aborts
// carry the POWER TEXASR persistence hint — retrying is unlikely to help
// — so they consume the remaining budget after one grace retry.
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	th := s.m.Thread(thread)
	l := s.col.Thread(thread)
	capacityAborts := 0
	for attempt := 0; attempt < s.retries && capacityAborts < 2; attempt++ {
		// Don't even start while the lock is held — we would abort
		// immediately on subscription.
		s.lock.WaitUnlocked(th)
		l.HWBegin(false)
		ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
			// Early subscription: a transactional read of the lock word.
			// If the lock is taken we must not run; if it is taken later,
			// the holder's store kills us through this tracked line.
			if tx.Read(s.lock.Addr()) != 0 {
				tx.AbortExplicit()
			}
			body(tm.TxOps{Tx: tx})
		})
		if ab == nil {
			l.Commit(kind == tm.KindReadOnly)
			return
		}
		if ab.Code == htm.CodeCapacity {
			capacityAborts++
		}
		l.Abort(tm.AbortKindOf(ab.Code))
		runtime.Gosched()
	}
	// Fall-back: serialise under the global lock. The acquisition store
	// dooms all subscribed transactions.
	s.lock.Acquire(th)
	if s.hook != nil {
		// A subscriber that had already entered its hardware commit when
		// the acquisition landed survives the doom and may still be
		// publishing; wait it out so this fall-back's redo record is
		// sequenced after every commit that raced the acquisition. (No
		// new commit can start: every attempt subscribes first and the
		// lock is now held.)
		s.m.QuiesceCommits()
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

var _ tm.System = (*System)(nil)
