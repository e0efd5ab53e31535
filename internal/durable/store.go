// Package durable makes the transactional engine survive restarts: it
// couples the simulated heap with a write-ahead log (internal/wal) and
// fuzzy checkpoints, behind the commit-hook seam every TM backend in
// the repository exposes (htm.CommitHook / tm.HookableSystem). The
// design follows the back-end-logging school of hardware transactional
// persistence (Giles/Doshi/Varman's HTPM): the hardware commit path is
// never stalled by I/O — redo records are captured from the write
// buffer inside the commit bracket, sequenced, and made durable
// asynchronously by the log's group-commit daemon, with acknowledgement
// (the durability guarantee to the caller) deferred to the end of
// Atomic.
//
// Guarantees, in terms of the commit sequence number (LSN) the store
// assigns inside each commit's critical section:
//
//   - Prefix consistency: the state recovered after a crash is exactly
//     the state produced by commits 1..K in sequence order, for some K
//     ≥ the highest acknowledged sequence. The log's per-record CRC
//     discards the torn tail a crash leaves behind (K is the end of the
//     valid prefix), and conflicting transactions carry sequence
//     numbers in their serialization order, so replaying the prefix
//     reproduces a legal history.
//   - Acknowledged ⇒ present: System.Atomic returns only after the
//     transaction's record is fsynced (WaitAck mode), so every
//     acknowledged transaction is inside the recovered prefix.
//   - Checkpoints are fuzzy: they run concurrently with commits and
//     never block the commit path for longer than two sequence-counter
//     reads. See checkpoint.go for the watermark argument.
package durable

import (
	"fmt"
	"sync"
	"time"

	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/wal"
)

// Config tunes a Store.
type Config struct {
	// Window is the group-commit fsync window (see wal.Config.Window).
	Window time.Duration
	// WaitAck makes the durable System wrapper block each Atomic until
	// the transaction's record is fsynced — the "committed means
	// durable" contract. Disable only for fire-and-forget benchmarking
	// of the capture path.
	WaitAck bool
	// NoDaemon disables the log's background flusher (tests drive Sync
	// manually). Implies no acknowledgements until Sync.
	NoDaemon bool
	// FirstSeq numbers the first commit (default 1); a store opened
	// after recovering to sequence S uses S+1.
	FirstSeq uint64
}

// threadSeq is a per-thread last-assigned-sequence slot, padded so
// worker threads do not false-share.
type threadSeq struct {
	seq   uint64 // owned by the thread between PreCommit and ack
	ackNs int64  // last Atomic's fsync-acknowledgement wait (WaitAck mode)
	_     [112]byte
}

// Store is the durability manager for one heap: it implements
// htm.CommitHook (= tm.CommitHook), so installing it on a machine and
// on a system's fall-back path routes every committed write set into
// the log.
type Store struct {
	heap    *memsim.Heap
	log     *wal.Log
	logPath string
	cfg     Config

	// barrier is the checkpoint barrier: every capture+publish runs
	// under RLock (PreCommit takes it, PostCommit releases it), so a
	// brief Lock observes a quiescent point — all assigned sequence
	// numbers fully published, no publication in flight. See
	// checkpoint.go.
	barrier sync.RWMutex

	last []threadSeq // per-thread last assigned sequence

	// locks are the heap words of the attached systems' global locks,
	// which checkpoints write as free (see lockedSystem).
	locks []memsim.Addr

	// ackHist observes how long each WaitAck'd Atomic blocked on the
	// group-commit fsync — the durability tax as the caller feels it.
	ackHist stats.Histogram
}

// Open creates a store logging to logPath. The caller sizes last for
// the machine's hardware threads (one slot per thread id the hook may
// see).
func Open(heap *memsim.Heap, logPath string, threads int, cfg Config) (*Store, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("durable: thread count must be positive, got %d", threads)
	}
	l, err := wal.Create(logPath, wal.Config{
		Window:   cfg.Window,
		NoDaemon: cfg.NoDaemon,
		FirstSeq: cfg.FirstSeq,
	})
	if err != nil {
		return nil, err
	}
	return &Store{heap: heap, log: l, logPath: logPath, cfg: cfg, last: make([]threadSeq, threads)}, nil
}

// Log exposes the underlying write-ahead log (stats, manual Sync).
func (s *Store) Log() *wal.Log { return s.log }

// LogPath returns the log file's path — what a replication publisher
// tails and a promoted follower catches up from.
func (s *Store) LogPath() string { return s.logPath }

// DurableSeq returns the highest fsynced sequence number: the
// acknowledgement frontier, and the bound on what a leader may stream
// to followers (acked ⇒ on disk ⇒ shippable).
func (s *Store) DurableSeq() uint64 { return s.log.DurableSeq() }

// Heap returns the heap the store persists.
func (s *Store) Heap() *memsim.Heap { return s.heap }

// PreCommit implements htm.CommitHook: capture the redo record and
// enter the checkpoint barrier. Called inside the committing
// transaction's critical section, before its writes are visible, so
// the sequence number drawn here orders conflicting transactions
// exactly as the TM serialized them. Allocation-free at steady state
// (the log's append buffer is retained across flushes).
func (s *Store) PreCommit(thread int, entries []footprint.Entry) {
	s.barrier.RLock()
	s.last[thread].seq = s.log.Append(entries)
}

// PostCommit implements htm.CommitHook: the write set is now visible;
// leave the checkpoint barrier. The durability wait happens later, off
// the TM critical section, in System.Atomic.
func (s *Store) PostCommit(thread int) {
	s.barrier.RUnlock()
}

// WaitThread blocks until the last transaction committed by the given
// thread is durable. A thread whose last commit is already fsynced (or
// that has only run read-only transactions) returns immediately.
func (s *Store) WaitThread(thread int) {
	if seq := s.last[thread].seq; seq != 0 {
		s.log.WaitDurable(seq)
	}
}

// AckWaitHist returns the live ack-wait histogram (time Atomic callers
// spent blocked on fsync acknowledgement) for telemetry registration.
func (s *Store) AckWaitHist() *stats.Histogram { return &s.ackHist }

// ThreadSeq returns the sequence number the thread's last committed
// update transaction was assigned (zero before the first). Only the
// thread itself may call this between its own Atomics — the slot is
// thread-owned, exactly like the commit hook writes it. The server's
// executor uses it to tag a request's trace with its commit sequence.
func (s *Store) ThreadSeq(thread int) uint64 { return s.last[thread].seq }

// LastAckWait returns how long the thread's last WaitAck'd Atomic
// blocked on fsync acknowledgement, in nanoseconds. Same thread-owned
// contract as ThreadSeq.
func (s *Store) LastAckWait(thread int) int64 { return s.last[thread].ackNs }

// LastSeq returns the highest sequence number assigned so far.
func (s *Store) LastSeq() uint64 { return s.log.LastSeq() }

// Sync forces everything appended so far to disk.
func (s *Store) Sync() error { return s.log.Sync() }

// Close flushes and closes the log.
func (s *Store) Close() error { return s.log.Close() }

// Attach installs the store on a system: the machine-level hook covers
// hardware commits, the system-level hook (when the system implements
// tm.HookableSystem) covers its software publication paths, and the
// returned wrapper adds the end-of-Atomic durability wait. Call before
// any transaction runs. m may be nil for machine-less systems (Silo).
func (s *Store) Attach(sys tm.System, m *htm.Machine) tm.System {
	if m != nil {
		m.SetCommitHook(s)
	}
	if h, ok := sys.(tm.HookableSystem); ok {
		h.SetCommitHook(s)
	}
	if l, ok := sys.(lockedSystem); ok {
		s.locks = append(s.locks, l.SGL().Addr())
	}
	return &System{inner: sys, store: s}
}

// lockedSystem is implemented by the systems whose single global lock
// lives in the heap: sgl, and the fall-back path of htm, si-htm and
// p8tm. The lock word is volatile state that no log record ever resets,
// so a checkpoint taken while a fall-back holds it must write it as
// free, or the recovered heap would spin forever on its first acquire.
type lockedSystem interface{ SGL() *sgl.Lock }

// System is the durable tm.System wrapper: Atomic commits through the
// inner system (whose hooks feed the store) and then, in WaitAck mode,
// blocks until the transaction's redo record is fsynced — group-commit
// acknowledgement. The fsync wait happens after the inner commit fully
// published (no TM locks held), so log latency never stalls conflicting
// threads, only the caller.
type System struct {
	inner tm.System
	store *Store
}

// Name implements tm.System (the durable wrapper keeps the inner name:
// registry records compare like against like).
func (d *System) Name() string { return d.inner.Name() }

// Threads implements tm.System.
func (d *System) Threads() int { return d.inner.Threads() }

// Collector implements tm.System.
func (d *System) Collector() *stats.Collector { return d.inner.Collector() }

// Atomic implements tm.System.
func (d *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	d.inner.Atomic(thread, kind, body)
	if d.store.cfg.WaitAck {
		t0 := time.Now()
		d.store.WaitThread(thread)
		wait := time.Since(t0)
		d.store.last[thread].ackNs = int64(wait)
		d.store.ackHist.Observe(wait)
	}
}

// Unwrap returns the inner system.
func (d *System) Unwrap() tm.System { return d.inner }

var _ tm.System = (*System)(nil)
var _ htm.CommitHook = (*Store)(nil)
