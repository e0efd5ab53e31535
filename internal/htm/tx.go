package htm

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

// Mode selects the transaction flavour offered by P8-HTM.
type Mode int

const (
	// ModeHTM is a regular transaction: reads and writes are tracked and
	// both consume TMCAM capacity.
	ModeHTM Mode = iota
	// ModeROT is a rollback-only transaction: only writes are tracked;
	// reads behave like plain loads (§2.2).
	ModeROT
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeROT {
		return "ROT"
	}
	return "HTM"
}

// Transaction status encoding. Doomed states carry the abort code.
const (
	statusIdle int32 = iota
	statusActive
	statusCommitting
	statusCommitted
	statusAborted
	statusDoomedBase int32 = 0x100
)

func doomedStatus(code AbortCode) int32 { return statusDoomedBase + int32(code) }
func isDoomedStatus(s int32) bool       { return s >= statusDoomedBase }
func codeOfStatus(s int32) AbortCode    { return AbortCode(s - statusDoomedBase) }

// maxShardOrder caps the capacity of the pooled commit lock-order
// scratch retained across transactions (its length is bounded by the
// number of directory shards a commit touches).
const maxShardOrder = 4096

// Tx is one hardware transaction. A Tx is obtained from Thread.Begin and
// driven by the owning goroutine; conflicting peers may asynchronously
// doom it, and the doom is delivered — as a panic carrying *Abort — at
// the transaction's next operation, mirroring asynchronous hardware
// abort delivery.
//
// All footprint state (the read/write line sets, the store buffer and
// the commit scratch) lives in pooled structures recycled across the
// thread's transactions, so a committed transaction amortizes to zero
// heap allocations; see internal/footprint.
type Tx struct {
	th        *Thread
	mode      Mode
	status    atomic.Int32
	suspended bool

	writes     footprint.WriteBuffer // buffered stores, invisible until commit
	writeLines footprint.LineSet     // distinct lines in the write set
	readLines  footprint.LineSet     // distinct tracked read lines
	charged    int64                 // TMCAM lines charged on the core
	rotReads   int                   // ROT reads seen, for the sampling knob

	// Commit's ordered shard-lock acquisition scratch: a bitmap with one
	// bit per directory shard (marking yields sorted, deduplicated
	// indices for free) and the flattened ascending index list. Both are
	// pooled; shardMarks is re-zeroed as it is consumed and shardOrder is
	// reset — capped at maxShardOrder — on every commit and abort path.
	shardMarks []uint64
	shardOrder []int32
}

// Mode returns the transaction's flavour.
func (tx *Tx) Mode() Mode { return tx.mode }

// Thread returns the hardware thread running the transaction.
func (tx *Tx) Thread() *Thread { return tx.th }

// Suspended reports whether the transaction is currently suspended.
func (tx *Tx) Suspended() bool { return tx.suspended }

// Doomed reports (without delivering) whether the transaction has been
// killed by a conflicting access. Spin loops — such as SI-HTM's safety
// wait — poll this to abandon a wait that can no longer succeed.
func (tx *Tx) Doomed() bool { return isDoomedStatus(tx.status.Load()) }

// Poll delivers a pending doom, unwinding with *Abort if the transaction
// has been killed. Software layers call it inside wait loops so a doomed
// transaction stops spinning promptly, mirroring the asynchronous abort
// delivery of the hardware.
func (tx *Tx) Poll() { tx.checkDoomed() }

// Kill requests the abort of this transaction from another thread, as the
// paper's §6 "killing alternative" envisions (a completed transaction
// killing laggards that delay its quiescence). It reports whether the
// kill landed; it fails if the transaction is already dead or committing.
// The victim observes the abort at its next transactional operation.
func (tx *Tx) Kill() bool { return tx.doom(CodeExplicit) }

// WriteSetLines returns the number of distinct cache lines written.
func (tx *Tx) WriteSetLines() int { return tx.writeLines.Len() }

// ReadSetLines returns the number of distinct cache lines tracked as read.
func (tx *Tx) ReadSetLines() int { return tx.readLines.Len() }

func (tx *Tx) isLive() bool {
	s := tx.status.Load()
	return s == statusActive || s == statusCommitting
}

// doom attempts to kill the transaction with the given cause, reporting
// whether this call performed the kill. It fails if the transaction is
// already dead or has entered its commit (hardware commit is atomic and
// cannot be interrupted).
func (tx *Tx) doom(code AbortCode) bool {
	return tx.status.CompareAndSwap(statusActive, doomedStatus(code))
}

// checkDoomed delivers a pending doom, unwinding with *Abort.
func (tx *Tx) checkDoomed() {
	if isDoomedStatus(tx.status.Load()) {
		tx.abortNow()
	}
}

// abort self-kills with the given cause and unwinds.
func (tx *Tx) abort(code AbortCode) {
	tx.status.CompareAndSwap(statusActive, doomedStatus(code))
	tx.abortNow()
}

// abortNow cleans up a doomed transaction and unwinds with *Abort.
func (tx *Tx) abortNow() {
	st := tx.status.Load()
	code := CodeExplicit
	if isDoomedStatus(st) {
		code = codeOfStatus(st)
	}
	tx.cleanup()
	tx.status.Store(statusAborted)
	panic(&aborts[code])
}

// forceAbortQuiet kills and cleans up a live transaction without
// unwinding. It is used when a non-abort panic (a caller bug) escapes a
// transaction body, so the machine is not left with a zombie entry.
func (tx *Tx) forceAbortQuiet() {
	if !tx.isLive() {
		return
	}
	tx.status.CompareAndSwap(statusActive, doomedStatus(CodeExplicit))
	if tx.status.Load() == statusCommitting {
		return // commit already in-flight; it will finish on its own
	}
	tx.cleanup()
	tx.status.Store(statusAborted)
}

// resetFootprint returns the pooled footprint state to empty. It runs on
// every transaction exit — commit (with or without writes) and abort —
// so no path leaves stale scratch behind, and retained capacity is
// bounded by the footprint package's caps plus maxShardOrder.
func (tx *Tx) resetFootprint() {
	tx.writes.Reset()
	tx.writeLines.Reset()
	tx.readLines.Reset()
	if cap(tx.shardOrder) > maxShardOrder {
		tx.shardOrder = nil
	} else {
		tx.shardOrder = tx.shardOrder[:0]
	}
	tx.rotReads = 0
}

// cleanup withdraws the transaction from the directory, releases its
// TMCAM charge and discards buffered writes. Buffered stores were never
// visible, so rollback is purely local.
func (tx *Tx) cleanup() {
	tx.release(tx.writeLines.Lines(), false)
	tx.release(tx.readLines.Lines(), true)
	tx.th.m.uncharge(tx.th.core, tx.charged)
	tx.charged = 0
	tx.resetFootprint()
}

// release withdraws the transaction from the directory entry of each
// line, locking one shard at a time. With skipWrites, lines of the write
// set are left alone: they were (or will be) withdrawn on their own.
func (tx *Tx) release(lines []memsim.Line, skipWrites bool) {
	m := tx.th.m
	for _, line := range lines {
		if skipWrites && tx.writeLines.Contains(line) {
			continue
		}
		s := m.shardOf(line)
		s.mu.Lock()
		s.withdraw(line, tx)
		s.mu.Unlock()
	}
}

// bufferedRead returns the transaction's own buffered value for addr.
func (tx *Tx) bufferedRead(a memsim.Addr) (uint64, bool) {
	return tx.writes.Get(a)
}

// Read performs a transactional load of the word at a.
//
// In ModeHTM the line is tracked in the read set (consuming TMCAM
// capacity); in ModeROT the load is untracked and capacity-free but, like
// any load, dooms a concurrent transactional writer of the line. While
// suspended, the load is executed non-transactionally.
func (tx *Tx) Read(a memsim.Addr) uint64 {
	tx.checkDoomed()
	if tx.suspended {
		return tx.th.m.plainLoad(a)
	}
	m := tx.th.m
	line := memsim.LineOf(a)
	if tx.writeLines.Contains(line) {
		if v, ok := tx.bufferedRead(a); ok {
			return v // reads-own-writes (restriction R3 in the paper)
		}
		return m.heap.Load(a)
	}
	if tx.mode == ModeHTM {
		if !tx.readLines.Contains(line) {
			tx.trackRead(line)
		}
		// A live transaction holding the line in its read set cannot
		// coexist with a live writer (either registration dooms the
		// other), so the heap value is committed data.
		return m.heap.Load(a)
	}
	// ROT read: optionally sample some reads into the TMCAM, modelling
	// the paper's footnote that ROTs may track a small fraction of reads.
	if every := m.cfg.ROTReadTrackEvery; every > 0 {
		tx.rotReads++
		if tx.rotReads%every == 0 && !tx.readLines.Contains(line) {
			tx.trackRead(line)
			return m.heap.Load(a)
		}
	}
	m.conflictRead(line, tx)
	return m.heap.Load(a)
}

// trackRead registers tx as a reader of line, dooming any live writer
// (last reader kills previous writer) and charging one TMCAM entry.
func (tx *Tx) trackRead(line memsim.Line) {
	m := tx.th.m
	s := m.shardOf(line)
	for {
		s.mu.Lock()
		_, e := s.find(line)
		if e != nil && e.writer != nil && e.writer != tx && !e.writer.doom(CodeTxConflict) && e.writer.isLive() {
			// Committing writer: wait for its write-back to drain.
			s.mu.Unlock()
			tx.checkDoomed()
			runtime.Gosched()
			continue
		}
		if !m.charge(tx.th.core, 1) {
			s.mu.Unlock()
			tx.abort(CodeCapacity)
		}
		if e == nil {
			e = s.add(line)
		}
		e.readers = append(e.readers, tx)
		s.readers.Add(1)
		tx.readLines.Add(line)
		tx.charged++
		s.mu.Unlock()
		return
	}
}

// Write performs a transactional store of v to the word at a. The store
// is buffered and invisible to other threads until Commit. While
// suspended, the store is executed non-transactionally (and is then
// immediately visible).
func (tx *Tx) Write(a memsim.Addr, v uint64) {
	tx.checkDoomed()
	if tx.suspended {
		tx.th.m.plainStore(a, v)
		return
	}
	line := memsim.LineOf(a)
	if !tx.writeLines.Contains(line) {
		tx.claimWrite(line)
	}
	tx.writes.Put(a, v)
}

// claimWrite takes exclusive transactional ownership of line: it kills
// tracked readers of the line (invalidation), self-aborts if another live
// writer holds it ("the last writer is killed", §2.2) and charges TMCAM
// capacity unless the line was already tracked by this transaction's
// read set (a read→write upgrade reuses the entry).
func (tx *Tx) claimWrite(line memsim.Line) {
	m := tx.th.m
	s := m.shardOf(line)
	s.mu.Lock()
	_, e := s.find(line)
	if e != nil && e.writer != nil && e.writer != tx && e.writer.isLive() {
		s.mu.Unlock()
		tx.abort(CodeTxConflict)
	}
	needCharge := !tx.readLines.Contains(line)
	if needCharge && !m.charge(tx.th.core, 1) {
		s.mu.Unlock()
		tx.abort(CodeCapacity)
	}
	if e == nil {
		e = s.add(line)
	}
	for _, r := range e.readers {
		if r != tx {
			r.doom(CodeTxConflict)
		}
	}
	if e.writer == nil {
		s.writers.Add(1)
	}
	e.writer = tx
	tx.writeLines.Add(line)
	if needCharge {
		tx.charged++
	}
	s.mu.Unlock()
}

// Suspend pauses transactional tracking: until Resume, the transaction's
// own accesses execute non-transactionally. Conflicts that doom the
// transaction while suspended take effect at Resume (§2.2).
func (tx *Tx) Suspend() {
	if tx.suspended {
		panic("htm: Suspend on already-suspended transaction")
	}
	if s := tx.status.Load(); s != statusActive && !isDoomedStatus(s) {
		panic("htm: Suspend outside an active transaction")
	}
	tx.suspended = true
}

// Resume ends a suspension, delivering any doom that arrived meanwhile.
func (tx *Tx) Resume() {
	if !tx.suspended {
		panic("htm: Resume on non-suspended transaction")
	}
	tx.suspended = false
	tx.checkDoomed()
}

// AbortExplicit aborts the transaction programmatically (tabort.),
// unwinding with *Abort carrying CodeExplicit.
func (tx *Tx) AbortExplicit() {
	tx.checkDoomed()
	tx.abort(CodeExplicit)
}

// Commit atomically publishes the transaction's write set and ends the
// transaction (tend.). Once Commit begins, the transaction can no longer
// be doomed; the whole write set becomes visible before Commit returns,
// with no torn intermediate state observable by any simulated access.
func (tx *Tx) Commit() {
	if tx.suspended {
		panic("htm: Commit while suspended; Resume first")
	}
	m := tx.th.m
	// With a commit hook installed, advertise the in-flight commit on the
	// core-local counter before the point of no return, so QuiesceCommits
	// observes every commit that can still publish (see hook.go).
	hooked := m.hook != nil
	if hooked {
		m.cores[tx.th.core].committing.Add(1)
	}
	if !tx.status.CompareAndSwap(statusActive, statusCommitting) {
		if hooked {
			m.cores[tx.th.core].committing.Add(-1)
		}
		tx.abortNow()
	}
	if tx.writes.Len() > 0 {
		// Lock every shard covering the write set, in index order, so the
		// write-back is atomic with respect to all directory-checking
		// accesses. Marking shard indices in the pooled bitmap and then
		// sweeping it ascending yields the sorted, deduplicated lock
		// order without sorting or allocating; each bitmap word is
		// cleared as it is consumed, so the scratch is clean for the next
		// transaction no matter what.
		marks := tx.shardMarks
		if len(marks) == 0 {
			marks = make([]uint64, (len(m.shards)+63)/64)
			tx.shardMarks = marks
		}
		order := tx.shardOrder[:0]
		for _, line := range tx.writeLines.Lines() {
			i := m.shardIndexOf(line)
			marks[i>>6] |= 1 << (uint(i) & 63)
		}
		for w, word := range marks {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				order = append(order, int32(w<<6+b))
			}
			marks[w] = 0
		}
		for _, i := range order {
			m.shards[i].mu.Lock()
		}
		// The commit hook brackets the write-back inside the shard-locked
		// section: a conflicting later transaction cannot reach its own
		// PreCommit until these locks are released, so sequence numbers
		// drawn in PreCommit respect the hardware serialization order.
		if h := m.hook; h != nil {
			h.PreCommit(tx.th.id, tx.writes.Entries())
		}
		for _, e := range tx.writes.Entries() {
			m.heap.Store(e.Addr, e.Val)
		}
		if h := m.hook; h != nil {
			h.PostCommit(tx.th.id)
		}
		for _, line := range tx.writeLines.Lines() {
			m.shardOf(line).withdraw(line, tx)
		}
		for i := len(order) - 1; i >= 0; i-- {
			m.shards[order[i]].mu.Unlock()
		}
		tx.shardOrder = order
	}
	tx.release(tx.readLines.Lines(), true)
	m.uncharge(tx.th.core, tx.charged)
	tx.charged = 0
	tx.resetFootprint()
	tx.status.Store(statusCommitted)
	if hooked {
		m.cores[tx.th.core].committing.Add(-1)
	}
}
