package htm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sihtm/internal/memsim"
)

// The directory plays the role of the cache-coherence fabric: it knows,
// per cache line, which live transactions hold the line in their write
// set (at most one, exclusive) and which regular-mode transactions track
// it in their read set. Every simulated memory access consults the
// directory to detect conflicts exactly as a coherence snoop would.
//
// A shard keeps its live entries by value in a slice found by linear
// scan; at the default size a shard holds a handful. Release swap-removes
// an entry and parks its readers array past the slice's length for the
// next entry, so the steady state allocates nothing.
//
// Lock-free occupancy counters let the common case — accessing a line
// nobody tracks — skip the shard mutex. The writer count, checked by
// every ROT read and plain load, has a cache line to itself, so tracked
// reads dirtying the mutex line do not evict it. This makes
// uninstrumented reads (ROT reads, read-only fast-path reads) nearly
// free, reproducing the paper's claim that SI-HTM adds no per-read
// software cost.

// lineEntry records the transactional owners of one cache line.
type lineEntry struct {
	line    memsim.Line
	writer  *Tx   // exclusive transactional writer, or nil
	readers []*Tx // regular-mode transactions tracking the line as read
}

// shard is one directory partition: two cache lines, the first holding
// only the writer count.
type shard struct {
	writers atomic.Int32 // entries in this shard with writer != nil
	_       [60]byte
	readers atomic.Int64 // total tracked-reader registrations in this shard
	mu      sync.Mutex
	entries []lineEntry // live entries, guarded by mu; spare slots past len
	_       [24]byte
}

// shardOf maps a line to its shard with a Fibonacci hash. The shift is
// precomputed in NewMachine; this is on every simulated access's path.
func (m *Machine) shardOf(line memsim.Line) *shard {
	return &m.shards[m.shardIndexOf(line)]
}

// shardIndexOf returns the shard index for ordered multi-shard locking.
func (m *Machine) shardIndexOf(line memsim.Line) int {
	return int(uint64(line) * 0x9e3779b97f4a7c15 >> m.shardShift)
}

// find returns line's entry and its index, or nil. Caller holds s.mu;
// the pointer is valid until the shard's next add or release.
func (s *shard) find(line memsim.Line) (int, *lineEntry) {
	for j := range s.entries {
		if s.entries[j].line == line {
			return j, &s.entries[j]
		}
	}
	return -1, nil
}

// add appends an empty entry for line, reusing a parked slot and its
// readers array when one is spare. Caller holds s.mu.
func (s *shard) add(line memsim.Line) *lineEntry {
	n := len(s.entries)
	if n == cap(s.entries) {
		s.entries = append(s.entries, lineEntry{})
	}
	s.entries = s.entries[:n+1]
	s.entries[n].line = line
	return &s.entries[n]
}

// withdraw drops tx's registrations — writer and reader, since
// read-then-write upgrades register both — from line's entry, and
// releases the entry if it no longer tracks anyone. Caller holds s.mu.
func (s *shard) withdraw(line memsim.Line, tx *Tx) {
	j, e := s.find(line)
	if e == nil {
		return
	}
	if e.writer == tx {
		e.writer = nil
		s.writers.Add(-1)
	}
	for k, r := range e.readers {
		if r == tx {
			last := len(e.readers) - 1
			e.readers[k] = e.readers[last]
			e.readers[last] = nil
			e.readers = e.readers[:last]
			s.readers.Add(-1)
			break
		}
	}
	if e.writer == nil && len(e.readers) == 0 {
		// Swap rather than copy, so the parked slot keeps its own
		// readers array instead of aliasing the moved entry's.
		last := len(s.entries) - 1
		s.entries[j], s.entries[last] = s.entries[last], s.entries[j]
		s.entries = s.entries[:last]
	}
}

// conflictRead performs the coherence action of a load of line by
// requester (nil for a plain, non-transactional load): any live
// transactional writer of the line is doomed — "the last transaction to
// read onto some shared variable will kill the execution of any other
// previous writer transaction on that same variable" (§2.2). If the
// writer is already committing it can no longer be doomed; the load must
// wait for the commit to drain, like a load stalled behind the committing
// store queue. Returns with no locks held.
func (m *Machine) conflictRead(line memsim.Line, requester *Tx) {
	s := m.shardOf(line)
	for {
		// Re-check the lock-free occupancy count on every iteration, not
		// just on entry: while this load waits for a committing writer to
		// drain, the shard can empty out entirely, and a drained shard
		// must never cost a mutex acquisition.
		if s.writers.Load() == 0 {
			return
		}
		s.mu.Lock()
		_, e := s.find(line)
		if e == nil || e.writer == nil || e.writer == requester {
			s.mu.Unlock()
			return
		}
		w := e.writer
		if w.doom(conflictCodeFor(requester)) {
			s.mu.Unlock()
			return
		}
		if !w.isLive() {
			// Doomed or already finished; its entry will be cleaned up by
			// its owner. Treat the line as free for reading.
			s.mu.Unlock()
			return
		}
		// Writer is committing: wait for write-back to finish so the load
		// observes the post-commit value, never a torn prefix.
		s.mu.Unlock()
		if requester != nil {
			requester.checkDoomed()
		}
		runtime.Gosched()
	}
}

// conflictCodeFor is the abort cause a victim records when killed by this
// requester: transactions kill with transactional conflicts, plain
// accesses with non-transactional conflicts.
func conflictCodeFor(requester *Tx) AbortCode {
	if requester != nil {
		return CodeTxConflict
	}
	return CodeNonTxConflict
}
