// Package hotbench is the simulator's hot-path microbenchmark suite: a
// set of self-timing scenarios that measure the software cost of one
// simulated transactional operation (Read, Write, a first-touch read
// transaction, Commit, an aborted transaction, or a full sihtm Atomic
// block) as a function of the transaction's footprint in cache lines.
//
// The paper's argument is about large-footprint transactions, so the
// simulator's per-access cost must not grow with footprint — otherwise
// the reproduced curves confound software overhead with the very
// variable the paper sweeps. This suite is the guard rail: it sweeps
// footprints from 1 to 4096 lines and reports ns/op and allocs/op per
// point, which `repro bench` serializes to BENCH_hotpath.json (see
// docs/performance.md).
//
// The same scenario bodies back the `go test -bench` benchmarks in
// internal/htm and the root package, so interactive runs and the JSON
// artifact measure identical code.
package hotbench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/results"
	isihtm "sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// DefaultSweep is the footprint ladder, in cache lines: from well under
// the 64-line TMCAM to ~64× past it, the regime SI-HTM stretches into.
var DefaultSweep = []int{1, 4, 8, 16, 64, 256, 1024, 4096}

// Case is one microbenchmark: Setup builds a fresh simulated machine and
// returns a runner executing n operations of the scenario.
type Case struct {
	// Op is the operation family: "read", "write", "coldread",
	// "commit", "abort" or "atomic".
	Op string
	// Mode is the transaction flavour ("HTM"/"ROT"); "" for atomic.
	Mode string
	// Lines is the transaction footprint in cache lines.
	Lines int
	// Setup constructs the scenario and returns its runner.
	Setup func() func(n int)
}

// Sub is the case's sub-benchmark name, e.g. "HTM/lines=1024".
func (c Case) Sub() string {
	if c.Mode == "" {
		return fmt.Sprintf("lines=%d", c.Lines)
	}
	return fmt.Sprintf("%s/lines=%d", c.Mode, c.Lines)
}

// Name is the case's full display name, e.g. "Read/HTM/lines=1024".
func (c Case) Name() string {
	title := map[string]string{"read": "Read", "write": "Write", "coldread": "ColdRead",
		"commit": "Commit", "abort": "Abort", "atomic": "Atomic"}[c.Op]
	return title + "/" + c.Sub()
}

// newMachine builds a single-thread machine whose TMCAM comfortably fits
// a footprint of lines, so capacity aborts never pollute the timing.
func newMachine(lines int) (*memsim.Heap, *htm.Machine) {
	heap := memsim.NewHeapLines(lines + 64)
	m := htm.NewMachine(heap, htm.Config{
		Topology:   topology.New(1, 1),
		TMCAMLines: lines + 8,
	})
	return heap, m
}

// allocLines reserves n line-aligned addresses.
func allocLines(heap *memsim.Heap, n int) []memsim.Addr {
	addrs := make([]memsim.Addr, n)
	for i := range addrs {
		addrs[i] = heap.AllocLine()
	}
	return addrs
}

// readCase measures the steady-state cost of Tx.Read inside a live
// transaction that already tracks a footprint of `lines` cache lines —
// the access pattern of every large read-mostly transaction.
func readCase(mode htm.Mode, lines int) Case {
	return Case{Op: "read", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		tx := m.Thread(0).Begin(mode)
		for _, a := range addrs {
			tx.Read(a)
		}
		i := 0
		return func(n int) {
			for k := 0; k < n; k++ {
				tx.Read(addrs[i])
				if i++; i == len(addrs) {
					i = 0
				}
			}
		}
	}}
}

// writeCase measures the steady-state cost of Tx.Write inside a live
// transaction whose write set already spans `lines` cache lines.
func writeCase(mode htm.Mode, lines int) Case {
	return Case{Op: "write", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		tx := m.Thread(0).Begin(mode)
		for _, a := range addrs {
			tx.Write(a, 1)
		}
		i := 0
		return func(n int) {
			for k := 0; k < n; k++ {
				tx.Write(addrs[i], uint64(k))
				if i++; i == len(addrs) {
					i = 0
				}
			}
		}
	}}
}

// commitCase measures a whole transaction writing `lines` distinct cache
// lines and committing — one op is Begin + lines×Write + Commit, so its
// ns/op necessarily grows with footprint; allocs/op must not.
func commitCase(mode htm.Mode, lines int) Case {
	return Case{Op: "commit", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		th := m.Thread(0)
		return func(n int) {
			for k := 0; k < n; k++ {
				tx := th.Begin(mode)
				for _, a := range addrs {
					tx.Write(a, uint64(k))
				}
				tx.Commit()
			}
		}
	}}
}

// coldReadCase measures a whole read-only transaction over `lines`
// distinct cache lines, every read a first touch — one op is Begin +
// lines×Read + Commit. In HTM mode each read registers a directory entry
// and Commit releases them all; in ROT mode reads are untracked, so the
// HTM/ROT ratio is the directory's share of a large read.
func coldReadCase(mode htm.Mode, lines int) Case {
	return Case{Op: "coldread", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		th := m.Thread(0)
		return func(n int) {
			for k := 0; k < n; k++ {
				tx := th.Begin(mode)
				for _, a := range addrs {
					tx.Read(a)
				}
				tx.Commit()
			}
		}
	}}
}

// abortCase measures the release path: one op is Begin + lines tracked
// reads + an explicit abort, which withdraws every directory entry.
func abortCase(lines int) Case {
	return Case{Op: "abort", Mode: htm.ModeHTM.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		th := m.Thread(0)
		body := func(tx *htm.Tx) {
			for _, a := range addrs {
				tx.Read(a)
			}
			tx.AbortExplicit()
		}
		return func(n int) {
			for k := 0; k < n; k++ {
				htm.Run(th, htm.ModeHTM, body)
			}
		}
	}}
}

// atomicCase measures the end-to-end sihtm update path — ROT attempt,
// commit, quiescence — for a transaction reading and writing `lines`
// cache lines, through the same Atomic entry point workloads use.
func atomicCase(lines int) Case {
	return Case{Op: "atomic", Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		sys := isihtm.NewSystem(m, 1, isihtm.Config{})
		return func(n int) {
			for k := 0; k < n; k++ {
				sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
					for _, a := range addrs {
						ops.Write(a, ops.Read(a)+1)
					}
				})
			}
		}
	}}
}

// Cases enumerates the full suite over the given footprint sweep.
func Cases(sweep []int) []Case {
	if len(sweep) == 0 {
		sweep = DefaultSweep
	}
	var cs []Case
	for _, mk := range []func(htm.Mode, int) Case{readCase, writeCase, coldReadCase, commitCase} {
		for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
			for _, lines := range sweep {
				cs = append(cs, mk(mode, lines))
			}
		}
	}
	for _, mk := range []func(int) Case{abortCase, atomicCase} {
		for _, lines := range sweep {
			cs = append(cs, mk(lines))
		}
	}
	return cs
}

// CasesFor returns the suite restricted to one operation family.
func CasesFor(op string, sweep []int) []Case {
	var out []Case
	for _, c := range Cases(sweep) {
		if c.Op == op {
			out = append(out, c)
		}
	}
	return out
}

// Run measures one case: it calibrates an iteration count that fills
// roughly the given budget, then times a single measured batch bracketed
// by memory-stat reads, and returns the point as a BenchRecord.
func Run(c Case, budget time.Duration) results.BenchRecord {
	if budget <= 0 {
		budget = 100 * time.Millisecond
	}
	run := c.Setup()
	run(1) // warm up lazily-built state so it is not billed to op 0

	// Calibrate: grow n until one batch fills ~the budget. The final
	// calibration batch doubles as the explicit warm-up: it runs the
	// full measured iteration count, so every pool, spare and
	// lazily-grown slice the steady state needs exists before the
	// measured batch starts.
	n := 1
	for {
		start := time.Now()
		run(n)
		d := time.Since(start)
		if d >= budget || n >= 1<<30 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(budget) / float64(d)
		}
		if grow < 2 {
			grow = 2
		} else if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}

	// Measure with the collector paused: a GC cycle landing inside the
	// batch charges its bookkeeping allocations to the scenario and
	// turns a true zero into a one-in-ten-million blip. The suite's
	// pin is exact zeros, so nothing may allocate but the scenario.
	//
	// Even with GC off, the runtime very occasionally makes a single
	// small internal allocation inside a multi-second window (observed:
	// one 32-byte malloc in ~1 of 30 ten-million-op batches, with no
	// user goroutines running). That noise is indistinguishable from a
	// scenario leak in a single batch, so measure up to a few batches
	// and keep the one with the fewest mallocs: a real scenario
	// allocation recurs in every batch and still shows through, while
	// one-off runtime blips are rejected.
	gcPrev := debug.SetGCPercent(-1)
	var best results.BenchRecord
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		run(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)

		fn := float64(n)
		r := results.BenchRecord{
			Name:        c.Name(),
			Op:          c.Op,
			Mode:        c.Mode,
			Lines:       c.Lines,
			Iters:       uint64(n),
			NsPerOp:     float64(elapsed.Nanoseconds()) / fn,
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / fn,
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / fn,
		}
		if attempt == 0 || r.AllocsPerOp < best.AllocsPerOp {
			best = r
		}
		if best.AllocsPerOp == 0 {
			break
		}
	}
	debug.SetGCPercent(gcPrev)
	return best
}

// RunAll measures every case in the suite over the sweep, invoking
// progress after each point if non-nil.
func RunAll(sweep []int, budget time.Duration, progress func(results.BenchRecord)) []results.BenchRecord {
	var recs []results.BenchRecord
	for _, c := range Cases(sweep) {
		r := Run(c, budget)
		if progress != nil {
			progress(r)
		}
		recs = append(recs, r)
	}
	return recs
}
