package htm_test

import (
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/topology"
)

// TestCommittedTxSteadyStateAllocs pins the whole simulated transaction
// path — Begin, tracked reads, buffered writes, Commit — at zero heap
// allocations per committed transaction once the thread's pooled
// footprint state is warm. This is the acceptance bar of the O(1)
// footprint-tracking work: the simulator must be able to run the
// paper's footprint sweeps without the Go allocator in the loop.
//
// A capacity-aborted transaction is pinned too: cleanup releases every
// directory entry the attempt created, and the slots are reused by the
// next attempt rather than reallocated.
func TestCommittedTxSteadyStateAllocs(t *testing.T) {
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		t.Run(mode.String(), func(t *testing.T) {
			heap := memsim.NewHeapLines(256)
			m := htm.NewMachine(heap, htm.Config{Topology: topology.New(1, 1), TMCAMLines: 128})
			const lines = 24
			addrs := make([]memsim.Addr, lines)
			for i := range addrs {
				addrs[i] = heap.AllocLine()
			}
			over := heap.AllocLines(129) // one line past the TMCAM
			th := m.Thread(0)
			body := func() {
				tx := th.Begin(mode)
				var sum uint64
				for _, a := range addrs {
					sum += tx.Read(a)
				}
				for _, a := range addrs {
					tx.Write(a, sum)
				}
				tx.Commit()
			}
			body() // warm up the pooled footprint state and directory slots
			if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
				t.Fatalf("steady-state committed %s transaction allocates %.1f/op, want 0", mode, allocs)
			}
			overflow := func() {
				ab := htm.Run(th, mode, func(tx *htm.Tx) {
					for i := 0; i < 129; i++ {
						a := over + memsim.Addr(i*memsim.WordsPerLine)
						if mode == htm.ModeHTM {
							tx.Read(a)
						} else {
							tx.Write(a, 1) // ROT reads are untracked
						}
					}
				})
				if ab == nil || ab.Code != htm.CodeCapacity {
					t.Fatalf("overflowing %s transaction: abort = %v, want capacity", mode, ab)
				}
			}
			overflow()
			if allocs := testing.AllocsPerRun(100, overflow); allocs != 0 {
				t.Fatalf("capacity-aborted %s transaction allocates %.1f/op, want 0", mode, allocs)
			}
			if !m.DirectoryQuiescent() {
				t.Fatal("directory not quiescent after runs")
			}
		})
	}
}
