// Hot-path microbenchmarks: the software cost of one simulated
// transactional operation as a function of transaction footprint.
// These are thin testing.B views over internal/hotbench, which also
// backs `repro bench` and the BENCH_hotpath.json artifact; see
// docs/performance.md for how to read them.
//
// The file lives in the external test package so it can exercise the
// simulator through hotbench without an import cycle.
package htm_test

import (
	"testing"

	"sihtm/internal/hotbench"
)

func benchCases(b *testing.B, op string) {
	for _, c := range hotbench.CasesFor(op, hotbench.DefaultSweep) {
		b.Run(c.Sub(), func(b *testing.B) {
			run := c.Setup()
			run(1)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// BenchmarkRead measures steady-state Tx.Read at footprints of 1→4096
// tracked lines, in both HTM and ROT modes.
func BenchmarkRead(b *testing.B) { benchCases(b, "read") }

// BenchmarkWrite measures steady-state Tx.Write with write sets of
// 1→4096 lines, in both HTM and ROT modes.
func BenchmarkWrite(b *testing.B) { benchCases(b, "write") }

// BenchmarkColdRead measures a Begin + N first-touch Reads + Commit
// read-only transaction, in both HTM and ROT modes.
func BenchmarkColdRead(b *testing.B) { benchCases(b, "coldread") }

// BenchmarkAbort measures Begin + N tracked Reads + an explicit abort:
// the directory's release path.
func BenchmarkAbort(b *testing.B) { benchCases(b, "abort") }

// BenchmarkCommit measures a full Begin + N×Write + Commit transaction;
// ns/op grows with N by construction, allocs/op must stay at zero.
func BenchmarkCommit(b *testing.B) { benchCases(b, "commit") }
