package durable

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/silo"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// snapshotHeap copies the heap image (words + allocation watermark).
func snapshotHeap(h *memsim.Heap) ([]uint64, int) {
	img := make([]uint64, h.Size())
	for a := range img {
		img[a] = h.Load(memsim.Addr(a))
	}
	return img, h.Allocated()
}

// restoreHeap writes an image into a fresh heap of the same geometry.
func restoreHeap(h *memsim.Heap, img []uint64, allocated int) {
	for a, v := range img {
		h.Store(memsim.Addr(a), v)
	}
	h.RestoreAllocated(allocated)
}

func heapsEqual(t *testing.T, want, got *memsim.Heap, label string) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("%s: heap sizes differ (%d vs %d)", label, want.Size(), got.Size())
	}
	diffs := 0
	for a := 0; a < want.Size(); a++ {
		if w, g := want.Load(memsim.Addr(a)), got.Load(memsim.Addr(a)); w != g {
			if diffs < 5 {
				t.Errorf("%s: word %d = %d, want %d", label, a, g, w)
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Fatalf("%s: %d words differ", label, diffs)
	}
}

// sysFactory builds a system over a fresh machine/heap. The tiny TMCAM
// forces the HTM-based systems onto their SGL fall-back regularly, so
// both the hardware hook and the Recorder path are exercised.
type sysFactory struct {
	name string
	mk   func(heap *memsim.Heap, threads int) (tm.System, *htm.Machine)
}

func factories() []sysFactory {
	newMachine := func(h *memsim.Heap) *htm.Machine {
		return htm.NewMachine(h, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 8})
	}
	return []sysFactory{
		{"htm", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return htmtm.NewSystem(m, n, htmtm.Config{}), m
		}},
		{"si-htm", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return sihtm.NewSystem(m, n, sihtm.Config{}), m
		}},
		{"p8tm", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return p8tm.NewSystem(m, n, p8tm.Config{}), m
		}},
		{"sgl", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return sgl.NewSystem(m, n), m
		}},
		{"silo", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			return silo.NewSystem(h, n), nil
		}},
	}
}

// TestRecoveryMatchesLiveState: for every system, a concurrent mixed
// workload committed through the durable wrapper recovers — from the
// base image plus the log alone — to exactly the live final heap.
func TestRecoveryMatchesLiveState(t *testing.T) {
	const threads, perThread, accounts = 4, 300, 8
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			heap := memsim.NewHeapLines(256)
			accts := make([]memsim.Addr, accounts)
			for i := range accts {
				accts[i] = heap.AllocLine()
				heap.Store(accts[i], 1000)
			}
			big := heap.AllocLines(32) // spills the 8-line TMCAM → fall-backs
			base, baseAlloc := snapshotHeap(heap)

			sys, m := f.mk(heap, threads)
			logPath := filepath.Join(t.TempDir(), "wal.log")
			store, err := Open(heap, logPath, 16, Config{Window: 500 * time.Microsecond, WaitAck: true})
			if err != nil {
				t.Fatal(err)
			}
			dsys := store.Attach(sys, m)

			var wg sync.WaitGroup
			for id := 0; id < threads; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					seed := uint64(id)*0x9e3779b97f4a7c15 + 1
					next := func(n int) int {
						seed = seed*6364136223846793005 + 1442695040888963407
						return int((seed >> 33) % uint64(n))
					}
					for i := 0; i < perThread; i++ {
						switch i % 5 {
						case 4: // read-only audit: must not reach the log
							dsys.Atomic(id, tm.KindReadOnly, func(ops tm.Ops) {
								s := uint64(0)
								for _, a := range accts {
									s += ops.Read(a)
								}
							})
						case 3: // large write set: forces the fall-back path
							dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
								for l := 0; l < 32; l++ {
									a := big + memsim.Addr(l*memsim.WordsPerLine)
									ops.Write(a, ops.Read(a)+1)
								}
							})
						default: // transfer
							from, to := accts[next(accounts)], accts[next(accounts)]
							amt := uint64(next(7))
							dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
								fv := ops.Read(from)
								if fv < amt || from == to {
									return
								}
								ops.Write(from, fv-amt)
								ops.Write(to, ops.Read(to)+amt)
							})
						}
					}
				}(id)
			}
			wg.Wait()
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := memsim.NewHeap(heap.Size())
			restoreHeap(recovered, base, baseAlloc)
			rep, err := Recover(recovered, "", logPath)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Replay.TailBytes != 0 {
				t.Fatalf("clean shutdown left a torn tail: %s", rep.Replay)
			}
			heapsEqual(t, heap, recovered, f.name)
			if rep.RecoveredSeq == 0 {
				t.Fatal("no transactions were logged")
			}
		})
	}
}

// TestFuzzyCheckpointEquivalence: checkpoints written while the
// workload runs recover to the same state as replaying the full log
// from the base image.
func TestFuzzyCheckpointEquivalence(t *testing.T) {
	const threads, perThread = 4, 400
	heap := memsim.NewHeapLines(128)
	cells := make([]memsim.Addr, 16)
	for i := range cells {
		cells[i] = heap.AllocLine()
	}
	base, baseAlloc := snapshotHeap(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 8})
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	ckptPath := filepath.Join(dir, "heap.ckpt")
	store, err := Open(heap, logPath, 16, Config{Window: 200 * time.Microsecond, WaitAck: true})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				c := cells[(id*perThread+i)%len(cells)]
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					ops.Write(c, ops.Read(c)+1)
				})
			}
		}(id)
	}
	// Checkpoint repeatedly while the workload runs: each overwrite
	// leaves the newest complete image under ckptPath.
	workersDone := waitGroupDone(&wg)
	ckpts := 0
	for done := false; !done; {
		select {
		case <-workersDone:
			done = true
		default:
			if _, err := store.WriteCheckpoint(ckptPath); err != nil {
				t.Fatal(err)
			}
			ckpts++
		}
	}
	wg.Wait()
	if ckpts == 0 {
		t.Fatal("no fuzzy checkpoint was written while the workload ran")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	viaCkpt := memsim.NewHeap(heap.Size())
	repC, err := Recover(viaCkpt, ckptPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !repC.CheckpointUsed {
		t.Fatal("recovery did not use the checkpoint")
	}
	viaBase := memsim.NewHeap(heap.Size())
	restoreHeap(viaBase, base, baseAlloc)
	repB, err := Recover(viaBase, "", logPath)
	if err != nil {
		t.Fatal(err)
	}
	heapsEqual(t, viaBase, viaCkpt, "checkpoint-vs-full-replay")
	heapsEqual(t, heap, viaCkpt, "checkpoint-vs-live")
	if repC.RecoveredSeq != repB.RecoveredSeq {
		t.Fatalf("recovered seq differs: checkpoint %d, base %d", repC.RecoveredSeq, repB.RecoveredSeq)
	}
	if repC.Skipped == 0 && repC.Watermark > 0 {
		t.Errorf("watermark %d but no records were skipped", repC.Watermark)
	}
}

// waitGroupDone adapts a WaitGroup to a select-able channel.
func waitGroupDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// TestCrashPrefixAndAcks: the log image copied while the workload runs
// (the crash) recovers to an exact commit prefix that contains every
// transaction acknowledged before the copy.
func TestCrashPrefixAndAcks(t *testing.T) {
	const threads = 4
	heap := memsim.NewHeapLines(64)
	counter := heap.AllocLine()
	base, baseAlloc := snapshotHeap(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
	sys := htmtm.NewSystem(m, threads, htmtm.Config{})
	logPath := filepath.Join(t.TempDir(), "wal.log")
	store, err := Open(heap, logPath, 16, Config{Window: 200 * time.Microsecond, WaitAck: true})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)

	var acked atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !stop.Load() {
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					ops.Write(counter, ops.Read(counter)+1)
				})
				acked.Add(1) // Atomic returned ⇒ record fsynced
			}
		}(id)
	}

	time.Sleep(20 * time.Millisecond)
	// "Crash": snapshot the ack count, then copy the log file while
	// appends and fsyncs continue — exactly what a SIGKILL preserves.
	ackedAtCrash := acked.Load()
	crashImage := copyFile(t, logPath)
	stop.Store(true)
	wg.Wait()
	store.Close()

	recovered := memsim.NewHeap(heap.Size())
	restoreHeap(recovered, base, baseAlloc)
	rep, err := Recover(recovered, "", crashImage)
	if err != nil {
		t.Fatal(err)
	}
	// Every commit increments the counter once, and commits are
	// sequenced 1,2,3,...: an exact prefix of K commits leaves the
	// counter at exactly K.
	if got := recovered.Load(counter); got != rep.RecoveredSeq {
		t.Fatalf("counter = %d after recovering to seq %d: not an exact prefix", got, rep.RecoveredSeq)
	}
	if rep.RecoveredSeq < ackedAtCrash {
		t.Fatalf("recovered only %d commits but %d were acknowledged before the crash",
			rep.RecoveredSeq, ackedAtCrash)
	}
}

func copyFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := path + ".crash"
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointWritesSGLFree: a fuzzy checkpoint taken while a
// system's single global lock is held must restore the lock as free.
// The lock word lives in the heap but no log record ever resets it, so
// an image that kept the holder's value would recover a heap whose
// first fall-back spins forever. The body checkpoints on every
// execution; its 32-line write set overflows the 8-line TMCAM, so the
// last execution — whose image survives — runs on the SGL fall-back
// with the lock held.
func TestCheckpointWritesSGLFree(t *testing.T) {
	for _, f := range factories() {
		if f.name == "silo" { // no SGL: Silo locks lines outside the heap
			continue
		}
		f := f
		t.Run(f.name, func(t *testing.T) {
			heap := memsim.NewHeapLines(64)
			big := heap.AllocLines(32)
			sys, m := f.mk(heap, 2)
			dir := t.TempDir()
			logPath := filepath.Join(dir, "wal.log")
			ckptPath := filepath.Join(dir, "heap.ckpt")
			store, err := Open(heap, logPath, 16, Config{WaitAck: true})
			if err != nil {
				t.Fatal(err)
			}
			dsys := store.Attach(sys, m)
			var ckptErr error
			dsys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
				for l := 0; l < 32; l++ {
					a := big + memsim.Addr(l*memsim.WordsPerLine)
					ops.Write(a, ops.Read(a)+1)
				}
				_, ckptErr = store.WriteCheckpoint(ckptPath)
			})
			if ckptErr != nil {
				t.Fatal(ckptErr)
			}
			if sys.Collector().Snapshot().Fallbacks == 0 {
				t.Fatal("the transaction never took the SGL fall-back; the image was not taken under the lock")
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			recovered := memsim.NewHeap(heap.Size())
			if _, err := Recover(recovered, ckptPath, logPath); err != nil {
				t.Fatal(err)
			}
			heapsEqual(t, heap, recovered, "recovered-vs-live")
		})
	}
}
