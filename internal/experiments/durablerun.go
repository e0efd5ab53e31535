package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/vacation"
)

// This file is the crash-recovery pipeline behind `repro durable` and
// `repro recover`: StartDurable runs a durable scenario against an
// on-disk run directory (meta.json + wal.log + heap.ckpt) until it is
// killed — the intended crash — and RecoverDurable later rebuilds the
// scenario deterministically from meta.json, restores checkpoint + log,
// and re-checks the workload invariants on the recovered state.

// DurableMeta is the run descriptor persisted as meta.json — everything
// recovery needs to rebuild the scenario's deterministic base state.
type DurableMeta struct {
	Scenario string `json:"scenario"` // "ycsb-a" or "vacation"
	System   string `json:"system"`
	Scale    string `json:"scale"`
	Threads  int    `json:"threads"`
	WindowNS int64  `json:"window_ns"`
}

// DurableScenarioNames lists the scenarios StartDurable accepts.
func DurableScenarioNames() []string { return []string{"ycsb-a", "vacation"} }

func metaPath(dir string) string { return filepath.Join(dir, "meta.json") }
func logPath(dir string) string  { return filepath.Join(dir, "wal.log") }
func ckptPath(dir string) string { return filepath.Join(dir, "heap.ckpt") }

// durableWorkload is the scenario-shape abstraction shared by the
// runner and recovery: build the deterministic base (heap populated,
// machine ready) and check invariants on a (possibly recovered) state.
type durableWorkload struct {
	heap     *memsim.Heap
	machine  *htm.Machine
	mkWorker func(sys tm.System) func(thread int) func()
	check    func() error
}

// buildDurableWorkload constructs a scenario's deterministic base state.
func buildDurableWorkload(meta DurableMeta, sc Scale) (*durableWorkload, error) {
	switch meta.Scenario {
	case "ycsb-a":
		y := ycsbSpecs[0]
		m, backend, d, err := y.build(sc, meta.Threads)
		if err != nil {
			return nil, err
		}
		return &durableWorkload{
			heap:    m.Heap(),
			machine: m,
			mkWorker: func(sys tm.System) func(thread int) func() {
				return d.Workers(sys)
			},
			check: func() error { return engineCheck(backend, d.Spec().Keys) },
		}, nil
	case "vacation":
		v := vacationSpecs[0]
		cfg := v.config(sc, meta.Threads)
		heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
		m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
		mgr, err := vacation.NewManager(heap, cfg)
		if err != nil {
			return nil, err
		}
		return &durableWorkload{
			heap:    heap,
			machine: m,
			mkWorker: func(sys tm.System) func(thread int) func() {
				return func(thread int) func() {
					w, err := mgr.NewWorker(sys, thread)
					if err != nil {
						panic(err)
					}
					return func() { w.Op() }
				}
			},
			check: mgr.CheckConsistency,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown durable scenario %q (known: %v)",
			meta.Scenario, DurableScenarioNames())
	}
}

// StartDurable populates the scenario, writes meta.json, and runs the
// durable workload against dir until duration elapses (0 = until the
// process is killed — the crash the recovery pipeline exists for).
// Checkpoints are written to heap.ckpt on ckptEvery intervals (0
// disables them). progress (may be nil) receives one line per second.
func StartDurable(dir string, meta DurableMeta, duration, ckptEvery time.Duration, progress io.Writer) error {
	sc, err := ScaleByName(meta.Scale)
	if err != nil {
		return err
	}
	sc = sc.withDefaults()
	if meta.Threads <= 0 {
		return fmt.Errorf("experiments: durable run needs a positive thread count")
	}
	w, err := buildDurableWorkload(meta, sc)
	if err != nil {
		return err
	}
	if err := prepareRunDir(dir, meta); err != nil {
		return err
	}

	store, err := durable.Open(w.heap, logPath(dir), w.machine.Topology().MaxThreads(),
		durable.Config{Window: time.Duration(meta.WindowNS), WaitAck: true})
	if err != nil {
		return err
	}
	sys, err := NewSystem(meta.System, w.machine, w.heap, meta.Threads)
	if err != nil {
		return err
	}
	dsys := store.Attach(sys, w.machine)

	stopWorkers := runWorkers(meta.Threads, w.mkWorker(dsys))
	var ckpt *checkpointer
	var ckptFailed <-chan struct{} // closes only when a checkpoint fails
	if ckptEvery > 0 {
		ckpt = startCheckpointer(store, ckptPath(dir), ckptEvery)
		ckptFailed = ckpt.done
	}
	start := time.Now()
	report := time.NewTicker(time.Second)
	defer report.Stop()
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	for {
		select {
		case <-report.C:
			if progress != nil {
				st := store.Log().Stats()
				fmt.Fprintf(progress, "t=%s commits=%d durable_seq=%d fsyncs=%d\n",
					time.Since(start).Round(time.Second), dsys.Collector().Snapshot().Commits,
					store.Log().DurableSeq(), st.Fsyncs)
			}
		case <-ckptFailed:
			return ckpt.halt()
		case <-deadline:
			stopWorkers()
			if err := ckpt.halt(); err != nil {
				return err
			}
			if err := w.check(); err != nil {
				return fmt.Errorf("experiments: post-run invariants: %w", err)
			}
			return store.Close()
		}
	}
}

// prepareRunDir readies a run directory for a fresh durable run — the
// one setup `repro durable` and a durable `repro serve` share. A fresh
// run truncates wal.log (wal.Create), so a checkpoint left by a
// previous run in the same directory belongs to a different history:
// recovery restoring it over the new log would produce a state from
// neither run. It is removed up front, and meta.json records what
// recovery needs to rebuild the deterministic base.
func prepareRunDir(dir string, meta DurableMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, stale := range []string{ckptPath(dir), ckptPath(dir) + ".tmp"} {
		if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(metaPath(dir), append(mj, '\n'), 0o644)
}

// DurableRecovery is the JSON-serializable outcome of RecoverDurable —
// the replayed BENCH artifact the CI recovery smoke uploads.
type DurableRecovery struct {
	Meta           DurableMeta `json:"meta"`
	CheckpointUsed bool        `json:"checkpoint_used"`
	Watermark      uint64      `json:"watermark"`
	RecoveredSeq   uint64      `json:"recovered_seq"`
	RecordsApplied int         `json:"records_applied"`
	RecordsSkipped int         `json:"records_skipped"`
	TailBytes      int64       `json:"tail_bytes_discarded"`
	InvariantsOK   bool        `json:"invariants_ok"`
	Detail         string      `json:"detail"`
}

// RecoverDurable crash-replays a run directory: it rebuilds the
// scenario's deterministic base from meta.json, restores heap.ckpt (if
// the crash left one) plus the wal.log valid prefix, and re-checks the
// scenario invariants on the recovered state. The returned error is
// non-nil when recovery itself fails or the invariants do not hold.
func RecoverDurable(dir string) (DurableRecovery, error) {
	var out DurableRecovery
	mj, err := os.ReadFile(metaPath(dir))
	if err != nil {
		return out, fmt.Errorf("experiments: recover: %w", err)
	}
	if err := json.Unmarshal(mj, &out.Meta); err != nil {
		return out, fmt.Errorf("experiments: recover: meta.json: %w", err)
	}
	sc, err := ScaleByName(out.Meta.Scale)
	if err != nil {
		return out, err
	}
	sc = sc.withDefaults()
	w, err := buildDurableWorkload(out.Meta, sc)
	if err != nil {
		return out, err
	}
	rep, err := durable.Recover(w.heap, ckptPath(dir), logPath(dir))
	out.CheckpointUsed = rep.CheckpointUsed
	out.Watermark = rep.Watermark
	out.RecoveredSeq = rep.RecoveredSeq
	out.RecordsApplied = rep.Applied
	out.RecordsSkipped = rep.Skipped
	out.TailBytes = rep.Replay.TailBytes
	if err != nil {
		out.Detail = err.Error()
		return out, err
	}
	if err := w.check(); err != nil {
		out.Detail = err.Error()
		return out, fmt.Errorf("experiments: recovered state violates invariants: %w", err)
	}
	out.InvariantsOK = true
	out.Detail = rep.String()
	return out, nil
}
