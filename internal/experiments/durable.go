package experiments

import (
	"fmt"
	"os"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/results"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/vacation"
)

// The durable scenario entries measure the engine with the durability
// subsystem attached: every update transaction's write set is captured
// at the commit hook, sequenced into the write-ahead log, group-commit
// fsynced, and acknowledged before Atomic returns; fuzzy checkpoints
// run concurrently with the measured window. Each cell also verifies
// recovery end-to-end: after the run, the scenario is rebuilt on a
// fresh heap, restored from checkpoint + log, and compared word-for-
// word against the live heap before the workload invariants are
// re-checked on the recovered state.

// durableWindowDefault is the group-commit window the durable-ycsb-a
// and durable-vacation entries run with.
const durableWindowDefault = 500 * time.Microsecond

// durableWindows is the fsync-window ladder of the group-commit sweep.
var durableWindows = []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}

// checkpointer periodically writes fuzzy checkpoints for a store until
// halted — the one lifecycle shared by the durable cells, every durable
// node, and `repro durable`.
type checkpointer struct {
	stop chan struct{}
	done chan struct{}
	err  error
}

// startCheckpointer spawns the ticker goroutine. Checkpoints run
// concurrently with the measured workload, which is the point:
// checkpoints must not perturb correctness.
func startCheckpointer(store *durable.Store, path string, every time.Duration) *checkpointer {
	c := &checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if _, err := store.WriteCheckpoint(path); err != nil {
					c.err = err
					return
				}
			}
		}
	}()
	return c
}

// halt stops the ticker goroutine and reports any checkpoint failure.
// Safe on nil and after a previous halt.
func (c *checkpointer) halt() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
	default:
		close(c.stop)
		<-c.done
	}
	return c.err
}

// durableCell is the per-point scaffolding shared by the durable
// entries: a transient directory holding wal.log + heap.ckpt, the
// store, and a background fuzzy checkpointer.
type durableCell struct {
	dir   string
	store *durable.Store
	ckpt  *checkpointer
}

func openDurableCell(heap *memsim.Heap, m *htm.Machine, window time.Duration) (*durableCell, error) {
	dir, err := os.MkdirTemp("", "sihtm-durable-")
	if err != nil {
		return nil, err
	}
	store, err := durable.Open(heap, logPath(dir),
		m.Topology().MaxThreads(), durable.Config{Window: window, WaitAck: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &durableCell{dir: dir, store: store}, nil
}

func (c *durableCell) startCheckpointer(every time.Duration) {
	c.ckpt = startCheckpointer(c.store, ckptPath(c.dir), every)
}

func (c *durableCell) stopCheckpointer() error {
	err := c.ckpt.halt()
	c.ckpt = nil
	return err
}

func (c *durableCell) close() {
	c.store.Close()
	os.RemoveAll(c.dir)
}

// compareHeaps verifies two heaps hold identical images.
func compareHeaps(live, recovered *memsim.Heap) error {
	if live.Size() != recovered.Size() {
		return fmt.Errorf("heap geometry differs: %d vs %d words", live.Size(), recovered.Size())
	}
	for a := 0; a < live.Size(); a++ {
		if w, g := live.Load(memsim.Addr(a)), recovered.Load(memsim.Addr(a)); w != g {
			return fmt.Errorf("recovered heap differs at word %d: %d, want %d", a, g, w)
		}
	}
	return nil
}

// durableYCSBPoint runs one (system × threads × window) durable YCSB-A
// measurement including the post-run recovery verification, and
// returns the harness result plus the achieved group-commit batch size.
func durableYCSBPoint(y ycsbSpec, sc Scale, system string, threads int, window time.Duration) (harness.Result, float64, error) {
	fail := func(err error) (harness.Result, float64, error) { return harness.Result{}, 0, err }
	m, backend, d, err := y.build(sc, threads)
	if err != nil {
		return fail(err)
	}
	heap := m.Heap()
	cell, err := openDurableCell(heap, m, window)
	if err != nil {
		return fail(err)
	}
	defer cell.close()
	dbackend := engine.NewDurableBackend(backend, cell.store)

	sys, err := NewSystem(system, m, heap, threads)
	if err != nil {
		return fail(err)
	}
	dsys := cell.store.Attach(sys, m)

	cell.startCheckpointer(sc.Measure / 3)
	hr := harness.Run(dsys, threads, sc.Warmup, sc.Measure, d.Workers(dsys))
	hr.System = system
	if err := cell.stopCheckpointer(); err != nil {
		return fail(fmt.Errorf("checkpointer: %w", err))
	}
	// engineCheck on the durable wrapper runs the inner structural
	// invariants plus the log force (DurableBackend.Check), then unwraps
	// for the population-conservation count.
	if err := engineCheck(dbackend, d.Spec().Keys); err != nil {
		return fail(err)
	}

	// Recovery verification: rebuild the scenario deterministically on
	// a fresh heap, restore checkpoint + log, compare to the live image
	// and re-check workload invariants on the recovered state.
	m2, backend2, d2, err := y.build(sc, threads)
	if err != nil {
		return fail(err)
	}
	if _, err := durable.Recover(m2.Heap(), ckptPath(cell.dir), logPath(cell.dir)); err != nil {
		return fail(err)
	}
	if err := compareHeaps(heap, m2.Heap()); err != nil {
		return fail(err)
	}
	if err := engineCheck(backend2, d2.Spec().Keys); err != nil {
		return fail(fmt.Errorf("recovered state: %w", err))
	}

	st := cell.store.Log().Stats()
	batch := float64(st.Records)
	if st.Fsyncs > 0 {
		batch = float64(st.Records) / float64(st.Fsyncs)
	}
	return hr, batch, nil
}

// durableYCSBEntry is durable YCSB-A: the update-heavy mix with full
// durability (capture, group commit, ack) across the thread ladder.
func durableYCSBEntry() Entry {
	y := ycsbSpecs[0] // ycsb-a
	e := Entry{
		ID:           "durable-ycsb-a",
		Title:        "Durable YCSB-A: group-commit WAL + fuzzy checkpoints + post-run recovery check",
		Workload:     "durable",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("ycsb-a window=%s ack=fsync ckpt=fuzzy", durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			hr, _, err := durableYCSBPoint(y, sc, system, n, durableWindowDefault)
			if err != nil {
				return fmt.Errorf("durable-ycsb-a %s/%d: %w", system, n, err)
			}
			hook(e.record("", hr))
		}
		return nil
	}
	return e
}

// durableWindowEntry is the group-commit-window sweep: fixed thread
// count, fsync window swept from flush-on-demand (0) to 5ms batches.
// The window buys fsync amortization — the achieved batch size
// (records per fsync, recorded in each point's parameter string) grows
// with it — at the price of acknowledgement latency: a committer waits
// out the rest of the window before its fsync. Which side wins depends
// on storage: with fast fsyncs (CI tmpfs) commit admission is
// latency-bound and throughput falls as the window grows, while on
// fsync-expensive devices the amortization side dominates; the sweep
// exposes both quantities so either regime is readable from the data.
func durableWindowEntry() Entry {
	y := ycsbSpecs[0]
	const threads = 8
	e := Entry{
		ID:       "durable-window",
		Title:    "Group-commit window sweep: durable YCSB-A throughput vs fsync window (8 threads)",
		Workload: "durable",
		Systems:  []string{"si-htm", "htm"},
		Params:   fmt.Sprintf("ycsb-a windows=%v threads=%d ack=fsync", durableWindows, threads),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		n := threads
		if sc.MaxThreads > 0 && n > sc.MaxThreads {
			n = sc.MaxThreads
		}
		for _, w := range durableWindows {
			hr, batch, err := durableYCSBPoint(y, sc, system, n, w)
			if err != nil {
				return fmt.Errorf("durable-window %s/%s: %w", system, w, err)
			}
			hook(e.record(fmt.Sprintf("window=%s batch=%.1f", w, batch), hr))
		}
		return nil
	}
	return e
}

// durableVacationPoint runs one durable vacation measurement including
// the recovery verification (conservation invariant on the recovered
// state).
func durableVacationPoint(v vacationSpec, sc Scale, system string, threads int) (harness.Result, error) {
	fail := func(err error) (harness.Result, error) { return harness.Result{}, err }
	cfg := v.config(sc, threads)
	heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	mgr, err := vacation.NewManager(heap, cfg)
	if err != nil {
		return fail(err)
	}
	cell, err := openDurableCell(heap, m, durableWindowDefault)
	if err != nil {
		return fail(err)
	}
	defer cell.close()

	sys, err := NewSystem(system, m, heap, threads)
	if err != nil {
		return fail(err)
	}
	dsys := cell.store.Attach(sys, m)
	mkWorker := func(thread int) func() {
		w, err := mgr.NewWorker(dsys, thread)
		if err != nil {
			panic(err)
		}
		return func() { w.Op() }
	}

	cell.startCheckpointer(sc.Measure / 3)
	hr := harness.Run(dsys, threads, sc.Warmup, sc.Measure, mkWorker)
	hr.System = system
	if err := cell.stopCheckpointer(); err != nil {
		return fail(fmt.Errorf("checkpointer: %w", err))
	}
	if err := mgr.CheckConsistency(); err != nil {
		return fail(err)
	}
	if err := cell.store.Sync(); err != nil {
		return fail(err)
	}

	// Recovery: rebuild the database deterministically, restore, compare
	// and re-verify the conservation invariant on the recovered heap.
	heap2 := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	mgr2, err := vacation.NewManager(heap2, cfg)
	if err != nil {
		return fail(err)
	}
	if _, err := durable.Recover(heap2, ckptPath(cell.dir), logPath(cell.dir)); err != nil {
		return fail(err)
	}
	if err := compareHeaps(heap, heap2); err != nil {
		return fail(err)
	}
	if err := mgr2.CheckConsistency(); err != nil {
		return fail(fmt.Errorf("recovered state: %w", err))
	}
	return hr, nil
}

// durableVacationEntry is the durable vacation scenario (low-contention
// configuration) across the thread ladder.
func durableVacationEntry() Entry {
	v := vacationSpecs[0] // vacation-low
	e := Entry{
		ID:           "durable-vacation",
		Title:        "Durable vacation: reservations with group-commit WAL, conservation re-checked after replay",
		Workload:     "durable",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("vacation-low window=%s ack=fsync ckpt=fuzzy", durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			hr, err := durableVacationPoint(v, sc, system, n)
			if err != nil {
				return fmt.Errorf("durable-vacation %s/%d: %w", system, n, err)
			}
			hook(e.record("", hr))
		}
		return nil
	}
	return e
}

// durableEntries builds the durability scenario entries in
// presentation order.
func durableEntries() []Entry {
	return []Entry{durableYCSBEntry(), durableVacationEntry(), durableWindowEntry()}
}
