package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"sihtm/internal/experiments"
	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/hashmap"
	"sihtm/internal/workload/tpcc"
	"sihtm/internal/workload/ycsb"
)

// systems are the concurrency controls every workload measures: the
// paper's HTM baseline, SI-HTM, P8TM and Silo.
var systems = []string{"htm", "si-htm", "p8tm", "silo"}

// workers is the closed-loop worker count of the in-process workloads:
// one per CPU of the two-CPU reference host.
const workers = 2

// fingerprintOps is the length of the single-thread model fingerprint
// replay, and fingerprintSeed its fixed input: the replay must repeat
// exactly on every run, whatever --seed is.
const (
	fingerprintOps  = 20000
	fingerprintSeed = 1
)

// simBuild constructs one system's copy of a workload: a fresh heap,
// machine and data set, the system, and persistent per-thread workers.
type simBuild func(system string, threads int, seed uint64) (*simCell, error)

// simCell is one (workload × system) instance ready to run.
type simCell struct {
	system string
	sys    tm.System
	sw     *switchSystem
	traced *tracedSystem
	op     []func() // per-thread: run one request
	check  func() error

	client []clientTrack

	// Untraced and traced window totals, summed over slices. The traced
	// wrapper itself accumulates only over the traced slices.
	plain, tr window
}

// clientTrack is one worker's client-side view: requests issued and the
// latency of those that started inside a measurement window.
type clientTrack struct {
	hist stats.Histogram
	ops  uint64
	_    [56]byte
}

// window accumulates one system's measurement slices: the simulated
// statistics summed, and each slice's throughput kept so a burst of
// host noise in one slice cannot move the reported median.
type window struct {
	stats stats.Stats
	rates []float64
}

func (w *window) add(r harness.Result) {
	w.stats = addStats(w.stats, r.Stats)
	w.rates = append(w.rates, r.Throughput)
}

// txPerS is the median slice throughput.
func (w window) txPerS() float64 { return median(w.rates) }

func addStats(a, b stats.Stats) stats.Stats {
	a.Commits += b.Commits
	a.CommitsRO += b.CommitsRO
	for k := range a.Aborts {
		a.Aborts[k] += b.Aborts[k]
	}
	a.Fallbacks += b.Fallbacks
	a.WaitSpins += b.WaitSpins
	a.HWBeginROT += b.HWBeginROT
	a.HWBeginHTM += b.HWBeginHTM
	return a
}

// newCell wires a built system and its workers' op functions: sw is the
// switchable system the workers were bound to.
func newCell(system string, sys tm.System, sw *switchSystem, ops []func(), check func() error) *simCell {
	return &simCell{
		system: system, sys: sys, sw: sw, traced: newTracedSystem(sys),
		op: ops, check: check, client: make([]clientTrack, len(ops)),
	}
}

// newMachine builds the paper's 10-core SMT-8 POWER8 model over a fresh
// heap, as every experiment of the repository does.
func newMachine(lines int) (*memsim.Heap, *htm.Machine) {
	heap := memsim.NewHeapLines(lines)
	return heap, htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
}

// newSwitched builds the named system and the switchable view workers
// bind to.
func newSwitched(system string, m *htm.Machine, heap *memsim.Heap, threads int) (tm.System, *switchSystem, error) {
	sys, err := experiments.NewSystem(system, m, heap, threads)
	if err != nil {
		return nil, nil, err
	}
	return sys, &switchSystem{System: sys, cur: sys}, nil
}

// Paper §4.1 hash map at paper size: 10 buckets × 200 one-line nodes,
// 90% lookups.
const (
	hmBuckets    = 10
	hmElems      = 200
	hmROPercent  = 90
	tpccWarehses = workers // one home warehouse per worker
	tpccScaleDiv = 10
	kvKeys       = 8192
	kvChain      = 8
	kvOpsPerTx   = 8
)

func buildHashmap(system string, threads int, seed uint64) (*simCell, error) {
	cfg := hashmap.BenchConfig{Buckets: hmBuckets, ElementsPerBucket: hmElems, ReadOnlyPercent: hmROPercent, Seed: seed}
	heap, m := newMachine(cfg.HeapLinesNeeded())
	b, err := hashmap.NewBenchmark(heap, cfg)
	if err != nil {
		return nil, err
	}
	sys, sw, err := newSwitched(system, m, heap, threads)
	if err != nil {
		return nil, err
	}
	ops := make([]func(), threads)
	for i := range ops {
		ops[i] = b.NewWorker(sw, i).Op
	}
	initial := b.Map.Size()
	check := func() error { return checkHashmap(b, heap, initial, threads) }
	return newCell(system, sys, sw, ops, check), nil
}

// checkHashmap verifies the map after a run. Lookups never write and
// every insert is followed by the remove of the same key, so the
// original even-key population is intact and each worker adds at most
// the one key it inserted before being stopped.
func checkHashmap(b *hashmap.Benchmark, heap *memsim.Heap, initial, threads int) error {
	keys, ok := b.Map.WalkBounded(10 * (initial + threads))
	if !ok {
		return fmt.Errorf("hash map chain does not terminate")
	}
	if n := len(keys); n < initial || n > initial+threads {
		return fmt.Errorf("hash map holds %d keys, want %d..%d", n, initial, initial+threads)
	}
	space := b.Config().KeySpace()
	seen := make(map[uint64]bool, len(keys))
	ops := engine.DirectOps{Heap: heap}
	for _, k := range keys {
		if seen[k] || k >= space {
			return fmt.Errorf("hash map key %d duplicated or outside the key space", k)
		}
		seen[k] = true
		if v, ok := b.Map.Lookup(ops, k); !ok || v != k*10 {
			return fmt.Errorf("hash map key %d reads (%d, %v), want %d", k, v, ok, k*10)
		}
	}
	for k := uint64(0); k < space; k += 2 {
		if !seen[k] {
			return fmt.Errorf("hash map lost populated key %d", k)
		}
	}
	return nil
}

func buildTPCC(system string, threads int, seed uint64) (*simCell, error) {
	cfg := tpcc.Config{Warehouses: tpccWarehses, ScaleDiv: tpccScaleDiv, Seed: seed}
	heap, m := newMachine(cfg.HeapLinesNeeded())
	db, err := tpcc.NewDB(heap, cfg)
	if err != nil {
		return nil, err
	}
	sys, sw, err := newSwitched(system, m, heap, threads)
	if err != nil {
		return nil, err
	}
	ops := make([]func(), threads)
	for i := range ops {
		w, err := db.NewWorker(sw, i, tpcc.StandardMix)
		if err != nil {
			return nil, err
		}
		ops[i] = func() { w.Op() }
	}
	return newCell(system, sys, sw, ops, db.CheckConsistency), nil
}

// buildKVEngine is the transaction layer under the kv-durable service:
// the same 8,192-key hash-map build, uniform keys, YCSB-A's 50% read /
// 50% read-modify-write, eight operations per transaction, run in
// process with no network or log.
func buildKVEngine(system string, threads int, seed uint64) (*simCell, error) {
	spec, err := ycsb.Spec(ycsb.Config{Workload: ycsb.A, Keys: kvKeys, UniformKeys: true, OpsPerTx: kvOpsPerTx, Seed: seed})
	if err != nil {
		return nil, err
	}
	buckets := kvKeys / kvChain
	heap, m := newMachine(engine.HashmapHeapLines(spec, buckets))
	backend := engine.NewHashmapBackend(heap, buckets)
	engine.Populate(backend, spec)
	d, err := engine.New(spec, backend)
	if err != nil {
		return nil, err
	}
	sys, sw, err := newSwitched(system, m, heap, threads)
	if err != nil {
		return nil, err
	}
	mk := d.Workers(sw)
	ops := make([]func(), threads)
	for i := range ops {
		ops[i] = mk(i)
	}
	check := func() error {
		if err := backend.Check(); err != nil {
			return err
		}
		if n := backend.Map().Size(); n != kvKeys {
			return fmt.Errorf("kv engine holds %d keys, want %d", n, kvKeys)
		}
		return nil
	}
	return newCell(system, sys, sw, ops, check), nil
}

// simRun measures a set of cells in interleaved rounds so that a burst
// of host noise lands on every system alike. Each slice is one
// harness.Run window; traced runs pair every untraced slice with a
// traced one on the same cell.
type simRun struct {
	cells   []*simCell
	traced  bool
	seconds float64 // total measured time across all slices
	rounds  int

	windowStart atomic.Int64
	cpu         time.Duration // process CPU over all slices, warm-ups included
	requests    uint64        // requests issued over the same span
	p50, p99    []float64     // untraced client latency of each round, all cells pooled
}

// sliceWarmup precedes every measured slice, after the switch from
// another system has cooled the caches. simRounds is how many times a
// run cycles through the systems.
const (
	sliceWarmup = 100 * time.Millisecond
	simRounds   = 12
)

func (r *simRun) run() {
	per := len(r.cells) * r.rounds
	if r.traced {
		per *= 2
	}
	slice := time.Duration(r.seconds / float64(per) * float64(time.Second))
	for round := 0; round < r.rounds; round++ {
		h0 := r.clientHist()
		for _, c := range r.cells {
			c.sw.cur = c.sys
			c.plain.add(r.slice(c, slice, true))
			if r.traced {
				c.sw.cur = c.traced
				c.tr.add(r.slice(c, slice, false))
				c.sw.cur = c.sys
			}
		}
		h := r.clientHist().Sub(h0)
		r.p50 = append(r.p50, ms(h.Quantile(0.50)))
		r.p99 = append(r.p99, ms(h.Quantile(0.99)))
	}
}

// slice runs one harness window on c. Requests are counted always and,
// when timed (untraced slices only), timed on the client side.
func (r *simRun) slice(c *simCell, measure time.Duration, timed bool) harness.Result {
	var ops0 uint64
	for i := range c.client {
		ops0 += c.client[i].ops
	}
	cpu0 := cpuTime()
	start := time.Now().Add(sliceWarmup).UnixNano()
	if !timed {
		start = math.MaxInt64
	}
	r.windowStart.Store(start)
	res := harness.Run(c.sw, len(c.op), sliceWarmup, measure, func(thread int) func() {
		op, ct := c.op[thread], &c.client[thread]
		return func() {
			t0 := time.Now()
			op()
			ct.ops++
			if t0.UnixNano() >= r.windowStart.Load() {
				ct.hist.Observe(time.Since(t0))
			}
		}
	})
	r.cpu += cpuTime() - cpu0
	for i := range c.client {
		r.requests += c.client[i].ops
	}
	r.requests -= ops0
	return res
}

// clientHist merges every cell's client-side latency histogram.
func (r *simRun) clientHist() stats.HistogramSnapshot {
	var h stats.HistogramSnapshot
	for _, c := range r.cells {
		for i := range c.client {
			h = addHist(h, c.client[i].hist.Snapshot())
		}
	}
	return h
}

// buildCells builds one cell per system.
func buildCells(build simBuild, threads int, seed uint64) ([]*simCell, error) {
	cells := make([]*simCell, 0, len(systems))
	for _, s := range systems {
		c, err := build(s, threads, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// fingerprint replays a fixed single-thread request stream on a fresh
// build of each system and returns the simulated counts. They depend
// only on the model, never on host speed, so they must repeat exactly.
func fingerprint(build simBuild, out *report) error {
	for _, s := range systems {
		c, err := build(s, 1, fingerprintSeed)
		if err != nil {
			return fmt.Errorf("fingerprint %s: %w", s, err)
		}
		res := harness.RunOps(c.sys, 1, fingerprintOps, func(int) func() { return c.op[0] })
		if err := c.check(); err != nil {
			return fmt.Errorf("fingerprint %s: %w", s, err)
		}
		st := res.Stats
		cnt := func(name string, v uint64) { out.add("sim."+name+"."+s, float64(v), "count") }
		cnt("commits", st.Commits)
		cnt("commits_ro", st.CommitsRO)
		cnt("aborts.capacity", st.Aborts[stats.AbortCapacity])
		cnt("aborts.conflict", st.Aborts[stats.AbortTransactional])
		cnt("aborts.nontx", st.Aborts[stats.AbortNonTransactional])
		cnt("aborts.other", st.Aborts[stats.AbortExplicit]+st.Aborts[stats.AbortOther])
		cnt("fallbacks", st.Fallbacks)
		cnt("htm_begins", st.HWBeginHTM)
		cnt("rot_begins", st.HWBeginROT)
	}
	return nil
}

// simEndToEnd reports the untraced figures of a simulator run.
func simEndToEnd(r *simRun, out *report) {
	for _, c := range r.cells {
		out.add("tx_per_s."+c.system, c.plain.txPerS(), "1/s")
		out.note("tx_per_s.%s slices %.0f", c.system, c.plain.rates)
	}
	out.note("req latency: %d samples in %d rounds; p50 %.5f, p99 %.5f ms", r.clientHist().Count(), r.rounds, r.p50, r.p99)
	out.add("req_p50_ms", median(r.p50), "ms")
	out.add("req_cpu_us", ratio(us(r.cpu), float64(r.requests)), "us")
}

// simLayers reports the traced figures of a simulator run.
func simLayers(r *simRun, out *report) {
	for _, c := range r.cells {
		s := c.system
		l := c.traced.snapshot()
		out.add("tm.atomic_us.p50."+s, us(l.hist.Quantile(0.50)), "us")
		out.add("tm.atomic_us.p99."+s, us(l.hist.Quantile(0.99)), "us")
		out.add("tm.attempts_per_commit."+s, ratio(float64(l.bodyRuns), float64(l.atomics)), "ratio")
		out.add("tm.useful_body_frac."+s, ratio(float64(l.usefulNs), float64(l.bodyNs)), "frac")
		out.add("tm.protocol_share."+s, ratio(float64(l.atomicNs-l.bodyNs), float64(l.atomicNs)), "frac")
		out.add("htm.access_ns."+s, ratio(float64(l.bodyNs), float64(l.accesses)), "ns")
		out.add("htm.read_lines_per_tx."+s, ratio(float64(l.readLines), float64(l.atomics)), "lines")
		out.add("htm.write_lines_per_tx."+s, ratio(float64(l.writeLines), float64(l.atomics)), "lines")
		st := addStats(c.plain.stats, c.tr.stats)
		out.add("htm.abort_share.capacity."+s, st.AbortShare(stats.AbortCapacity), "frac")
		out.add("htm.abort_share.conflict."+s, st.AbortShare(stats.AbortTransactional), "frac")
		out.add("htm.abort_share.nontx."+s, st.AbortShare(stats.AbortNonTransactional), "frac")
		out.add("htm.fallbacks_per_commit."+s, ratio(float64(st.Fallbacks), float64(st.Commits)), "ratio")
		out.add("htm.rot_begins_per_commit."+s, ratio(float64(st.HWBeginROT), float64(st.Commits)), "ratio")
		out.add("bench.trace_overhead."+s, 1-ratio(c.tr.txPerS(), c.plain.txPerS()), "frac")
		switch s {
		case "si-htm":
			out.add("sihtm.wait_spins_per_update", ratio(float64(st.WaitSpins), float64(st.Commits-st.CommitsRO)), "count")
		case "p8tm":
			out.add("p8tm.wait_spins_per_update", ratio(float64(st.WaitSpins), float64(st.Commits-st.CommitsRO)), "count")
		}
	}
}

// runSim measures one simulator workload and checks every cell after.
func runSim(build simBuild, o opts, out *report) error {
	cells, err := timedSetup(out, o.trace, func() ([]*simCell, error) { return buildCells(build, workers, o.seed) }, nil)
	if err != nil {
		return err
	}
	r := &simRun{cells: cells, traced: o.trace, seconds: o.seconds, rounds: simRounds}
	r.run()
	for _, c := range cells {
		if err := out.check(c.system+" output", c.check()); err != nil {
			return err
		}
	}
	out.attempted += r.requests
	if o.trace {
		simLayers(r, out)
		out.add("client.req_p99_ms", median(r.p99), "ms")
		addKVLayers(out, nil) // the service layers are bypassed
		return fingerprint(build, out)
	}
	simEndToEnd(r, out)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median is the middle value of xs (the mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
