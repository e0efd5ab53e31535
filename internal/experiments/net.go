package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/results"
	"sihtm/internal/stats"
	"sihtm/internal/topology"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/ycsb"
)

// The net scenario entries measure the workload engine over the
// networked service layer: the same YCSB specs, driven through
// engine.RemoteBackend against a wire-protocol server whose admission
// stage coalesces pipelined client transactions into size-bounded
// hardware transactions. Throughput and commits are measured
// client-side; the abort taxonomy, the achieved batch size and the
// per-op latency percentiles come from the server's statistics,
// differenced over the measurement window.
//
// Each registry cell self-hosts a loopback server, so `repro run`
// covers the whole layer hermetically; `repro loadgen` reuses the same
// point runner against an external `repro serve` address.

// netBatchDefault is the admission bound (ops per transaction) of the
// net-ycsb-a and net-durable-ycsb-a entries.
const netBatchDefault = 32

// netBatches is the admission-bound ladder of the net-batch-window
// sweep: from no coalescing to far past the 64-line TMCAM.
var netBatches = []int{1, 4, 16, 64, 256}

// netWindowThreads is the client worker count of the batch sweep, and
// netWindowShards the (smaller) executor count its self-hosted servers
// run: concentrating the pipelined stream onto two queues is what lets
// the achieved batch size actually track the swept bound instead of
// being capped by per-shard queue depth.
const (
	netWindowThreads = 8
	netWindowShards  = 2
)

// netAdmitWait is the admission grace the batch sweep serves with: an
// executor holding a non-full batch waits this long for straggling
// pipelined requests, so the swept bound is actually approached instead
// of being limited by instantaneous queue depth.
const netAdmitWait = 100 * time.Microsecond

// NetPoint describes one remote measurement.
type NetPoint struct {
	// Scenario names the hosted YCSB build ("ycsb-a", "ycsb-b", "ycsb-c").
	Scenario string
	// System is the server's concurrency control; it labels the records.
	System string
	// Addr is the server address; empty self-hosts a loopback server for
	// the point (build, populate, serve, measure, tear down).
	Addr string
	// Threads is the client worker (session) count.
	Threads int
	// Shards is the self-hosted server's executor count (0 = Threads).
	// Fewer shards than clients concentrate the pipelined stream onto
	// fewer queues, which is what lets admission batches approach large
	// bounds: in-flight ops are capped by clients × ops/tx, and that
	// budget spreads across the shards.
	Shards int
	// Batch sets the server's admission bound for the point (0 keeps the
	// server's current bound).
	Batch int
	// AdmitWait sets the server's admission grace period for the point
	// (0 keeps the server's current value).
	AdmitWait time.Duration
	// Durable (self-host only) attaches a WAL store at the default
	// group-commit window, checkpoints fuzzily during the run, and
	// verifies digest-exact recovery afterwards.
	Durable bool
	// P99Target (self-host only) starts the adaptive admission
	// controller against this server-side p99 service-latency target.
	P99Target time.Duration
	// CtrlInterval (self-host only) overrides the controller's
	// adjustment interval.
	CtrlInterval time.Duration
}

// NetExtras carries the measurements that exist only over the network.
type NetExtras struct {
	// P50 and P99 are per-op service-latency percentiles (server-side,
	// admission to reply encode), over the measurement window.
	P50, P99 time.Duration
	// BatchAvg is the achieved ops-per-transaction of the admission
	// batching during the window.
	BatchAvg float64
	// AdmitP99 is the p99 of the admission-wait stage (arrival to batch
	// execution start) over the window.
	AdmitP99 time.Duration
	// Fsyncs counts the window's fsyncs and FsyncP99/AckP99 the p99 of
	// fsync wall time and of the commit-acknowledgement wait (durable
	// servers only; zero otherwise).
	Fsyncs   uint64
	FsyncP99 time.Duration
	AckP99   time.Duration
}

// netSpec rebuilds the client-side Spec matching a server build: the
// same keyspace sizing rule build() uses, so keys drawn by remote
// workers always exist server-side.
func netSpec(y ycsbSpec, sc Scale, threads int) (engine.Spec, error) {
	return ycsb.Spec(ycsb.Config{
		Workload: y.workload,
		Keys:     scaledKeys(y.baseKeys, sc, 128),
		OpsPerTx: y.opsPerTx,
		Seed:     uint64(threads)*19 + 5,
	})
}

// ycsbSpecByID resolves a ycsb scenario id.
func ycsbSpecByID(id string) (ycsbSpec, error) {
	for _, y := range ycsbSpecs {
		if y.id == id {
			return y, nil
		}
	}
	return ycsbSpec{}, fmt.Errorf("experiments: unknown net scenario %q (known: ycsb-a, ycsb-b, ycsb-c)", id)
}

// RunNetPoint executes one remote measurement and returns the merged
// harness result: client-observed commits and throughput, server-side
// abort taxonomy, plus the latency extras.
func RunNetPoint(p NetPoint, sc Scale) (harness.Result, NetExtras, error) {
	return runNetPoint(p, sc, nil)
}

// runNetPoint is RunNetPoint with an optional mid-measurement observer:
// when non-nil, mid runs halfway through the measurement window while
// the workers are still driving load (the net-observe cell scrapes the
// live /metrics endpoint there). mid receives the self-hosted server (nil
// when the point targets an external address).
func runNetPoint(p NetPoint, sc Scale, mid func(h *NetServer) error) (harness.Result, NetExtras, error) {
	sc = sc.withDefaults()
	fail := func(err error) (harness.Result, NetExtras, error) { return harness.Result{}, NetExtras{}, err }
	y, err := ycsbSpecByID(p.Scenario)
	if err != nil {
		return fail(err)
	}
	if p.Threads <= 0 {
		return fail(fmt.Errorf("experiments: net point needs a positive thread count"))
	}
	conns := (p.Threads + 1) / 2 // sessions share pipelined connections

	// Self-host a loopback node when no address is given.
	addr := p.Addr
	var host *NetServer
	if addr == "" {
		cfg := ServeConfig{
			Addr:      loopback,
			Scenario:  p.Scenario,
			System:    p.System,
			Shards:    p.Shards,
			BatchMax:  netBatchDefault,
			P99Target: p.P99Target,
		}
		if cfg.Shards <= 0 {
			cfg.Shards = p.Threads
		}
		if mid != nil { // the observer scrapes the node's metrics listener
			cfg.MetricsAddr = loopback
		}
		if p.Durable {
			dir, err := os.MkdirTemp("", "sihtm-net-")
			if err != nil {
				return fail(err)
			}
			defer os.RemoveAll(dir)
			cfg.DurableDir, cfg.Window, cfg.CkptEvery = dir, durableWindowDefault, sc.Measure/3
		}
		host, err = inBackground(startNode(cfg, sc, p.CtrlInterval, 0, io.Discard, nil, 0))
		if err != nil {
			return fail(err)
		}
		defer host.stop()
		addr = host.Addr.String()
	}

	rb, err := engine.DialRemote(addr, conns)
	if err != nil {
		return fail(err)
	}
	defer rb.Close()
	if p.Batch > 0 || p.AdmitWait > 0 {
		ctrl := wire.Ctrl{BatchMax: p.Batch}
		if p.AdmitWait > 0 {
			ctrl.AdmitWaitUs = int(p.AdmitWait / time.Microsecond)
		}
		if err := rb.Ctrl(ctrl); err != nil {
			return fail(err)
		}
	}
	spec, err := netSpec(y, sc, p.Threads)
	if err != nil {
		return fail(err)
	}
	d, err := engine.New(spec, rb)
	if err != nil {
		return fail(err)
	}
	csys := engine.NewRemoteSystem(p.System, p.Threads)

	// The run loop mirrors harness.Run but snapshots BOTH sides at the
	// window edges, so the server-side abort/latency delta covers exactly
	// the client's measurement window. Workers must be quiesced before
	// any connection teardown (the session protocol panics on transport
	// failure), so every exit path below stops them first.
	stopWorkers := runWorkers(p.Threads, d.Workers(csys))
	time.Sleep(sc.Warmup)
	sv0, err := rb.Stats()
	if err != nil {
		stopWorkers()
		return fail(err)
	}
	cl0 := csys.Collector().Snapshot()
	start := time.Now()
	if mid == nil {
		time.Sleep(sc.Measure)
	} else {
		time.Sleep(sc.Measure / 2)
		if err := mid(host); err != nil {
			stopWorkers()
			return fail(err)
		}
		time.Sleep(sc.Measure - sc.Measure/2)
	}
	sv1, err := rb.Stats()
	elapsed := time.Since(start)
	cl1 := csys.Collector().Snapshot()
	stopWorkers()
	if err != nil {
		return fail(err)
	}

	client := cl1.Sub(cl0)
	srvDelta := sv1.Stats.Sub(sv0.Stats)
	merged := stats.Stats{
		// Client side: committed transactions (the throughput basis) and
		// their read-only share.
		Commits:   client.Commits,
		CommitsRO: client.CommitsRO,
		// Server side: abort taxonomy, fall-backs and wait spins of the
		// batched transactions that served them.
		Aborts:    srvDelta.Aborts,
		Fallbacks: srvDelta.Fallbacks,
		WaitSpins: srvDelta.WaitSpins,
	}
	hr := harness.Result{
		System:     p.System,
		Threads:    p.Threads,
		Elapsed:    elapsed,
		Stats:      merged,
		Throughput: float64(client.Commits) / elapsed.Seconds(),
	}
	hist := sv1.Hist.Sub(sv0.Hist)
	extras := NetExtras{P50: hist.Quantile(0.5), P99: hist.Quantile(0.99)}
	if batches := sv1.Batches - sv0.Batches; batches > 0 {
		extras.BatchAvg = float64(sv1.BatchedOps-sv0.BatchedOps) / float64(batches)
	}
	if t1, t0 := sv1.Telemetry, sv0.Telemetry; t1 != nil && t0 != nil {
		extras.AdmitP99 = t1.AdmitWaitHist.Sub(t0.AdmitWaitHist).Quantile(0.99)
		extras.Fsyncs = t1.WalFsyncs - t0.WalFsyncs
		extras.FsyncP99 = t1.FsyncHist.Sub(t0.FsyncHist).Quantile(0.99)
		extras.AckP99 = t1.AckWaitHist.Sub(t0.AckWaitHist).Quantile(0.99)
	}

	// Server-side structural check over the wire (quiesces executors).
	if err := rb.Check(); err != nil {
		return fail(err)
	}
	// Self-hosted points verify in-process invariants (population
	// conservation) and, durably, digest-exact recovery.
	if host != nil {
		if err := host.verify(); err != nil {
			return fail(err)
		}
	}
	return hr, extras, nil
}

// recordNet stamps a net measurement with its registry coordinates and
// latency extras.
func (e Entry) recordNet(param string, hr harness.Result, ex NetExtras) results.Record {
	r := e.record(param, hr)
	r.LatencyP50Us = float64(ex.P50) / float64(time.Microsecond)
	r.LatencyP99Us = float64(ex.P99) / float64(time.Microsecond)
	r.BatchAvgOps = ex.BatchAvg
	r.AdmitWaitP99Us = float64(ex.AdmitP99) / float64(time.Microsecond)
	r.FsyncsTotal = ex.Fsyncs
	r.FsyncP99Us = float64(ex.FsyncP99) / float64(time.Microsecond)
	r.AckWaitP99Us = float64(ex.AckP99) / float64(time.Microsecond)
	return r
}

// netYCSBEntry is YCSB-A over the wire across the thread ladder: the
// full service path — pipelined connections, admission batching,
// per-shard execution — compared across concurrency controls.
func netYCSBEntry() Entry {
	e := Entry{
		ID:           "net-ycsb-a",
		Title:        "Networked YCSB-A: remote driver over the wire protocol, admission-batched transactions",
		Workload:     "net",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("ycsb-a over loopback batch=%d conns=threads/2", netBatchDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			hr, ex, err := RunNetPoint(NetPoint{
				Scenario: "ycsb-a", System: system, Threads: n, Batch: netBatchDefault,
			}, sc)
			if err != nil {
				return fmt.Errorf("net-ycsb-a %s/%d: %w", system, n, err)
			}
			hook(e.recordNet("", hr, ex))
		}
		return nil
	}
	return e
}

// netWindowEntry is the admission-batch sweep: fixed client count, the
// server's per-transaction op bound swept from 1 (no coalescing) to 256
// (footprint far past the 64-line TMCAM). Growing batches amortize
// begin/commit over more client ops but push plain HTM up the capacity
// cliff and onto the serial fall-back, while SI-HTM's ROTs keep read
// footprints untracked — the paper's capacity trade-off, measured
// through the service layer with client-visible p50/p99 latency.
func netWindowEntry() Entry {
	e := Entry{
		ID:       "net-batch-window",
		Title:    fmt.Sprintf("Admission-batch sweep: throughput and p50/p99 latency vs batch bound (%d client threads)", netWindowThreads),
		Workload: "net",
		Systems:  []string{"si-htm", "htm"},
		Params: fmt.Sprintf("ycsb-a over loopback batches=%v threads=%d shards=%d admit-wait=%s",
			netBatches, netWindowThreads, netWindowShards, netAdmitWait),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		n := netWindowThreads
		if sc.MaxThreads > 0 && n > sc.MaxThreads {
			n = sc.MaxThreads
		}
		for _, batch := range netBatches {
			hr, ex, err := RunNetPoint(NetPoint{
				Scenario: "ycsb-a", System: system, Threads: n, Shards: netWindowShards, Batch: batch,
				AdmitWait: netAdmitWait,
			}, sc)
			if err != nil {
				return fmt.Errorf("net-batch-window %s/batch=%d: %w", system, batch, err)
			}
			hook(e.recordNet(fmt.Sprintf("batch=%d", batch), hr, ex))
		}
		return nil
	}
	return e
}

// netDurableEntry is durable YCSB-A over the wire: every reply
// acknowledges a group-commit fsync, fuzzy checkpoints run under
// traffic, and each point proves digest-exact recovery of the live heap
// from checkpoint + log.
func netDurableEntry() Entry {
	e := Entry{
		ID:           "net-durable-ycsb-a",
		Title:        "Networked durable YCSB-A: replies acknowledge group-commit fsyncs, digest-exact recovery per point",
		Workload:     "net",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("ycsb-a over loopback batch=%d window=%s ack=fsync ckpt=fuzzy", netBatchDefault, durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			hr, ex, err := RunNetPoint(NetPoint{
				Scenario: "ycsb-a", System: system, Threads: n, Batch: netBatchDefault,
				Durable: true,
			}, sc)
			if err != nil {
				return fmt.Errorf("net-durable-ycsb-a %s/%d: %w", system, n, err)
			}
			hook(e.recordNet("", hr, ex))
		}
		return nil
	}
	return e
}

// netEntries builds the networked scenario entries in presentation
// order.
func netEntries() []Entry {
	return []Entry{netYCSBEntry(), netWindowEntry(), netDurableEntry(), connScaleEntry(), netObserveEntry(), netTraceEntry(), netSLOEntry()}
}

// NetEntryIDs lists the networked registry entries `repro loadgen` can
// drive against an external server.
func NetEntryIDs() []string {
	return []string{"net-ycsb-a", "net-batch-window", "net-durable-ycsb-a", "net-connscale"}
}

// runLoadgenBatchSweep sweeps the admission-batch bound against a live
// server, restoring the operator's knobs afterwards even when a point
// fails mid-sweep (the server outlives the load generator).
func runLoadgenBatchSweep(addr string, e Entry, st wire.ServerStats, sc, buildSc Scale,
	hook func(results.Record), note func(string, ...any)) (err error) {
	defer func() {
		// Put the knobs back where the operator set them.
		restore, derr := engine.DialRemote(addr, 1)
		if derr == nil {
			wait := st.AdmitWaitUs
			if wait == 0 {
				wait = -1 // clear back to no grace
			}
			derr = restore.Ctrl(wire.Ctrl{BatchMax: st.BatchMax, AdmitWaitUs: wait})
			restore.Close()
		}
		if derr != nil && err == nil {
			err = fmt.Errorf("net-batch-window: restoring server knobs: %w", derr)
		}
	}()
	n := netWindowThreads
	if sc.MaxThreads > 0 && n > sc.MaxThreads {
		n = sc.MaxThreads
	}
	for _, batch := range netBatches {
		hr, ex, perr := RunNetPoint(NetPoint{
			Scenario: st.Scenario, System: st.System, Addr: addr, Threads: n, Batch: batch,
			AdmitWait: netAdmitWait,
		}, buildSc)
		if perr != nil {
			return fmt.Errorf("net-batch-window/batch=%d: %w", batch, perr)
		}
		hook(e.recordNet(fmt.Sprintf("batch=%d", batch), hr, ex))
		note("  net-batch-window batch=%d: %.0f tx/s p50=%s p99=%s achieved=%.1f",
			batch, hr.Throughput, ex.P50, ex.P99, ex.BatchAvg)
	}
	return nil
}

// RunLoadgen drives the selected net entries against a live external
// server and streams one record per measured point. The server's TStats
// reply supplies the concurrency control, scenario and build scale the
// records are labeled with; sc shapes the client (ladder caps, run
// windows). The batch sweep restores the server's admission bound
// afterwards. progress may be nil.
func RunLoadgen(addr string, ids []string, sc Scale, hook func(results.Record), progress io.Writer) error {
	sc = sc.withDefaults()
	probe, err := engine.DialRemote(addr, 1)
	if err != nil {
		return err
	}
	st, err := probe.Stats()
	probe.Close()
	if err != nil {
		return err
	}
	if st.Scenario == "" {
		return fmt.Errorf("experiments: server at %s reports no scenario; is it `repro serve`?", addr)
	}
	// The server's build scale governs the keyspace the client draws
	// from; the client's own scale only shapes windows and ladders.
	buildSc, err := ScaleByName(st.Scale)
	if err != nil {
		return fmt.Errorf("experiments: server build scale: %w", err)
	}
	buildSc = buildSc.withDefaults()
	buildSc.Warmup, buildSc.Measure = sc.Warmup, sc.Measure
	note := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	note("loadgen: server %s runs %s on %s (scale=%s, shards=%d, durable=%v)",
		addr, st.Scenario, st.System, st.Scale, st.Shards, st.Durable)

	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return fmt.Errorf("experiments: unknown net entry %q (known: %v)", id, NetEntryIDs())
		}
		switch id {
		case "net-ycsb-a", "net-durable-ycsb-a":
			if id == "net-durable-ycsb-a" && !st.Durable {
				return fmt.Errorf("experiments: %s needs a durable server (serve --durable-dir)", id)
			}
			for _, n := range sc.threads(topology.PaperThreadLadder) {
				hr, ex, err := RunNetPoint(NetPoint{
					Scenario: st.Scenario, System: st.System, Addr: addr, Threads: n,
				}, buildSc)
				if err != nil {
					return fmt.Errorf("%s/%d: %w", id, n, err)
				}
				hook(e.recordNet("", hr, ex))
				note("  %s threads=%d: %.0f tx/s p50=%s p99=%s batch=%.1f",
					id, n, hr.Throughput, ex.P50, ex.P99, ex.BatchAvg)
			}
		case "net-batch-window":
			if err := runLoadgenBatchSweep(addr, e, st, sc, buildSc, hook, note); err != nil {
				return err
			}
		case "net-connscale":
			// The ladder reconfigures the server's admission knobs per
			// rung and leaves them at moderate defaults; the keyspace
			// comes from the server's own build.
			y, yerr := ycsbSpecByID(st.Scenario)
			if yerr != nil {
				return yerr
			}
			keys := scaledKeys(y.baseKeys, buildSc, 128)
			// The window floors apply against an external server too:
			// the uncontrolled rungs hold replies for a 10ms admission
			// grace, so a tens-of-milliseconds window could close
			// before the first batch answers.
			if err := runConnScaleLadder(e, addr, st.System, keys, connScaleWindows(sc), hook, note); err != nil {
				return err
			}
		default:
			return fmt.Errorf("experiments: %q is not a loadgen-drivable net entry (known: %v)", id, NetEntryIDs())
		}
	}
	return nil
}
