package experiments

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/durable"
	"sihtm/internal/memsim"
	"sihtm/internal/replica"
	"sihtm/internal/server"
	"sihtm/internal/telemetry"
	"sihtm/internal/trace"
	"sihtm/internal/tsdb"
	"sihtm/internal/workload/engine"
)

// The composition root. startNode is the one function that wires a
// node: the scenario build, the concurrency control, the durable store
// and its run directory, the fuzzy checkpointer, the replication
// follower, the wire server and its listener, and the observability
// plane (tsdb self-scrape, alert engine, metrics listener). `repro
// serve` and perfbench reach it through StartNetServer; every registry
// cell that serves over loopback — the net-* entries, and the repl-*
// and net-trace clusters of one durable leader plus followers — calls it
// directly, so a fix to node assembly is made and tested once.

// ServeConfig assembles `repro serve`: a long-running wire server
// hosting one scenario build.
type ServeConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:7654").
	Addr string
	// Scenario is the hosted build ("ycsb-a", "ycsb-b", "ycsb-c");
	// durable serving requires "ycsb-a" (the recovery pipeline's
	// deterministic rebuild covers it).
	Scenario string
	// System is the concurrency control.
	System string
	// ScaleName sizes the build and labels TStats replies.
	ScaleName string
	// Shards is the executor count; the build's deterministic seed
	// derives from it, so recovery must use the same value (persisted in
	// meta.json).
	Shards int
	// BatchMax is the initial admission bound.
	BatchMax int
	// AdmitWait is the initial admission grace period.
	AdmitWait time.Duration
	// P99Target, when positive, starts the adaptive admission
	// controller: the server steers BatchMax and the admission grace
	// online against this p99 service-latency target.
	P99Target time.Duration
	// DurableDir, when set, makes the server durable: wal.log +
	// heap.ckpt + meta.json live there, mirroring `repro durable` run
	// directories so `repro recover` replays them unchanged.
	DurableDir string
	// Window is the durable group-commit window.
	Window time.Duration
	// CkptEvery is the fuzzy checkpoint interval (0 disables periodic
	// checkpoints; the drain-time checkpoint still happens).
	CkptEvery time.Duration
	// FollowAddr, when set, makes this server a read replica of the
	// durable leader at that address: the scenario is rebuilt to the
	// identical deterministic base image (the leader's TStats reply is
	// probed to enforce matching build parameters), the leader's WAL
	// stream is replayed into the local heap, and only read-only
	// requests are admitted until promotion. Mutually exclusive with
	// DurableDir.
	FollowAddr string
	// LeaderLogPath is the shared-storage path of the leader's wal.log;
	// promotion catches up from its valid prefix, which contains every
	// acknowledged commit.
	LeaderLogPath string
	// MetricsAddr, when set, serves the observability plane there:
	// Prometheus text on /metrics, /healthz, /readyz (ready = admitting;
	// a follower is additionally ready only while its replication
	// watermark advances or it has been promoted), and /debug/pprof.
	MetricsAddr string
	// TraceSlow, when positive, logs a rate-limited per-stage lifecycle
	// trace for every request slower end-to-end than this threshold.
	TraceSlow time.Duration
	// ScrapeInterval is the tsdb self-scrape / alert evaluation cadence
	// of the observability plane (default 1s; only meaningful with
	// MetricsAddr).
	ScrapeInterval time.Duration
}

// NetServer is one running node: a `repro serve` instance, or a
// registry cell's loopback server.
type NetServer struct {
	// Srv is the wire server (Serve blocks on it).
	Srv *server.Server
	// Addr is the bound listen address.
	Addr net.Addr
	// Metrics is the observability-plane HTTP server (nil unless
	// ServeConfig.MetricsAddr was set).
	Metrics *telemetry.Server

	cfg     ServeConfig
	sc      Scale
	heap    *memsim.Heap
	backend engine.Backend // the populated build, unwrapped
	keys    int
	store   *durable.Store
	fol     *replica.Follower
	ckpt    *checkpointer
	ts      *tsdb.Store
	alerts  *alert.Engine
	served  chan error // Serve's result, for nodes run by inBackground
}

// StartNetServer builds the scenario (populated, optionally durable)
// and binds the listener. The caller runs Serve and, on shutdown,
// Shutdown.
func StartNetServer(cfg ServeConfig) (*NetServer, error) {
	sc, err := ScaleByName(cfg.ScaleName)
	if err != nil {
		return nil, err
	}
	return startNode(cfg, sc.withDefaults(), 0, 0, os.Stderr, nil, 0)
}

// startNode is the composition root. Its parameters past cfg are what
// differs between `repro serve` and the registry cells, none of which
// an operator sets:
//   - sc sizes the build (a cell passes its own, window-adjusted scale;
//     cfg.ScaleName then only labels TStats replies and meta.json);
//   - ctrlInterval is the admission controller's cadence (0 = default);
//   - retention is the tsdb's snapshot count (0 = default);
//   - alertLog receives alert transitions (stderr for serve);
//   - dial connects a follower to its leader (nil = plain TCP to
//     cfg.FollowAddr), and readTimeout bounds its stream reads
//     (0 = default).
//
// On error nothing the call started is left running.
func startNode(cfg ServeConfig, sc Scale, ctrlInterval time.Duration, retention int,
	alertLog io.Writer, dial func() (net.Conn, error), readTimeout time.Duration) (*NetServer, error) {
	y, err := ycsbSpecByID(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Shards <= 0:
		return nil, fmt.Errorf("experiments: serve needs a positive shard count")
	case cfg.FollowAddr != "" && cfg.DurableDir != "":
		return nil, fmt.Errorf("experiments: a follower cannot also serve durably (--follow excludes --durable-dir)")
	case cfg.DurableDir != "" && cfg.Scenario != "ycsb-a":
		return nil, fmt.Errorf("experiments: durable serving supports scenario ycsb-a, not %q", cfg.Scenario)
	}
	if cfg.FollowAddr != "" {
		// The replica's base image must be the exact deterministic build
		// the leader's log was opened on; probe the leader and refuse a
		// mismatched build rather than silently diverging.
		probe, err := engine.DialRemote(cfg.FollowAddr, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: probing leader %s: %w", cfg.FollowAddr, err)
		}
		st, err := probe.Stats()
		probe.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: probing leader %s: %w", cfg.FollowAddr, err)
		}
		if !st.Durable {
			return nil, fmt.Errorf("experiments: leader %s is not durable; a volatile server has no WAL to stream", cfg.FollowAddr)
		}
		if st.Scenario != cfg.Scenario || st.Scale != cfg.ScaleName || st.Shards != cfg.Shards {
			return nil, fmt.Errorf("experiments: build mismatch with leader %s: it runs %s/%s shards=%d, this follower %s/%s shards=%d",
				cfg.FollowAddr, st.Scenario, st.Scale, st.Shards, cfg.Scenario, cfg.ScaleName, cfg.Shards)
		}
		if dial == nil {
			leader := cfg.FollowAddr
			dial = func() (net.Conn, error) { return net.Dial("tcp", leader) }
		}
	}

	m, backend, d, err := y.build(sc, cfg.Shards)
	if err != nil {
		return nil, err
	}
	heap := m.Heap()
	sys, err := NewSystem(cfg.System, m, heap, cfg.Shards)
	if err != nil {
		return nil, err
	}
	ns := &NetServer{cfg: cfg, sc: sc, heap: heap, backend: backend, keys: d.Spec().Keys}
	scfg := server.Config{
		Backend:      backend,
		System:       sys,
		Shards:       cfg.Shards,
		BatchMax:     cfg.BatchMax,
		AdmitWait:    cfg.AdmitWait,
		P99Target:    cfg.P99Target,
		CtrlInterval: ctrlInterval,
		Scenario:     cfg.Scenario,
		Scale:        cfg.ScaleName,
		TraceSlow:    cfg.TraceSlow,
	}
	if cfg.FollowAddr != "" {
		ns.fol, err = replica.NewFollower(replica.FollowerConfig{Heap: heap, Dial: dial, ReadTimeout: readTimeout})
		if err != nil {
			return nil, err
		}
		scfg.Follower = ns.fol
		scfg.LeaderLogPath = cfg.LeaderLogPath
	}
	if dir := cfg.DurableDir; dir != "" {
		err := prepareRunDir(dir, DurableMeta{
			Scenario: cfg.Scenario,
			System:   cfg.System,
			Scale:    cfg.ScaleName,
			Threads:  cfg.Shards,
			WindowNS: int64(cfg.Window),
		})
		if err != nil {
			return nil, err
		}
		ns.store, err = durable.Open(heap, logPath(dir), m.Topology().MaxThreads(),
			durable.Config{Window: cfg.Window, WaitAck: true})
		if err != nil {
			return nil, err
		}
		scfg.Backend = engine.NewDurableBackend(backend, ns.store)
		scfg.System = ns.store.Attach(sys, m)
		scfg.Store = ns.store
		scfg.CheckpointPath = ckptPath(dir)
	}
	if ns.Srv, err = server.New(scfg); err == nil {
		ns.Addr, err = ns.Srv.Listen(cfg.Addr)
	}
	if err != nil {
		// The store's group-commit daemon is all that runs so far.
		if ns.store != nil {
			ns.store.Close()
		}
		return nil, err
	}
	if ns.store != nil && cfg.CkptEvery > 0 {
		ns.ckpt = startCheckpointer(ns.store, ckptPath(cfg.DurableDir), cfg.CkptEvery)
	}
	if ns.fol != nil {
		ns.fol.Start()
	}
	if cfg.MetricsAddr != "" {
		var fp followerProbe
		if ns.fol != nil {
			fp = ns.fol
		}
		ready := readyProbe(ns.Srv.Draining, fp)

		// The analysis layer: the tsdb self-scrapes the registry and the
		// alert engine evaluates the role-appropriate rule set on every
		// scrape. Built before the listener so /debug/timeseries and
		// /debug/alerts are live from the first request.
		interval := cfg.ScrapeInterval
		if interval <= 0 {
			interval = tsdb.DefaultInterval
		}
		ns.ts = tsdb.New(ns.Srv.Telemetry(), tsdb.Config{Interval: interval, Retention: retention})
		ns.alerts, err = alert.New(ns.ts, ns.Srv.Telemetry(), alert.DefaultRules(alert.RuleOptions{
			System:    cfg.System,
			Interval:  interval,
			P99Target: cfg.P99Target,
			Durable:   ns.store != nil,
			Follower:  ns.fol != nil,
			Leader:    ns.store != nil, // durable leaders own the replication publisher
		}), alertLog)
		if err != nil {
			ns.Shutdown()
			return nil, fmt.Errorf("experiments: alert rules: %w", err)
		}
		ns.ts.Start()
		ns.Metrics, err = telemetry.ListenAndServe(cfg.MetricsAddr, ns.Srv.Telemetry(), ready,
			telemetry.Extra{Path: "/debug/traces", Handler: trace.Handler(ns.Srv.TraceRing())},
			telemetry.Extra{Path: "/debug/timeseries", Handler: tsdb.Handler(ns.ts)},
			telemetry.Extra{Path: "/debug/alerts", Handler: alert.Handler(ns.alerts)})
		if err != nil {
			ns.Shutdown()
			return nil, fmt.Errorf("experiments: metrics listener: %w", err)
		}
	}
	return ns, nil
}

// Shutdown drains gracefully: the fuzzy checkpointer stops first (so
// it cannot race Drain's final checkpoint on the same path), then
// in-flight commits quiesce, replies flush, and the durable store
// writes the final checkpoint and closes.
func (ns *NetServer) Shutdown() error {
	// The observability plane goes first: its readiness probe reads
	// server and follower state that the teardown below invalidates.
	var err error
	if ns.Metrics != nil {
		err = ns.Metrics.Close()
		ns.Metrics = nil
	}
	if ns.ts != nil {
		ns.ts.Close()
		ns.ts = nil
		ns.alerts = nil
	}
	if herr := ns.ckpt.halt(); err == nil {
		err = herr
	}
	ns.ckpt = nil
	if derr := ns.Srv.Drain(); err == nil {
		err = derr
	}
	if ns.fol != nil {
		if ferr := ns.fol.Close(); err == nil {
			err = ferr
		}
		ns.fol = nil
	}
	if ns.store != nil {
		if cerr := ns.store.Close(); err == nil {
			err = cerr
		}
		ns.store = nil
	}
	return err
}

// loopback is the listen address of a registry cell's nodes.
const loopback = "127.0.0.1:0"

// inBackground runs a freshly started node's Serve loop on its own
// goroutine — how registry cells host a node (`repro serve` and
// perfbench call Srv.Serve themselves). It passes startNode's results
// through, so a cell writes inBackground(startNode(...)).
func inBackground(ns *NetServer, err error) (*NetServer, error) {
	if err != nil {
		return nil, err
	}
	ns.served = make(chan error, 1)
	go func() { ns.served <- ns.Srv.Serve() }()
	return ns, nil
}

// stop shuts a cell's node down and waits for its Serve loop. Safe to
// call again (a deferred stop after verify is a no-op).
func (ns *NetServer) stop() error {
	err := ns.Shutdown()
	if ns.served != nil {
		if serr := <-ns.served; serr != nil && err == nil {
			err = fmt.Errorf("serve: %w", serr)
		}
		ns.served = nil
	}
	return err
}

// verify stops a cell's node and re-checks the workload invariants in
// process. A durable node also proves digest-exact recovery: rebuild
// the deterministic base, restore the last fuzzy checkpoint plus the
// log, and compare to the live heap word for word. Drain writes a final
// checkpoint over heap.ckpt, so the fuzzy image is set aside first —
// recovery must reconstruct the heap from the image a SIGKILL would
// have left behind, not from a quiescent one.
func (ns *NetServer) verify() error {
	dir := ns.cfg.DurableDir
	fuzzy := ckptPath(dir) + ".fuzzy"
	if dir != "" {
		if err := ns.ckpt.halt(); err != nil {
			return fmt.Errorf("checkpointer: %w", err)
		}
		if err := os.Rename(ckptPath(dir), fuzzy); err != nil {
			return fmt.Errorf("no fuzzy checkpoint to recover from: %w", err)
		}
	}
	if err := ns.stop(); err != nil {
		return err
	}
	if err := engineCheck(ns.backend, ns.keys); err != nil {
		return err
	}
	if dir == "" {
		return nil
	}
	y, err := ycsbSpecByID(ns.cfg.Scenario)
	if err != nil {
		return err
	}
	m2, backend2, d2, err := y.build(ns.sc, ns.cfg.Shards)
	if err != nil {
		return err
	}
	if _, err := durable.Recover(m2.Heap(), fuzzy, logPath(dir)); err != nil {
		return err
	}
	if err := compareHeaps(ns.heap, m2.Heap()); err != nil {
		return err
	}
	if err := engineCheck(backend2, d2.Spec().Keys); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	return nil
}
