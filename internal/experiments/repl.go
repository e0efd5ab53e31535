package experiments

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/netchaos"
	"sihtm/internal/results"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/ycsb"
)

// The repl scenario entries measure the replicated cluster: a durable
// leader streaming its WAL to snapshot read replicas, and the failover
// path that promotes a replica after the leader dies. Both entries run
// the whole cluster in-process over loopback so `repro run` covers the
// layer hermetically; the CI failover-smoke job exercises the same
// protocol across real processes with a real SIGKILL.
//
//   - repl-ycsb-c: a write stream holds the leader at its YCSB-A mix
//     while a read-only YCSB-C-shaped client population drives the
//     followers' replayed snapshots through the routing ReplicaBackend.
//     Read throughput is measured against the follower count; the
//     leader's server-side p50/p99 rides along so replica fan-out can
//     be checked against net-ycsb-a for write-path interference.
//   - repl-failover: followers stream through seeded chaos dialers
//     (cuts, torn frames, partition windows) so they trail the leader;
//     the leader is then abandoned mid-history and a follower is
//     promoted over the wire. The promotion must catch up from the
//     leader's on-disk log to at least the durable frontier at the
//     kill point — zero acknowledged loss — with the promoted heap
//     digest-identical to the leader's, after which the promoted node
//     must admit writes.

// replReadThreads is the read-side client population of repl-ycsb-c,
// and replWriteThreads the concurrent write stream held at the leader
// (both capped by the scale).
const (
	replReadThreads  = 8
	replWriteThreads = 2
)

// replFollowerLadder is the x-axis of repl-ycsb-c: the replica count.
var replFollowerLadder = []int{1, 2, 3}

// replReadTimeout is the followers' stream-liveness bound: any read
// quieter than this (the leader heartbeats far more often) is treated
// as a dead leader and triggers reconnect-and-resume.
const replReadTimeout = 250 * time.Millisecond

// replCluster is the in-process cluster: a durable leader plus
// followers replaying its WAL stream, each node a full wire server.
type replCluster struct {
	dir    string // the leader's temporary run directory
	leader *NetServer
	nodes  []*NetServer       // the followers
	chaos  []*netchaos.Dialer // each follower's fault-injecting dialer, when seeded
}

// replLeader is the leader configuration of the replication cells:
// durable YCSB-A at the default group-commit window, one executor per
// client thread.
func replLeader(system string, threads int) ServeConfig {
	return ServeConfig{
		Scenario: "ycsb-a", System: system,
		Shards: threads, BatchMax: netBatchDefault, Window: durableWindowDefault,
	}
}

// startReplCluster starts the leader (durable, so it is a replication
// leader by construction) in a fresh temporary run directory, and
// followers many replica nodes of it. Every node runs the identical
// deterministic build, so the followers' heaps start from the same
// post-population base image the leader's log was opened on — the
// contract stream replay (and crash recovery) relies on. chaos, when
// non-nil, seeds a fault-injecting dialer per follower.
func startReplCluster(leader ServeConfig, sc Scale, followers int, chaos *netchaos.Config) (*replCluster, error) {
	dir, err := os.MkdirTemp("", "sihtm-repl-")
	if err != nil {
		return nil, err
	}
	c := &replCluster{dir: dir}
	fail := func(err error) (*replCluster, error) {
		c.close()
		return nil, err
	}
	leader.Addr, leader.DurableDir = loopback, dir
	if c.leader, err = inBackground(startNode(leader, sc, 0, 0, io.Discard, nil, 0)); err != nil {
		return fail(err)
	}
	fcfg := leader
	fcfg.DurableDir, fcfg.Window, fcfg.MetricsAddr = "", 0, ""
	fcfg.FollowAddr, fcfg.LeaderLogPath = c.leader.Addr.String(), logPath(dir)
	for i := 0; i < followers; i++ {
		var dial func() (net.Conn, error) // nil: plain TCP
		if chaos != nil {
			cfg := *chaos
			cfg.Seed += uint64(i) * 7919 // distinct schedule per follower
			d := netchaos.NewDialer(fcfg.FollowAddr, cfg)
			c.chaos = append(c.chaos, d)
			dial = d.Dial
		}
		n, err := inBackground(startNode(fcfg, sc, 0, 0, io.Discard, dial, replReadTimeout))
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// followerAddrs lists the follower listen addresses.
func (c *replCluster) followerAddrs() []string {
	addrs := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		addrs[i] = n.Addr.String()
	}
	return addrs
}

// close tears the cluster down, followers first (their streams end when
// the leader drains anyway, but this keeps shutdown orderly).
func (c *replCluster) close() {
	for _, n := range c.nodes {
		n.stop()
	}
	if c.leader != nil {
		c.leader.stop()
	}
	os.RemoveAll(c.dir)
}

// runWorkers drives mk-built workers until stop is requested, returning
// the stopper (which quiesces before returning — required before any
// connection teardown, since the session protocol panics on transport
// failure).
func runWorkers(threads int, mk func(int) func()) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			op := mk(id)
			for !halt.Load() {
				op()
			}
		}(id)
	}
	return func() { halt.Store(true); wg.Wait() }
}

// replVerify checks the cluster after a point: every follower caught up
// to the leader's durable frontier must hold a word-identical heap and
// pass the workload's structural/population invariants. Followers are
// stopped first so the comparison does not race the applier; callers
// run this at the end of a point.
func (c *replCluster) replVerify(rb *engine.ReplicaBackend) error {
	if err := rb.WaitCatchup(10 * time.Second); err != nil {
		return err
	}
	if err := rb.Check(); err != nil {
		return err
	}
	for i, n := range c.nodes {
		n.fol.Stop()
		if err := compareHeaps(c.leader.heap, n.heap); err != nil {
			return fmt.Errorf("follower %d diverged: %w", i, err)
		}
		if err := engineCheck(n.backend, n.keys); err != nil {
			return fmt.Errorf("follower %d: %w", i, err)
		}
	}
	return engineCheck(c.leader.backend, c.leader.keys)
}

// runReplReadPoint measures one (system × follower count) cell of
// repl-ycsb-c: read throughput over the replicas while a write stream
// holds the leader, plus the leader's service-latency percentiles.
func runReplReadPoint(system string, sc Scale, followers int) (harness.Result, NetExtras, error) {
	sc = sc.withDefaults()
	fail := func(err error) (harness.Result, NetExtras, error) { return harness.Result{}, NetExtras{}, err }
	y, err := ycsbSpecByID("ycsb-a")
	if err != nil {
		return fail(err)
	}
	readers := replReadThreads
	writers := replWriteThreads
	if sc.MaxThreads > 0 {
		if readers > sc.MaxThreads {
			readers = sc.MaxThreads
		}
		if writers > sc.MaxThreads {
			writers = sc.MaxThreads
		}
	}
	c, err := startReplCluster(replLeader(system, readers), sc, followers, nil)
	if err != nil {
		return fail(err)
	}
	defer c.close()

	// Write stream: the leader's own YCSB-A mix over a plain remote
	// backend (acks ride group-commit fsyncs, records stream out).
	wb, err := engine.DialRemote(c.leader.Addr.String(), (writers+1)/2)
	if err != nil {
		return fail(err)
	}
	defer wb.Close()
	wspec, err := netSpec(y, sc, readers)
	if err != nil {
		return fail(err)
	}
	wd, err := engine.New(wspec, wb)
	if err != nil {
		return fail(err)
	}
	wsys := engine.NewRemoteSystem(system, writers)

	// Read population: a read-only YCSB-C-shaped mix over the same
	// keyspace, routed to the followers by the replica backend (stale
	// snapshot reads: SyncReads off).
	rspec, err := ycsb.Spec(ycsb.Config{
		Workload: ycsb.C,
		Keys:     c.leader.keys,
		OpsPerTx: y.opsPerTx,
		Seed:     uint64(readers)*19 + 5,
	})
	if err != nil {
		return fail(err)
	}
	rb, err := engine.DialReplica(c.leader.Addr.String(), c.followerAddrs(), (readers+1)/2)
	if err != nil {
		return fail(err)
	}
	defer rb.Close()
	rd, err := engine.New(rspec, rb)
	if err != nil {
		return fail(err)
	}
	rsys := engine.NewRemoteSystem(system, readers)

	stopW := runWorkers(writers, wd.Workers(wsys))
	stopR := runWorkers(readers, rd.Workers(rsys))
	stopAll := func() { stopR(); stopW() }
	time.Sleep(sc.Warmup)
	sv0, err := wb.Stats()
	if err != nil {
		stopAll()
		return fail(err)
	}
	r0 := rsys.Collector().Snapshot()
	start := time.Now()
	time.Sleep(sc.Measure)
	sv1, err := wb.Stats()
	elapsed := time.Since(start)
	r1 := rsys.Collector().Snapshot()
	stopAll()
	if err != nil {
		return fail(err)
	}

	reads := r1.Sub(r0)
	hr := harness.Result{
		System:     system,
		Threads:    readers,
		Elapsed:    elapsed,
		Stats:      reads,
		Throughput: float64(reads.Commits) / elapsed.Seconds(),
	}
	hist := sv1.Hist.Sub(sv0.Hist)
	ex := NetExtras{P50: hist.Quantile(0.5), P99: hist.Quantile(0.99)}
	if batches := sv1.Batches - sv0.Batches; batches > 0 {
		ex.BatchAvg = float64(sv1.BatchedOps-sv0.BatchedOps) / float64(batches)
	}
	if err := c.replVerify(rb); err != nil {
		return fail(err)
	}
	return hr, ex, nil
}

// replYCSBEntry is repl-ycsb-c: read throughput against the replica
// count, leader write latency riding along.
func replYCSBEntry() Entry {
	e := Entry{
		ID:       "repl-ycsb-c",
		Title:    "Replicated reads: YCSB-C read throughput vs replica count, writes held at the leader",
		Workload: "repl",
		Systems:  []string{"si-htm", "sgl"},
		Params: fmt.Sprintf("followers=%v readers=%d writers=%d window=%s ack=fsync reads=stale-snapshot",
			replFollowerLadder, replReadThreads, replWriteThreads, durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		for _, followers := range replFollowerLadder {
			hr, ex, err := runReplReadPoint(system, sc, followers)
			if err != nil {
				return fmt.Errorf("repl-ycsb-c %s/followers=%d: %w", system, followers, err)
			}
			hook(e.recordNet(fmt.Sprintf("followers=%d", followers), hr, ex))
		}
		return nil
	}
	return e
}

// replChaosConfig is the fault schedule the failover entry streams
// through: frequent cuts, torn frames and dial-refusal windows keep the
// followers trailing the leader, which is exactly the state a promotion
// must recover from.
var replChaosConfig = netchaos.Config{
	Seed:        131,
	CutAfterMin: 4, CutAfterMax: 60,
	TearProb:     0.25,
	PartitionMin: 1, PartitionMax: 3,
}

// runReplFailover runs one failover cell: write under chaos, abandon
// the leader, promote a follower over the wire, verify zero
// acknowledged loss and digest-exact state, then measure the promoted
// node serving writes.
func runReplFailover(e Entry, system string, sc Scale, hook func(results.Record)) error {
	sc = sc.withDefaults()
	y, err := ycsbSpecByID("ycsb-a")
	if err != nil {
		return err
	}
	writers := replWriteThreads * 2
	if sc.MaxThreads > 0 && writers > sc.MaxThreads {
		writers = sc.MaxThreads
	}
	chaos := replChaosConfig
	c, err := startReplCluster(replLeader(system, writers), sc, 2, &chaos)
	if err != nil {
		return err
	}
	defer c.close()

	wb, err := engine.DialRemote(c.leader.Addr.String(), (writers+1)/2)
	if err != nil {
		return err
	}
	defer wb.Close()
	wspec, err := netSpec(y, sc, writers)
	if err != nil {
		return err
	}
	wd, err := engine.New(wspec, wb)
	if err != nil {
		return err
	}
	wsys := engine.NewRemoteSystem(system, writers)

	// Phase 1: write under chaos long enough for the schedule to cut
	// streams and open partition windows.
	window := sc.Measure
	if window < 300*time.Millisecond {
		window = 300 * time.Millisecond
	}
	stopW := runWorkers(writers, wd.Workers(wsys))
	w0 := wsys.Collector().Snapshot()
	start := time.Now()
	time.Sleep(window)
	stopW()
	elapsed := time.Since(start)
	w1 := wsys.Collector().Snapshot()
	pre := w1.Sub(w0)
	hook(e.recordNet("phase=prekill", harness.Result{
		System: system, Threads: writers, Elapsed: elapsed, Stats: pre,
		Throughput: float64(pre.Commits) / elapsed.Seconds(),
	}, NetExtras{}))

	// The kill point: every acknowledged commit is at or below the
	// durable frontier (acks wait for fsync), and the on-disk log's
	// valid prefix holds all of it — that file is what a SIGKILL leaves
	// behind, and what the promotion must recover from. The leader is
	// abandoned from here on.
	killSeq := c.leader.store.DurableSeq()

	promoted := c.nodes[0]
	behind := killSeq - promoted.fol.Watermark() // informational: chaos-induced lag at the kill
	pb, err := engine.DialRemote(promoted.Addr.String(), (writers+1)/2)
	if err != nil {
		return err
	}
	defer pb.Close()
	rs, err := pb.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if rs.Role != "promoted" {
		return fmt.Errorf("promoted follower reports role %q", rs.Role)
	}
	if rs.Watermark < killSeq {
		return fmt.Errorf("ACKED LOSS: promoted watermark %d < durable frontier %d at kill", rs.Watermark, killSeq)
	}
	if err := compareHeaps(c.leader.heap, promoted.heap); err != nil {
		return fmt.Errorf("promoted state diverged: %w", err)
	}
	if err := engineCheck(promoted.backend, promoted.keys); err != nil {
		return fmt.Errorf("promoted state: %w", err)
	}
	if c.chaos[0].Cuts() == 0 && rs.Reconnects == 0 {
		return fmt.Errorf("chaos schedule never engaged (no cuts, no reconnects); the cell proved nothing")
	}

	// Phase 2: the promoted node must admit and serve writes.
	pd, err := engine.New(wspec, pb)
	if err != nil {
		return err
	}
	psys := engine.NewRemoteSystem(system, writers)
	stopP := runWorkers(writers, pd.Workers(psys))
	p0 := psys.Collector().Snapshot()
	start = time.Now()
	time.Sleep(sc.Measure)
	stopP()
	elapsed = time.Since(start)
	p1 := psys.Collector().Snapshot()
	post := p1.Sub(p0)
	if post.Commits == 0 {
		return fmt.Errorf("promoted node served no write commits")
	}
	if err := engineCheck(promoted.backend, promoted.keys); err != nil {
		return fmt.Errorf("post-promotion state: %w", err)
	}
	hook(e.recordNet(fmt.Sprintf("phase=postpromote lag=%d", behind), harness.Result{
		System: system, Threads: writers, Elapsed: elapsed, Stats: post,
		Throughput: float64(post.Commits) / elapsed.Seconds(),
	}, NetExtras{}))
	return nil
}

// replFailoverEntry is repl-failover: kill-the-leader with chaotic
// replication streams, zero-acknowledged-loss promotion, digest-exact
// promoted state, and post-promotion write service.
func replFailoverEntry() Entry {
	e := Entry{
		ID:       "repl-failover",
		Title:    "Leader failover: chaotic WAL streams, promote a follower, zero acknowledged loss, digest-exact state",
		Workload: "repl",
		Systems:  []string{"si-htm", "sgl"},
		Params: fmt.Sprintf("followers=2 writers=%d chaos=cuts/tears/partitions window=%s ack=fsync",
			replWriteThreads*2, durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		if err := runReplFailover(e, system, sc, hook); err != nil {
			return fmt.Errorf("repl-failover %s: %w", system, err)
		}
		return nil
	}
	return e
}

// replEntries builds the replication scenario entries in presentation
// order.
func replEntries() []Entry {
	return []Entry{replYCSBEntry(), replFailoverEntry()}
}
