package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sihtm/internal/experiments"
	"sihtm/internal/loadgen"
	"sihtm/internal/rng"
	"sihtm/internal/stats"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// The kv-durable service: YCSB-A served by a durable SI-HTM leader (two
// executor shards, admission bound 32, 1 ms group-commit window) with
// one in-process follower replaying its stream, driven open-loop.
const (
	kvSystem    = "si-htm"
	kvShards    = 2
	kvBatchMax  = 32
	kvWindow    = time.Millisecond
	kvRate      = 20000 // offered ops/s, Poisson
	kvConns     = 2
	kvReadFrac  = 0.5
	kvWarmup    = time.Second            // before the first load window
	kvRewarm    = 200 * time.Millisecond // before each later one
	kvWindows   = 6
	kvLoadShare = 0.5 // of --seconds; the rest measures the engine
	kvLagEvery  = 20 * time.Millisecond
	kvSlack     = 50 * time.Millisecond // reply in flight past the slowest one seen
	kvRounds    = 8                     // engine-phase rounds through the systems
)

// kvLayers are the per-layer metrics only the kv-durable service
// produces. The in-process workloads bypass these layers and report 0.
var kvLayers = []struct{ name, unit string }{
	{"server.admit_wait_us.p50", "us"},
	{"server.admit_wait_us.p99", "us"},
	{"server.service_us.p50", "us"},
	{"server.service_us.p99", "us"},
	{"server.flush_us.p99", "us"},
	{"server.ops_per_batch", "ratio"},
	{"server.abort_share", "frac"},
	{"wal.fsync_us.p50", "us"},
	{"wal.fsync_us.p99", "us"},
	{"wal.records_per_fsync", "ratio"},
	{"wal.bytes_per_write_op", "B"},
	{"durable.ack_wait_us.p50", "us"},
	{"durable.ack_wait_us.p99", "us"},
	{"replica.lag_records.p99", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.parse_ns", "ns"},
	{"loadgen.max_lag_ms", "ms"},
	{"loadgen.achieved_over_offered", "ratio"},
	{"kv.client_mean_us", "us"},
	{"kv.stage_mean_us.admit", "us"},
	{"kv.stage_mean_us.exec", "us"},
	{"kv.stage_mean_us.ack_wait", "us"},
	{"kv.stage_mean_us.flush", "us"},
	{"kv.residual_share", "frac"},
}

// addKVLayers reports the kv-only layers from vals (missing names are 0).
func addKVLayers(out *report, vals map[string]float64) {
	for _, l := range kvLayers {
		out.add(l.name, vals[l.name], l.unit)
	}
}

// kvCluster is a running leader and follower.
type kvCluster struct {
	leader, follower *experiments.NetServer
	served           []chan error
	lc, fc           *engine.RemoteBackend // control connections
}

func serve(ns *experiments.NetServer) chan error {
	ch := make(chan error, 1)
	go func() { ch <- ns.Srv.Serve() }()
	return ch
}

// startKV starts the durable leader on a fresh log in dir and a follower
// of it, and waits until the follower has caught up.
func startKV(dir string) (*kvCluster, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	base := experiments.ServeConfig{
		Addr: "127.0.0.1:0", Scenario: "ycsb-a", System: kvSystem, ScaleName: "paper",
		Shards: kvShards, BatchMax: kvBatchMax,
	}
	lcfg := base
	lcfg.DurableDir, lcfg.Window = dir, kvWindow
	leader, err := experiments.StartNetServer(lcfg)
	if err != nil {
		return nil, fmt.Errorf("leader: %w", err)
	}
	c := &kvCluster{leader: leader, served: []chan error{serve(leader)}}
	fcfg := base
	fcfg.FollowAddr = leader.Addr.String()
	fcfg.LeaderLogPath = filepath.Join(dir, "wal.log")
	if c.follower, err = experiments.StartNetServer(fcfg); err != nil {
		c.close()
		return nil, fmt.Errorf("follower: %w", err)
	}
	c.served = append(c.served, serve(c.follower))
	if c.lc, err = engine.DialRemote(leader.Addr.String(), 1); err != nil {
		c.close()
		return nil, err
	}
	if c.fc, err = engine.DialRemote(c.follower.Addr.String(), 1); err != nil {
		c.close()
		return nil, err
	}
	if err := c.waitSubscribed(); err != nil {
		c.close()
		return nil, err
	}
	if _, err := c.catchUp(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *kvCluster) waitSubscribed() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.lc.Stats()
		if err != nil {
			return err
		}
		if st.Repl != nil && st.Repl.Subscribers > 0 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("follower never subscribed to the leader")
}

// catchUp waits until the leader's durable sequence stops moving and
// the follower has applied up to it, and returns that sequence.
func (c *kvCluster) catchUp() (uint64, error) {
	deadline := time.Now().Add(20 * time.Second)
	var seq uint64
	stable := 0
	for stable < 3 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("leader durable sequence never settled")
		}
		st, err := c.lc.Stats()
		if err != nil {
			return 0, err
		}
		if st.Repl == nil {
			return 0, fmt.Errorf("leader reports no replication state")
		}
		if st.Repl.DurableSeq == seq {
			stable++
		} else {
			seq, stable = st.Repl.DurableSeq, 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		st, err := c.fc.Stats()
		if err != nil {
			return 0, err
		}
		if st.Repl != nil && st.Repl.Watermark >= seq {
			return seq, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("follower watermark stuck below leader durable sequence %d", seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops both nodes and waits for them; it is idempotent.
func (c *kvCluster) close() {
	for _, rb := range []*engine.RemoteBackend{c.lc, c.fc} {
		if rb != nil {
			rb.Close()
		}
	}
	for _, ns := range []*experiments.NetServer{c.follower, c.leader} {
		if ns != nil {
			ns.Shutdown()
		}
	}
	for _, ch := range c.served {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
		}
	}
	*c = kvCluster{}
}

// readAll reads every key of the keyspace from addr in read-only
// transactions of 64 GETs.
func readAll(addr string) ([]uint64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	vals := make([]uint64, kvKeys)
	var (
		ops  []wire.Op
		res  []wire.Result
		out  []byte
		rbuf []byte
	)
	for lo := 0; lo < kvKeys; lo += 64 {
		ops = ops[:0]
		for k := lo; k < lo+64 && k < kvKeys; k++ {
			ops = append(ops, wire.Op{Kind: wire.OpGet, Key: uint64(k)})
		}
		out = wire.AppendOpsFrame(out[:0], uint64(lo+1), ops)
		if _, err := nc.Write(out); err != nil {
			return nil, err
		}
		var (
			t       wire.Type
			payload []byte
		)
		_, t, payload, rbuf, err = wire.ReadFrame(br, rbuf)
		if err != nil {
			return nil, err
		}
		if t == wire.TErr {
			return nil, fmt.Errorf("server error: %s", payload)
		}
		if res, err = wire.ParseResults(payload, res); err != nil {
			return nil, err
		}
		if len(res) != len(ops) {
			return nil, fmt.Errorf("%d results for %d reads", len(res), len(ops))
		}
		for i, r := range res {
			if !r.OK {
				return nil, fmt.Errorf("key %d missing", lo+i)
			}
			vals[lo+i] = r.Val
		}
	}
	return vals, nil
}

// verify runs the service's output checks after the load has stopped:
// both nodes' structural checks, the follower reaching the leader's
// durable sequence, and every key reading the same on both. It returns
// the number of read-modify-writes the leader applied in total (each
// adds 1 to a key's initial value).
func (c *kvCluster) verify(out *report) (rmws uint64, err error) {
	_, err = c.catchUp()
	if err = out.check("kv follower watermark reaches leader durable seq", err); err != nil {
		return 0, err
	}
	if err = out.check("kv leader CHECK", c.lc.Check()); err != nil {
		return 0, err
	}
	if err = out.check("kv follower CHECK", c.fc.Check()); err != nil {
		return 0, err
	}
	lv, err := readAll(c.leader.Addr.String())
	if err != nil {
		return 0, out.check("kv leader read-back", err)
	}
	fv, err := readAll(c.follower.Addr.String())
	if err != nil {
		return 0, out.check("kv follower read-back", err)
	}
	var diff error
	for k := range lv {
		init := engine.InitialValue(uint64(k))
		switch {
		case lv[k] != fv[k]:
			diff = fmt.Errorf("key %d: leader %d, follower %d", k, lv[k], fv[k])
		case lv[k] < init:
			diff = fmt.Errorf("key %d: value %d below its initial %d", k, lv[k], init)
		}
		if diff != nil {
			break
		}
		rmws += lv[k] - init
	}
	return rmws, out.check("kv every key equal on leader and follower", diff)
}

// lagSampler polls the leader's and then the follower's STATS and
// records how many durable records the follower has yet to apply.
type lagSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	lags []float64
	err  error
}

func startLagSampler(lc, fc *engine.RemoteBackend) *lagSampler {
	s := &lagSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(kvLagEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			ls, err := lc.Stats()
			if err != nil {
				s.err = err
				return
			}
			fs, err := fc.Stats()
			if err != nil {
				s.err = err
				return
			}
			if ls.Repl == nil || fs.Repl == nil {
				s.err = fmt.Errorf("STATS without replication state")
				return
			}
			lag := 0.0
			if ls.Repl.DurableSeq > fs.Repl.Watermark {
				lag = float64(ls.Repl.DurableSeq - fs.Repl.Watermark)
			}
			s.lags = append(s.lags, lag)
		}
	}()
	return s
}

func (s *lagSampler) finish() (p99 float64, err error) {
	close(s.stop)
	s.done.Wait()
	if s.err != nil {
		return 0, s.err
	}
	return quantile(s.lags, 0.99), nil
}

// quantile is the exact q-quantile of xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// wireTiming times the wire codec on the workload's own request frames:
// one GET or RMW each over uniform keys, as the load generator sends.
func wireTiming(seed uint64) (encodeNs, parseNs float64, err error) {
	const frames = 4096
	r := rng.New(seed)
	reqs := make([]wire.Op, frames)
	for i := range reqs {
		key := r.Uint64() % kvKeys
		if r.Intn(100) < int(kvReadFrac*100) {
			reqs[i] = wire.Op{Kind: wire.OpGet, Key: key}
		} else {
			reqs[i] = wire.Op{Kind: wire.OpRMW, Key: key, Arg: 1}
		}
	}
	encoded := make([][]byte, frames)
	for i := range reqs {
		encoded[i] = wire.AppendOpsFrame(nil, uint64(i+1), reqs[i:i+1])
	}
	const budget = 200 * time.Millisecond
	var buf []byte
	n, t0 := 0, time.Now()
	for time.Since(t0) < budget {
		for i := range reqs {
			buf = wire.AppendOpsFrame(buf[:0], uint64(i+1), reqs[i:i+1])
		}
		n += frames
	}
	encodeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	var dst []wire.Op
	n, t0 = 0, time.Now()
	for time.Since(t0) < budget {
		for i, f := range encoded {
			_, typ, payload, _, perr := wire.ParseFrame(f)
			if perr == nil {
				dst, perr = wire.ParseOps(payload, dst)
			}
			if perr != nil || typ != wire.TTxn || len(dst) != 1 || dst[0] != reqs[i] {
				return 0, 0, fmt.Errorf("wire round trip of frame %d failed: %v", i, perr)
			}
		}
		n += frames
	}
	parseNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return encodeNs, parseNs, nil
}

// kvSetup is everything a kv-durable run builds.
type kvSetup struct {
	cluster *kvCluster
	cells   []*simCell
}

// kvLoad accumulates the service's load windows: the client's view of
// each, and (traced) the leader's STATS differenced over each.
type kvLoad struct {
	p50, p90, p99 []float64
	client        stats.HistogramSnapshot
	cpu, elapsed  time.Duration
	sent, replies uint64
	errs, excess  uint64
	maxLag        time.Duration

	svc, admit, flush, fsync, ack          stats.HistogramSnapshot
	st                                     stats.Stats
	batches, batchedOps, walRecs, walSyncs uint64
}

// window runs one open-loop load window against the leader.
func (l *kvLoad) window(c *kvCluster, o opts, warmup, measure time.Duration, seed uint64) error {
	var (
		cpu0     time.Duration
		sv0      wire.ServerStats
		statsErr error
	)
	res, err := loadgen.Run(loadgen.Config{
		Addr:     c.leader.Addr.String(),
		Conns:    kvConns,
		Arrival:  loadgen.Arrival{Process: "poisson", Rate: kvRate},
		Keys:     kvKeys,
		ReadFrac: kvReadFrac,
		Warmup:   warmup,
		Measure:  measure,
		Seed:     seed,
		AtWindow: func(start bool) {
			if start {
				cpu0 = cpuTime()
			} else {
				l.cpu += cpuTime() - cpu0
			}
			if !o.trace {
				return
			}
			st, err := c.lc.Stats()
			switch {
			case err != nil:
				statsErr = err
			case start:
				sv0 = st
			default:
				l.addServer(sv0, st)
			}
		},
	})
	if err == nil {
		err = statsErr
	}
	if err != nil {
		return err
	}
	l.p50 = append(l.p50, ms(res.Hist.Quantile(0.50)))
	l.p90 = append(l.p90, ms(res.Hist.Quantile(0.90)))
	l.p99 = append(l.p99, ms(res.Hist.Quantile(0.99)))
	l.client = addHist(l.client, res.Hist)
	l.elapsed += res.Elapsed
	l.sent += res.Sent
	l.replies += res.Replies
	l.errs += res.Errs
	l.maxLag = max(l.maxLag, res.MaxLag)
	// The generator abandons requests still in flight when the window
	// closes, so up to rate × (slowest latency + slack) may be
	// unanswered without any reply going missing.
	inFlight := kvRate * (res.Hist.Quantile(1).Seconds() + kvSlack.Seconds())
	if missed := float64(res.Sent) - float64(res.Replies+res.Errs); missed > inFlight {
		l.excess += uint64(missed - inFlight)
	}
	return nil
}

func (l *kvLoad) addServer(a, b wire.ServerStats) {
	l.svc = addHist(l.svc, b.Hist.Sub(a.Hist))
	l.st = addStats(l.st, b.Stats.Sub(a.Stats))
	l.batches += b.Batches - a.Batches
	l.batchedOps += b.BatchedOps - a.BatchedOps
	if a.Telemetry == nil || b.Telemetry == nil {
		return
	}
	ta, tb := a.Telemetry, b.Telemetry
	l.admit = addHist(l.admit, tb.AdmitWaitHist.Sub(ta.AdmitWaitHist))
	l.flush = addHist(l.flush, tb.FlushHist.Sub(ta.FlushHist))
	l.fsync = addHist(l.fsync, tb.FsyncHist.Sub(ta.FsyncHist))
	l.ack = addHist(l.ack, tb.AckWaitHist.Sub(ta.AckWaitHist))
	l.walRecs += tb.WalRecords - ta.WalRecords
	l.walSyncs += tb.WalFsyncs - ta.WalFsyncs
}

func runKV(o opts, out *report) error {
	dir := filepath.Join(o.workDir, "kv-durable")
	setup, err := timedSetup(out, o.trace, func() (*kvSetup, error) {
		c, err := startKV(dir)
		if err != nil {
			return nil, err
		}
		cells, err := buildCells(buildKVEngine, workers, o.seed)
		if err != nil {
			c.close()
			return nil, err
		}
		return &kvSetup{cluster: c, cells: cells}, nil
	}, func(s *kvSetup) { s.cluster.close() })
	if err != nil {
		return err
	}
	c := setup.cluster
	defer func() {
		c.close()
		os.RemoveAll(dir)
	}()

	// The service, in several load windows so that one stall (a slow
	// fsync, a descheduled executor) moves one window's percentiles, not
	// the reported median.
	var lag *lagSampler
	if o.trace {
		lag = startLagSampler(c.lc, c.fc)
	}
	var load kvLoad
	measure := time.Duration(o.seconds * kvLoadShare / kvWindows * float64(time.Second))
	for i := 0; i < kvWindows && err == nil; i++ {
		warmup := kvRewarm
		if i == 0 {
			warmup = kvWarmup
		}
		err = load.window(c, o, warmup, measure, o.seed+uint64(i))
	}
	lagP99 := 0.0
	if lag != nil {
		p, lerr := lag.finish()
		if err == nil {
			err = lerr
		}
		lagP99 = p
	}
	if err != nil {
		return err
	}
	out.attempted += load.sent
	out.failed += load.errs + load.excess
	var shortErr error
	if load.errs+load.excess > 0 {
		shortErr = fmt.Errorf("%d error replies and %d requests unanswered beyond those in flight", load.errs, load.excess)
	}
	if err := out.check("kv replies", shortErr); err != nil {
		return err
	}
	rmws, err := c.verify(out)
	if err != nil {
		return err
	}
	out.note("req latency: %d samples in %d windows; p50 %.3f, p90 %.3f, p99 %.3f ms",
		load.client.Count(), kvWindows, load.p50, load.p90, load.p99)

	vals := map[string]float64{}
	if o.trace {
		final, err := c.lc.Stats()
		if err != nil {
			return err
		}
		load.layers(vals)
		if t := final.Telemetry; t != nil && rmws > 0 {
			vals["wal.bytes_per_write_op"] = float64(t.WalBytes) / float64(rmws)
		}
		vals["replica.lag_records.p99"] = lagP99
		if vals["wire.encode_ns"], vals["wire.parse_ns"], err = wireTiming(o.seed); err != nil {
			return out.check("wire codec round trip", err)
		}
	}
	c.close()

	// The engine under the service, per system.
	r := &simRun{cells: setup.cells, traced: o.trace, seconds: o.seconds * (1 - kvLoadShare), rounds: kvRounds}
	r.run()
	for _, cell := range setup.cells {
		if err := out.check(cell.system+" kv engine output", cell.check()); err != nil {
			return err
		}
	}
	out.attempted += r.requests
	if o.trace {
		simLayers(r, out)
		out.add("client.req_p99_ms", median(load.p99), "ms")
		addKVLayers(out, vals)
		return fingerprint(buildKVEngine, out)
	}
	for _, cell := range r.cells {
		out.add("tx_per_s."+cell.system, cell.plain.txPerS(), "1/s")
	}
	out.add("req_p50_ms", median(load.p50), "ms")
	out.add("req_cpu_us", ratio(us(load.cpu), float64(load.replies)), "us")
	return nil
}

// layers fills the server, WAL and durability stages from the leader's
// STATS over the load windows, and closes the client's mean latency
// against them.
func (l *kvLoad) layers(vals map[string]float64) {
	vals["server.service_us.p50"] = us(l.svc.Quantile(0.50))
	vals["server.service_us.p99"] = us(l.svc.Quantile(0.99))
	vals["server.abort_share"] = l.st.AbortRate()
	vals["server.ops_per_batch"] = ratio(float64(l.batchedOps), float64(l.batches))
	vals["server.admit_wait_us.p50"] = us(l.admit.Quantile(0.50))
	vals["server.admit_wait_us.p99"] = us(l.admit.Quantile(0.99))
	vals["server.flush_us.p99"] = us(l.flush.Quantile(0.99))
	vals["wal.fsync_us.p50"] = us(l.fsync.Quantile(0.50))
	vals["wal.fsync_us.p99"] = us(l.fsync.Quantile(0.99))
	vals["wal.records_per_fsync"] = ratio(float64(l.walRecs), float64(l.walSyncs))
	vals["durable.ack_wait_us.p50"] = us(l.ack.Quantile(0.50))
	vals["durable.ack_wait_us.p99"] = us(l.ack.Quantile(0.99))
	vals["loadgen.max_lag_ms"] = ms(l.maxLag)
	vals["loadgen.achieved_over_offered"] = ratio(float64(l.replies), l.elapsed.Seconds()*kvRate)
	// Service time runs from admission to reply encode, so it already
	// spans the admission wait, the batch execution and the batch's
	// fsync-acknowledgement wait; the flush to the socket follows it.
	client := us(l.client.Mean())
	vals["kv.client_mean_us"] = client
	vals["kv.stage_mean_us.admit"] = us(l.admit.Mean())
	vals["kv.stage_mean_us.exec"] = us(l.svc.Mean()) - us(l.admit.Mean())
	vals["kv.stage_mean_us.ack_wait"] = us(l.ack.Mean())
	vals["kv.stage_mean_us.flush"] = us(l.flush.Mean())
	vals["kv.residual_share"] = ratio(client-us(l.svc.Mean())-us(l.flush.Mean()), client)
}
