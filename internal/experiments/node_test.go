package experiments

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestStartNetServerRefusals: the root refuses every configuration it
// cannot serve correctly, before it builds anything — a follower of a
// volatile leader, a follower whose build differs from its leader's, a
// follower that is also durable, and durable serving of a scenario the
// recovery pipeline cannot rebuild.
func TestStartNetServerRefusals(t *testing.T) {
	base := ServeConfig{
		Addr: loopback, Scenario: "ycsb-a", System: "si-htm",
		ScaleName: "ci", Shards: 2, BatchMax: 8,
	}
	volatile, err := StartNetServer(base)
	if err != nil {
		t.Fatal(err)
	}
	defer volatile.Shutdown()
	go volatile.Srv.Serve()
	dcfg := base
	dcfg.DurableDir, dcfg.Window = t.TempDir(), 500*time.Microsecond
	leader, err := StartNetServer(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Shutdown()
	go leader.Srv.Serve()

	follow := func(addr string, edit func(*ServeConfig)) ServeConfig {
		cfg := base
		cfg.FollowAddr = addr
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  ServeConfig
		want string
	}{
		{"follow-volatile-leader", follow(volatile.Addr.String(), nil), "not durable"},
		{"scenario-mismatch", follow(leader.Addr.String(), func(c *ServeConfig) { c.Scenario = "ycsb-b" }), "build mismatch"},
		{"scale-mismatch", follow(leader.Addr.String(), func(c *ServeConfig) { c.ScaleName = "quick" }), "build mismatch"},
		{"shards-mismatch", follow(leader.Addr.String(), func(c *ServeConfig) { c.Shards = 4 }), "build mismatch"},
		{"durable-follower", follow(leader.Addr.String(), func(c *ServeConfig) { c.DurableDir = t.TempDir() }), "excludes --durable-dir"},
		{"durable-ycsb-b", func() ServeConfig { c := dcfg; c.Scenario = "ycsb-b"; return c }(), "supports scenario ycsb-a"},
		{"no-shards", func() ServeConfig { c := base; c.Shards = 0; return c }(), "positive shard count"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ns, err := StartNetServer(c.cfg)
			if err == nil {
				ns.Shutdown()
				t.Fatalf("started; want a refusal containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("refused with %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestStartNetServerListenFailureStopsStore: a durable start that fails
// at Listen (address already in use) leaves nothing running — neither
// the store's group-commit daemon nor a checkpointer. The checkpoint
// interval is long, so a checkpointer left behind would still be
// waiting on its first tick when the goroutine count is checked.
func TestStartNetServerListenFailureStopsStore(t *testing.T) {
	taken, err := net.Listen("tcp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := runtime.NumGoroutine()
	_, err = StartNetServer(ServeConfig{
		Addr: taken.Addr().String(), Scenario: "ycsb-a", System: "si-htm",
		ScaleName: "ci", Shards: 2, BatchMax: 8,
		DurableDir: t.TempDir(), Window: 500 * time.Microsecond, CkptEvery: time.Hour,
	})
	if err == nil {
		t.Fatal("started on an address already in use")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the failed start, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
