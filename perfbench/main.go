// Command perfbench is the repository's benchmark: one process that
// builds a named workload from generated inputs, measures it for a set
// time, checks its outputs, and prints every metric by name and unit.
//
//	perfbench --workload hashmap-large-ro --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end figures a user sees; with
// --trace 1 it re-runs the workload with the layers measured from the
// outside (a wrapper around tm.System, collector and server-statistics
// deltas, getrusage) and reports the per-layer figures instead. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it describe the host ("# stamp {...}") and every output
// check that ran ("# check <name> ok").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// opts is one invocation.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // scratch space for the WAL, inside the checkout
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts, *report) error{
	"hashmap-large-ro": func(o opts, r *report) error { return runSim(buildHashmap, o, r) },
	"tpcc-standard":    func(o opts, r *report) error { return runSim(buildTPCC, o, r) },
	"kv-durable":       runKV,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, measures the workload and prints the result. A
// failed output check still prints the result (with "correct": false)
// and then returns the error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join("perfbench", ".work"), "scratch directory for the WAL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	runW, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	st, _ := json.Marshal(stamp(o.workDir)) // strings and ints always marshal
	fmt.Fprintf(stdout, "# stamp %s\n", st)

	rep := &report{w: stdout, correct: true}
	err := runW(o, rep)
	if !o.trace && err == nil {
		rep.add("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err != nil {
		rep.correct = false
	}
	if rep.attempted == 0 {
		rep.attempted = 1
		rep.failed = 1
	}
	rep.print()
	return err
}

// report collects one run's metrics and check outcomes.
type report struct {
	w                 io.Writer
	correct           bool
	attempted, failed uint64
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check("metric "+name+" is finite", fmt.Errorf("measured %v", v))
		v = 0
	}
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints one line of detail ahead of the result.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

// check records one output check; a failure marks the run incorrect
// and is returned so the caller stops.
func (r *report) check(name string, err error) error {
	if err != nil {
		r.correct = false
		fmt.Fprintf(r.w, "# check %s FAILED: %v\n", name, err)
		return fmt.Errorf("check %s: %w", name, err)
	}
	fmt.Fprintf(r.w, "# check %s ok\n", name)
	return nil
}

func (r *report) print() {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	if out.Metrics == nil {
		out.Metrics = map[string]metric{}
	}
	b, _ := json.Marshal(out) // add keeps every value finite, so this cannot fail
	fmt.Fprintf(r.w, "%s\n", b)
}

// A run builds its workload at least setupMin times and until
// setupBudget has passed (at most setupMax times); setup_s is the
// median build time, and only the last build is measured.
const (
	setupMin    = 5
	setupMax    = 50
	setupBudget = time.Second
)

// timedSetup builds a workload repeatedly, reports the median build
// time as setup_s (end-to-end runs only), and returns the last build.
// Earlier builds are released (close may be nil) and collected before
// the next one starts.
func timedSetup[T any](r *report, trace bool, build func() (T, error), close func(T)) (T, error) {
	var last T
	var times []float64
	start := time.Now()
	for len(times) < setupMin || (len(times) < setupMax && time.Since(start) < setupBudget) {
		if len(times) > 0 {
			if close != nil {
				close(last)
			}
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	if !trace {
		r.add("setup_s", median(times), "s")
	}
	r.note("setup: %d builds", len(times))
	runtime.GC()
	return last, nil
}
