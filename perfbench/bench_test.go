package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// wantChecks are output checks each workload must report as passed.
var wantChecks = map[string][]string{
	"hashmap-large-ro": {"htm output", "si-htm output", "p8tm output", "silo output"},
	"tpcc-standard":    {"htm output", "si-htm output", "p8tm output", "silo output"},
	"kv-durable": {
		"kv replies", "kv follower watermark reaches leader durable seq",
		"kv leader CHECK", "kv follower CHECK", "kv every key equal on leader and follower",
		"htm kv engine output", "si-htm kv engine output", "p8tm kv engine output", "silo kv engine output",
	},
}

// TestWorkloadsReportEveryMetric runs every workload briefly, untraced
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and that every
// output check ran and passed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := sp.EndToEnd
			if trace == "1" {
				want = sp.PerLayer
			}
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace, "--work-dir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted uint64            `json:"attempted"`
					Failed    uint64            `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for _, c := range wantChecks[w.Name] {
					if !strings.Contains(out.String(), "# check "+c+" ok\n") {
						t.Errorf("check %q did not run", c)
					}
				}
			})
		}
	}
}
