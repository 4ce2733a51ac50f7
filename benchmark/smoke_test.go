package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload through the real code path for one timed
// pass, or 20 requests of serve-mix (one round of each class), and checks
// that the result line carries every end-to-end metric BENCHMARK.json
// names, with its unit and a nonzero value, and no failed operation.
// mc-fast also runs traced, for the per-layer metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, the program runs %v", names, workloadNames)
	}
	run := func(t *testing.T, cfg config) (result, *outcome) {
		t.Helper()
		start := time.Now()
		out, err := runWorkload(context.Background(), cfg, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		setup := float64(out.WarmEnd-start.UnixNano()) / 1e9
		m, attempted, failed := combine(cfg, []*outcome{out}, []float64{setup}, os.Stderr)
		var buf bytes.Buffer
		if err := report(&buf, cfg, attempted, failed, m); err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
		}
		return res, out
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 1, maxOps: 1}
			if name == "serve-mix" {
				cfg.maxOps = 20
			}
			res, out := run(t, cfg)
			if name == "serve-mix" && len(out.Classes) != len(serveClasses) {
				t.Errorf("serve-mix measured %d request classes, want %d", len(out.Classes), len(serveClasses))
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, d := range spec.EndToEnd {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s missing", d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
				case !(m.Value > 0):
					t.Errorf("%s = %g, want > 0", d.Name, m.Value)
				}
			}
		})
	}
	t.Run("mc-fast-traced", func(t *testing.T) {
		res, _ := run(t, config{workload: "mc-fast", seed: 1, maxOps: 2, trace: true})
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
		}
		for _, d := range spec.PerLayer {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: got %+v (present %v), BENCHMARK.json unit %q", d.Name, m, ok, d.Unit)
			}
		}
		for _, name := range []string{"ecc.mc_bitsliced_s", "ecc.mc_rare_s", "ecc.trials", "peak_rss_mb", "host.ref_ms"} {
			if !(res.Metrics[name].Value > 0) {
				t.Errorf("%s = %g on mc-fast, want > 0", name, res.Metrics[name].Value)
			}
		}
	})
}
