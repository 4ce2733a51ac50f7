package obs

import (
	"os"
	"strings"
	"testing"
)

func TestParseExpositionErrors(t *testing.T) {
	cases := map[string]string{
		"bad type":           "# TYPE x frobnicator\n",
		"type after samples": "x_total 1\n# TYPE x_total counter\n",
		"empty type":         "# TYPE x_total\n",
		"bad value":          "x_total one\n",
		"bad name":           "-x 1\n",
		"trailing garbage":   "x_total 1 2 3\n",
		"bad timestamp":      "x_total 1 soon\n",
		"unterminated block": `x_total{l="v" 1` + "\n",
		"unquoted label":     "x_total{l=v} 1\n",
		"bad escape":         `x_total{l="\q"} 1` + "\n",
		"dangling escape":    `x_total{l="\` + "\n",
		"bad label name":     `x_total{0l="v"} 1` + "\n",
		"duplicate label":    `x_total{l="a",l="b"} 1` + "\n",
		"bucket decrease": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" + "h_count 3\nh_sum 1\n",
		"missing inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_count 5\nh_sum 1\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_count 4\nh_sum 1\n",
		"bucket without le": "# TYPE h histogram\n" + "h_bucket 5\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_count 5\nh_sum 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
}

func TestParseExpositionLenient(t *testing.T) {
	// Things the format allows that our writer never produces: free-form
	// comments, timestamps, untyped samples, blank lines, label blocks
	// with trailing commas, HELP-only families.
	in := strings.Join([]string{
		"# a free-form comment",
		"",
		"# HELP lonely_metric only help, no type",
		"lonely_metric 3",
		"bare_metric{a=\"1\",} 2 1700000000000",
		"# TYPE typed_total counter",
		"typed_total 9",
	}, "\n") + "\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["lonely_metric"]; f == nil || f.Type != "untyped" || f.Help == "" || len(f.Samples) != 1 {
		t.Errorf("lonely_metric: %+v", fams["lonely_metric"])
	}
	if f := fams["bare_metric"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Labels["a"] != "1" {
		t.Errorf("bare_metric: %+v", fams["bare_metric"])
	}
	if f := fams["typed_total"]; f == nil || f.Type != "counter" || f.Samples[0].Value != 9 {
		t.Errorf("typed_total: %+v", fams["typed_total"])
	}
}

func TestParseSummaryQuantiles(t *testing.T) {
	in := "# TYPE rpc_seconds summary\n" +
		`rpc_seconds{quantile="0.5"} 0.1` + "\n" +
		"rpc_seconds_sum 10\nrpc_seconds_count 100\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["rpc_seconds"]; f == nil || len(f.Samples) != 3 {
		t.Errorf("summary family: %+v", fams["rpc_seconds"])
	}
}

// TestLintMetricsFile validates a scraped /metrics document named by
// OBS_METRICS_FILE — the CI smoke-scrape invokes it against output of a
// real `cqla serve` process. Without the env var it is skipped.
func TestLintMetricsFile(t *testing.T) {
	path := os.Getenv("OBS_METRICS_FILE")
	if path == "" {
		t.Skip("OBS_METRICS_FILE not set; this test lints a scraped exposition file")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams, err := ParseExposition(f)
	if err != nil {
		t.Fatalf("scraped exposition is invalid: %v", err)
	}
	if len(fams) == 0 {
		t.Fatal("scraped exposition has no metric families")
	}
	// The serve-tier families the scrape must include after one job ran.
	for _, name := range []string{
		"cqla_jobs_submitted_total",
		"cqla_jobs_running",
		"cqla_point_eval_seconds",
		"cqla_plan_cache_instructions",
		"cqla_http_requests_total",
	} {
		if fams[name] == nil {
			t.Errorf("scraped exposition is missing %s", name)
		}
	}
	t.Logf("scraped exposition: %d families", len(fams))
}
