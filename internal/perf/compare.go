package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// GateFloor is the smallest baseline ns/op a benchmark needs to count
// toward the regression gate. Faster rows are still measured, compared
// and printed, but one calibrated sample of a nanosecond-scale op is
// dominated by timer and scheduler jitter, so it would make the geomean
// noisy without making it more informative.
const GateFloor = 10 * time.Microsecond

// LoadReport reads a BENCH.json document written by an earlier run. It
// rejects documents from a newer schema (fields this build cannot
// interpret) and empty documents, so a truncated artifact fails loudly at
// the gate instead of producing a vacuous comparison.
func LoadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	if r.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("perf: %s has schema_version %d, this build understands <= %d", path, r.SchemaVersion, SchemaVersion)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("perf: %s contains no benchmarks", path)
	}
	return &r, nil
}

// Delta is one benchmark's baseline-to-head movement.
type Delta struct {
	Name    string
	BaseNs  float64
	HeadNs  float64
	Pct     float64 // (head-base)/base, in percent; positive = regression
	BaseAll int64   // allocs/op
	HeadAll int64
}

// Comparison is the result of Compare: per-benchmark sec/op deltas over
// the common set, the names only one side has, and the geometric-mean
// movement — the number the CI regression gate thresholds on — over the
// Gated common rows, those whose baseline is at least GateFloor.
type Comparison struct {
	Deltas     []Delta
	BaseOnly   []string
	HeadOnly   []string
	Gated      int
	GeomeanPct float64
}

// gated reports whether a row with this baseline counts toward the
// geomean.
func gated(baseNs float64) bool { return baseNs >= float64(GateFloor.Nanoseconds()) }

// Compare lines a head report up against a baseline, by benchmark name.
func Compare(base, head *Report) *Comparison {
	baseBy := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	c := &Comparison{}
	headSeen := make(map[string]bool, len(head.Benchmarks))
	logSum := 0.0
	for _, h := range head.Benchmarks {
		headSeen[h.Name] = true
		b, ok := baseBy[h.Name]
		if !ok {
			c.HeadOnly = append(c.HeadOnly, h.Name)
			continue
		}
		d := Delta{
			Name:    h.Name,
			BaseNs:  b.NsPerOp,
			HeadNs:  h.NsPerOp,
			BaseAll: b.AllocsPerOp,
			HeadAll: h.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			ratio := h.NsPerOp / b.NsPerOp
			d.Pct = (ratio - 1) * 100
			if gated(b.NsPerOp) {
				logSum += math.Log(ratio)
				c.Gated++
			}
		}
		c.Deltas = append(c.Deltas, d)
	}
	for _, b := range base.Benchmarks {
		if !headSeen[b.Name] {
			c.BaseOnly = append(c.BaseOnly, b.Name)
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].Name < c.Deltas[j].Name })
	sort.Strings(c.BaseOnly)
	sort.Strings(c.HeadOnly)
	if c.Gated > 0 {
		c.GeomeanPct = (math.Exp(logSum/float64(c.Gated)) - 1) * 100
	}
	return c
}

// Gate fails when the geomean regressed by more than pct percent, and
// when no common row reaches GateFloor: a gate over nothing would pass
// whatever head did.
func (c *Comparison) Gate(pct float64) error {
	if c.Gated == 0 {
		return fmt.Errorf("perf: no common benchmark has a baseline of at least %v; nothing to gate", GateFloor)
	}
	if c.GeomeanPct > pct {
		return fmt.Errorf("perf: sec/op geomean regressed %+.2f%% (> %g%% gate)", c.GeomeanPct, pct)
	}
	return nil
}

// WriteText renders the comparison as an aligned benchstat-style table.
func (c *Comparison) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "name\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\n")
	for _, d := range c.Deltas {
		note := ""
		if !gated(d.BaseNs) {
			note = "\t(below gate floor)"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.2f%%\t%d\t%d%s\n",
			d.Name, d.BaseNs, d.HeadNs, d.Pct, d.BaseAll, d.HeadAll, note)
	}
	if c.Gated > 0 {
		fmt.Fprintf(tw, "geomean\t\t\t%+.2f%%\t\t\t(%d rows >= %v)\n", c.GeomeanPct, c.Gated, GateFloor)
	}
	for _, n := range c.BaseOnly {
		fmt.Fprintf(tw, "%s\t(baseline only)\t\t\t\t\n", n)
	}
	for _, n := range c.HeadOnly {
		fmt.Fprintf(tw, "%s\t(new)\t\t\t\t\n", n)
	}
	return tw.Flush()
}
