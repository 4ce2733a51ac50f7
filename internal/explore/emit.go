package explore

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
)

// SchemaVersion is the version of the documents explore emits and serves:
// the sweep report (Report.JSON), the server's version and registry
// listings, and the job content address (JobSpec.Key). Bump it whenever
// their JSON shape changes incompatibly.
const SchemaVersion = 1

// Report bundles a completed sweep with the metadata needed to regenerate
// it, ready for emission in any supported format.
type Report struct {
	Experiment *Experiment
	// Phys names the technology point the sweep ran under.
	Phys string
	// Seed is the base seed the sweep ran with.
	Seed int64
	// Engine names the arch evaluation engine the sweep ran through
	// (empty renders as the analytic default).
	Engine string
	// Estimator names a non-default Monte Carlo estimator the sweep ran
	// with ("bitsliced", "rare"). Empty — the default naive estimator —
	// is omitted from every format, so pre-estimator reports stay
	// byte-identical.
	Estimator string
	Points    []Point
}

// Formats lists the supported emission formats.
func Formats() []string { return []string{"text", "json", "csv"} }

// Emit writes the report in the named format.
func (r *Report) Emit(w io.Writer, format string) error {
	switch format {
	case "json":
		return r.JSON(w)
	case "csv":
		return r.CSV(w)
	case "text":
		return r.Text(w)
	}
	return fmt.Errorf("explore: unknown format %q (have %s)", format, strings.Join(Formats(), ", "))
}

// metricNames returns the union of metric names across points, in first
// appearance order — normally every point carries the same set, but a Post
// hook may annotate only some.
func (r *Report) metricNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, p := range r.Points {
		for _, m := range p.Metrics {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
	}
	return names
}

func formatMetric(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonQuote renders s as a JSON string via encoding/json: Go's %q escapes
// control characters as \x1f-style sequences that JSON parsers reject, so
// the hand-rolled emitter must not use it for open-registry strings.
func jsonQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // a plain string never fails to marshal
		panic(err)
	}
	return string(b)
}

// formatMetricJSON is formatMetric for the JSON emitter: JSON has no
// NaN/Inf literals, so non-finite values become null rather than
// producing an unparseable document. The registry is open to new
// evaluators, so the guard lives here, not in each sweep.
func formatMetricJSON(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return formatMetric(v)
}

// engineName renders the report's engine, defaulting empty to analytic so
// pre-engine callers keep emitting truthful documents.
func (r *Report) engineName() string {
	if r.Engine == "" {
		return arch.EngineAnalytic
	}
	return r.Engine
}

// render consults the experiment's cell-override hook for text/CSV output.
func (r *Report) render(p Point, metric string, v float64) (string, bool) {
	if r.Experiment.Render == nil {
		return "", false
	}
	return r.Experiment.Render(p, metric, v)
}

// JSON writes the sweep as a self-describing JSON document
// (schema_version first, then the inputs that regenerate it).
// The encoding is hand-ordered (params in axis order, metrics in evaluator
// order) so the same sweep always produces byte-identical output, whatever
// the runner's parallelism.
func (r *Report) JSON(w io.Writer) error {
	b := bufio.NewWriter(w)
	fmt.Fprintf(b, "{\n  \"schema_version\": %d,\n  \"experiment\": %s,\n  \"title\": %s,\n  \"phys\": %s,\n  \"seed\": %d,\n  \"engine\": %s,",
		SchemaVersion, jsonQuote(r.Experiment.Name), jsonQuote(r.Experiment.Title), jsonQuote(r.Phys), r.Seed, jsonQuote(r.engineName()))
	if r.Estimator != "" {
		fmt.Fprintf(b, "\n  \"estimator\": %s,", jsonQuote(r.Estimator))
	}
	b.WriteString("\n  \"points\": [")
	for i, p := range r.Points {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n    {\"params\": {")
		for j, a := range r.Experiment.Axes {
			if j > 0 {
				b.WriteString(", ")
			}
			jv, err := p.Coords[j].MarshalJSON()
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%s: %s", jsonQuote(a.Name), jv)
		}
		b.WriteString("}, \"metrics\": {")
		for j, m := range p.Metrics {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s: %s", jsonQuote(m.Name), formatMetricJSON(m.Value))
		}
		b.WriteString("}}")
	}
	b.WriteString("\n  ]\n}\n")
	return b.Flush()
}

// CSV writes one header row (axis names then metric names) and one row per
// point. Points missing a metric leave its cell empty, and so do
// non-finite values: CSV has no NaN/Inf convention downstream parsers
// agree on, so they follow the documented missing-metric rule.
func (r *Report) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	metrics := r.metricNames()
	header := make([]string, 0, len(r.Experiment.Axes)+len(metrics))
	for _, a := range r.Experiment.Axes {
		header = append(header, a.Name)
	}
	header = append(header, metrics...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range r.Points {
		row := make([]string, 0, len(header))
		for _, v := range p.Coords {
			row = append(row, v.String())
		}
		for _, name := range metrics {
			cell := ""
			if v, err := p.Metric(name); err == nil {
				if s, ok := r.render(p, name, v); ok {
					cell = s
				} else if !math.IsNaN(v) && !math.IsInf(v, 0) {
					cell = formatMetric(v)
				}
			}
			row = append(row, cell)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Text writes an aligned table: a caption line, axis columns, then metric
// columns rounded to six significant digits.
func (r *Report) Text(w io.Writer) error {
	metrics := r.metricNames()
	header := make([]string, 0, len(r.Experiment.Axes)+len(metrics))
	for _, a := range r.Experiment.Axes {
		header = append(header, a.Name)
	}
	header = append(header, metrics...)

	rows := make([][]string, 0, len(r.Points)+1)
	rows = append(rows, header)
	for _, p := range r.Points {
		row := make([]string, 0, len(header))
		for _, v := range p.Coords {
			row = append(row, v.String())
		}
		for _, name := range metrics {
			cell := "-"
			if v, err := p.Metric(name); err == nil {
				if s, ok := r.render(p, name, v); ok {
					cell = s
				} else {
					cell = strconv.FormatFloat(v, 'g', 6, 64)
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	b := bufio.NewWriter(w)
	est := ""
	if r.Estimator != "" {
		est = ", estimator " + r.Estimator
	}
	fmt.Fprintf(b, "%s: %s (%s, seed %d, engine %s%s, %d points)\n",
		r.Experiment.Name, r.Experiment.Title, r.Phys, r.Seed, r.engineName(), est, len(r.Points))
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.Flush()
}
