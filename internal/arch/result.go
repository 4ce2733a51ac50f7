package arch

import "fmt"

// Metric is one named scalar an engine computed.
type Metric struct {
	Name  string
	Value float64
}

// Result holds one evaluation's metrics in the engine's declared order.
type Result struct {
	Metrics []Metric
}

// Metric returns the named metric's value, or an error naming the metric
// the result does not carry.
func (r Result) Metric(name string) (float64, error) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, nil
		}
	}
	return 0, fmt.Errorf("arch: result has no metric %q", name)
}

// MustMetric is Metric but panics on a missing name; for tests and
// consumers selecting from metric sets they themselves defined.
func (r Result) MustMetric(name string) float64 {
	v, err := r.Metric(name)
	if err != nil {
		panic(err)
	}
	return v
}
