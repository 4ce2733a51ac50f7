package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/phys"
)

// In carries everything an evaluator needs at one design point: the
// coordinates (accessed by axis name), the physical technology point, and
// a per-point seed that is a pure function of (experiment, coordinates,
// base seed) — so stochastic evaluators reproduce regardless of which
// worker reaches the point first.
type In struct {
	// Phys is the ion-trap technology point of the whole sweep.
	Phys phys.Params
	// Seed is the deterministic per-point seed for stochastic evaluators.
	Seed int64
	// Engine is the canonical arch evaluation engine for the sweep
	// ("analytic" or "des"). Machine-backed experiments route their
	// evaluation through it; experiments with no machine model ignore it.
	Engine string
	// Obs, if non-nil, is the run's metrics registry. Evaluators may record
	// work counters on it (the Monte Carlo estimators count blocks decoded
	// and trials spent); nil disables recording at zero cost, and sweep
	// output is byte-identical either way.
	Obs *obs.Registry

	exp    *Experiment
	coords []Value
	plans  *runPlans
}

func (in In) value(axis string) Value {
	for i, a := range in.exp.Axes {
		if a.Name == axis {
			return in.coords[i]
		}
	}
	panic(fmt.Sprintf("explore: experiment %q has no axis %q", in.exp.Name, axis))
}

// Int returns the coordinate of the named axis as an integer.
func (in In) Int(axis string) int { return in.value(axis).Int() }

// Float returns the coordinate of the named axis as a float.
func (in In) Float(axis string) float64 { return in.value(axis).Float() }

// Str returns the coordinate of the named string axis.
func (in In) Str(axis string) string { return in.value(axis).Str() }

// Experiment is one named sweep of the design space: the axes spanning its
// cartesian product and the evaluator producing metrics at each point.
type Experiment struct {
	// Name is the registry key and the `cqla sweep <name>` argument.
	Name string
	// Title is the one-line description shown in usage listings.
	Title string
	// Axes are the swept dimensions; Run walks their cartesian product
	// with the last axis varying fastest.
	Axes []Axis
	// Eval computes the metrics at one point. It must be safe for
	// concurrent calls and should honor ctx for long evaluations.
	Eval func(ctx context.Context, in In) ([]Metric, error)
	// Post, if non-nil, runs once over the complete, ordered point set
	// after the sweep — for cross-point annotations such as Pareto
	// frontier membership. It may edit points in place and returns the
	// final set.
	Post func(pts []Point) []Point
	// Render, if non-nil, overrides the text/CSV cell for one metric at
	// one point — e.g. printing an unresolved Monte Carlo rate as
	// "<bound" instead of a bare number that looks measured. It returns
	// the replacement cell and true, or false to keep the default numeric
	// rendering. JSON output never goes through Render: machine-readable
	// documents carry the raw values.
	Render func(p Point, metric string, v float64) (string, bool)
}

// Size returns the number of points in the cartesian product.
func (e *Experiment) Size() int {
	n := 1
	for _, a := range e.Axes {
		n *= len(a.Values)
	}
	return n
}

// coordsAt decodes a cartesian-product index into one coordinate per axis,
// last axis fastest.
func (e *Experiment) coordsAt(idx int) []Value {
	coords := make([]Value, len(e.Axes))
	for i := len(e.Axes) - 1; i >= 0; i-- {
		n := len(e.Axes[i].Values)
		coords[i] = e.Axes[i].Values[idx%n]
		idx /= n
	}
	return coords
}

var registry = struct {
	sync.Mutex
	m map[string]*Experiment
}{m: make(map[string]*Experiment)}

// Register adds an experiment to the global registry. It panics on a nil
// experiment, empty name, missing evaluator, empty axes, or a duplicate
// name — all programmer errors, caught at init time.
func Register(e *Experiment) {
	if e == nil || e.Name == "" {
		panic("explore: Register with nil experiment or empty name")
	}
	if e.Eval == nil {
		panic(fmt.Sprintf("explore: experiment %q has no evaluator", e.Name))
	}
	if e.Size() == 0 {
		panic(fmt.Sprintf("explore: experiment %q has an empty design space", e.Name))
	}
	if e.Name != strings.ToLower(e.Name) {
		panic(fmt.Sprintf("explore: experiment name %q must be lower-case (Lookup is case-insensitive)", e.Name))
	}
	if e.Name == "circuit" {
		panic(`explore: the name "circuit" is reserved for custom-circuit runs (CircuitExperiment)`)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[e.Name]; dup {
		panic(fmt.Sprintf("explore: duplicate experiment %q", e.Name))
	}
	registry.m[e.Name] = e
}

// Lookup returns the named experiment or an error listing what exists.
// Matching is case-insensitive, so the CLI, the HTTP API and library
// callers share one rule instead of each lower-casing on their own.
func Lookup(name string) (*Experiment, error) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.m[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("explore: unknown experiment %q (have %v)", name, namesLocked())
	}
	return e, nil
}

// Names returns every registered experiment name, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Experiments returns every registered experiment, sorted by name — the
// source for registry-generated usage listings.
func Experiments() []*Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]*Experiment, 0, len(registry.m))
	for _, n := range namesLocked() {
		out = append(out, registry.m[n])
	}
	return out
}
