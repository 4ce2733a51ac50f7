// Package purefix exercises the purity analyzer: impure state reachable
// from the Evaluate entry points is flagged, effectively-constant
// sentinels and lock-guarded memoization are allowed, and code the walk
// cannot reach stays unflagged however impure it is.
package purefix

import (
	"errors"
	"os"
	"sync"
)

// counter is assigned below, so any access from the evaluation path is a
// hidden input or output of the model.
var counter int

// errNegative is assigned only at its declaration — an effectively
// constant sentinel the walk must allow.
var errNegative = errors.New("purefix: negative input")

// totals is a package-level sync primitive: shared state by construction,
// even though nothing ever reassigns the variable itself.
var totals sync.Mutex

// Engine is the fixture's model; Evaluate/EvaluateCompiled root the walk.
type Engine struct {
	memo map[int]float64
	mu   sync.Mutex
}

// Evaluate commits one of each direct impurity, then exercises the
// allowed idiom through memoized.
func (e *Engine) Evaluate(n int) (float64, error) {
	if n < 0 {
		return 0, errNegative // allowed: read-only sentinel
	}
	counter++                // write to package state
	base := float64(counter) // read of mutated package state
	e.memo[n] = base         // receiver map write outside any lock
	totals.Lock()            // use of a package-level sync primitive
	totals.Unlock()
	return base + e.memoized(n), nil
}

// EvaluateCompiled reaches an impurity only transitively.
func (e *Engine) EvaluateCompiled(n int) float64 {
	return indirect(n)
}

// helper is one call deep: its environment read is still a finding.
func helper(n int) float64 {
	if os.Getenv("PUREFIX_SCALE") != "" {
		return 2 * float64(n)
	}
	return float64(n)
}

// indirect makes the walk two levels deep before the impurity.
func indirect(n int) float64 {
	return helper(n) + 1
}

// memoized is the allowed idiom: the receiver map write happens under the
// receiver's own mutex.
func (e *Engine) memoized(n int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.memo[n]; ok {
		return v
	}
	e.memo[n] = float64(n * n)
	return e.memo[n]
}

// Reset does everything the analyzer forbids, but no entry point reaches
// it: the walk's precision is that it stays silent here.
func Reset() {
	counter = 0
	os.Setenv("PUREFIX_SCALE", "")
	totals.Lock()
	totals.Unlock()
}
