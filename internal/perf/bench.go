package perf

import (
	"fmt"
	"runtime"
	"time"
)

// B is the harness's benchmark context: the subset of testing.B the suite
// uses, driven by a native measurement loop instead of testing.Benchmark.
// Owning the loop buys two things the testing wrapper could not give:
// a configurable time budget (`cqla bench -benchtime`) and error-returning
// failure handling (a Fatal aborts the run with a real error instead of a
// silent zero result).
type B struct {
	// N is the iteration count for this run; the body must execute its
	// measured operation exactly N times.
	N int

	timerOn     bool
	start       time.Time
	dur         time.Duration
	startAllocs uint64
	startBytes  uint64
	netAllocs   uint64
	netBytes    uint64
	extra       map[string]float64
}

// benchFailure carries a Fatal out of a benchmark body.
type benchFailure struct{ msg string }

// StartTimer resumes timing and allocation tracking.
func (b *B) StartTimer() {
	if b.timerOn {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.startAllocs = ms.Mallocs
	b.startBytes = ms.TotalAlloc
	b.start = time.Now()
	b.timerOn = true
}

// StopTimer pauses timing and allocation tracking.
func (b *B) StopTimer() {
	if !b.timerOn {
		return
	}
	b.dur += time.Since(b.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.netAllocs += ms.Mallocs - b.startAllocs
	b.netBytes += ms.TotalAlloc - b.startBytes
	b.timerOn = false
}

// ResetTimer zeroes the elapsed time and allocation counts; call it after
// expensive setup, exactly as with testing.B.
func (b *B) ResetTimer() {
	if b.timerOn {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.startAllocs = ms.Mallocs
		b.startBytes = ms.TotalAlloc
		b.start = time.Now()
	}
	b.dur = 0
	b.netAllocs = 0
	b.netBytes = 0
}

// ReportMetric records a custom metric carried into the report, keyed by
// unit. The last run's value wins, matching testing.B. The map is sized
// before the timer starts, so recording a metric is never billed to the
// row's allocation counts.
func (b *B) ReportMetric(v float64, unit string) {
	b.extra[unit] = v
}

// Fatal aborts the benchmark; the harness surfaces it as the run's error.
func (b *B) Fatal(args ...interface{}) {
	panic(benchFailure{msg: fmt.Sprint(args...)})
}

// Fatalf is Fatal with formatting.
func (b *B) Fatalf(format string, args ...interface{}) {
	panic(benchFailure{msg: fmt.Sprintf(format, args...)})
}

// runN executes one timed run of n iterations.
func runN(bm Benchmark, n int) (b *B, err error) {
	// Sized past a small map's single group, as testing.B sizes its own,
	// so ReportMetric inserts without allocating.
	b = &B{N: n, extra: make(map[string]float64, 16)}
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(benchFailure); ok {
				err = fmt.Errorf("perf: %s: %s", bm.Name, f.msg)
				return
			}
			panic(r)
		}
	}()
	// A collection between runs keeps one benchmark's garbage from being
	// billed to the next run's allocation counts.
	runtime.GC()
	b.StartTimer()
	bm.F(b)
	b.StopTimer()
	return b, nil
}

// measure calibrates the iteration count until one run fills the time
// budget, mirroring the testing package's predict-and-grow loop (at most
// 100x per step, rounded up to a readable count, capped at 1e9).
func measure(bm Benchmark, benchtime time.Duration) (Result, error) {
	const maxIters = 1_000_000_000
	n := 1
	for {
		b, err := runN(bm, n)
		if err != nil {
			return Result{}, err
		}
		if b.dur >= benchtime || n >= maxIters {
			r := Result{
				Name:       bm.Name,
				Doc:        bm.Doc,
				Iterations: b.N,
				NsPerOp:    float64(b.dur.Nanoseconds()) / float64(b.N),
			}
			if b.N > 0 {
				r.BytesPerOp = int64(b.netBytes) / int64(b.N)
				r.AllocsPerOp = int64(b.netAllocs) / int64(b.N)
			}
			if len(b.extra) > 0 {
				r.Metrics = b.extra
			}
			return r, nil
		}
		prevns := b.dur.Nanoseconds()
		if prevns <= 0 {
			prevns = 1
		}
		// Predict the goal-filling count, grow 1.2x for safety, bound the
		// jump, and always make progress.
		next := benchtime.Nanoseconds() * int64(n) / prevns
		next += next / 5
		if max := int64(n) * 100; next > max {
			next = max
		}
		if next <= int64(n) {
			next = int64(n) + 1
		}
		if next > maxIters {
			next = maxIters
		}
		n = roundUp(next)
	}
}

// roundUp rounds to the nearest count of the form 1eX, 2eX, 3eX or 5eX,
// the same readable iteration counts `go test -bench` prints.
func roundUp(n int64) int {
	base := int64(1)
	for base*10 < n {
		base *= 10
	}
	switch {
	case n <= base:
		return int(base)
	case n <= 2*base:
		return int(2 * base)
	case n <= 3*base:
		return int(3 * base)
	case n <= 5*base:
		return int(5 * base)
	default:
		return int(10 * base)
	}
}
