package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The timing metrics are reported in refs: multiples of the CPU time a
// fixed reference computation takes on the same host at the same moment.
// On a host whose CPUs are shared with other tenants, such as the 2-vCPU
// VM the benchmark was defined on, speed drifts by a third over minutes;
// the reference computation drifts with it, so the ratio is steady where
// either time alone is not.
//
// The reference runs beside the workload, so the workload's use of the
// caches and the memory bus could slow it too and hide part of a
// regression. README.md records the check: a change that slowed
// des-sweeps by 14% through extra memory traffic moved the reference by
// about 1%. Sampling only between passes, while the workload was idle,
// tracked the host's speed worse and spread the metrics wider.
const (
	// refLen sizes the reference computation: sorting 2^14 random 64-bit
	// integers, about 1.3 ms of CPU on the host the benchmark was defined on.
	refLen = 1 << 14
	// refPeriod is how often the sampler runs it: about 2% of one CPU.
	refPeriod = 50 * time.Millisecond
	// refSpan is how far either side of an operation or segment the
	// samples that normalize it reach.
	refSpan = 500 * time.Millisecond
)

// refSampler runs the reference computation every refPeriod on an OS
// thread of its own and records the thread CPU time each run takes, so
// that time the thread waits for a CPU the workload holds is not counted.
type refSampler struct {
	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	at  []time.Time
	cpu []float64 // seconds
}

func startRefSampler() *refSampler {
	s := &refSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *refSampler) loop() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rng := rand.New(rand.NewPCG(1, 2))
	src, buf := make([]uint64, refLen), make([]uint64, refLen)
	for i := range src {
		src[i] = rng.Uint64()
	}
	tick := time.NewTicker(refPeriod)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		copy(buf, src)
		slices.Sort(buf)
		d := threadCPU() - c0
		now := time.Now()
		s.mu.Lock()
		s.at = append(s.at, now)
		s.cpu = append(s.cpu, d.Seconds())
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// Stop ends sampling. The samples can be read once it returns.
func (s *refSampler) Stop() {
	close(s.stop)
	<-s.done
}

// around returns the indices [lo, hi) of the samples within refSpan of
// [start, end], or of the nearest sample on either side when none is that
// close.
func (s *refSampler) around(start, end time.Time) (int, int) {
	at := s.at
	lo := sort.Search(len(at), func(i int) bool { return !at[i].Before(start.Add(-refSpan)) })
	hi := sort.Search(len(at), func(i int) bool { return at[i].After(end.Add(refSpan)) })
	if lo == hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(at))
	}
	return lo, hi
}

// refFor returns the reference an operation or segment is measured
// against: the median of the samples around it.
func (s *refSampler) refFor(start, end time.Time) float64 {
	lo, hi := s.around(start, end)
	return median(s.cpu[lo:hi])
}

// cpuIn sums the samples taken within [start, end]: the sampler's own
// share of the process's CPU time then.
func (s *refSampler) cpuIn(start, end time.Time) float64 {
	t := 0.0
	for i, at := range s.at {
		if !at.Before(start) && !at.After(end) {
			t += s.cpu[i]
		}
	}
	return t
}

// threadCPU returns the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// refNominal is the reference computation's median CPU time on the host
// the benchmark was defined on, in seconds. setup_s is the set-up wall
// time scaled to that speed: wall × refNominal / the process's median
// reference sample, so that it stays in seconds yet drifts no more than
// the operation times do.
const refNominal = 1.3e-3

// opTime is one timed operation.
type opTime struct{ start, end time.Time }

func (o opTime) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// segment is a stretch of the window that runs one operation class: one
// batch pass, or one serve-mix round of one request class. The process's
// CPU time is read at both ends, so that it can be charged to the class.
type segment struct {
	class      string
	start, end time.Time
	cpu        float64  // process CPU seconds over the segment
	ops        []opTime // the operations that succeeded in it
}

// classOut is what one process measured of one operation class: the
// passes of a batch workload, or one serve-mix request class.
type classOut struct {
	LatS   []float64 `json:"lat_s"`   // seconds per successful operation
	Norm   []float64 `json:"norm"`    // the same operations in refs
	CPURef float64   `json:"cpu_ref"` // process CPU over the class's segments, less the sampler's, in refs
}

// classify converts the segments to refs and groups them by class. Each
// operation is divided by the reference around it, and each segment's CPU
// time, less the sampler's own, by the reference around the segment.
func classify(segs []segment, s *refSampler) map[string]*classOut {
	out := make(map[string]*classOut)
	for _, seg := range segs {
		c := out[seg.class]
		if c == nil {
			c = &classOut{}
			out[seg.class] = c
		}
		c.CPURef += ratio(seg.cpu-s.cpuIn(seg.start, seg.end), s.refFor(seg.start, seg.end))
		for _, op := range seg.ops {
			c.LatS = append(c.LatS, op.seconds())
			c.Norm = append(c.Norm, ratio(op.seconds(), s.refFor(op.start, op.end)))
		}
	}
	return out
}
