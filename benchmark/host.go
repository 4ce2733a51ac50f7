package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// hostInfo stamps every result with what the numbers depend on.
type hostInfo struct {
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Build      obs.BuildInfo `json:"build"`
}

func host() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Build:      obs.Build(),
	}
}

// runtimeDelta is the change of the Go runtime's allocation, GC and CPU
// counters over some interval.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the counters; a runtimeDelta holding absolute
// values, to be subtracted with minus.
func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{v(0), v(1), v(2), v(3), v(4)}
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeDelta) plus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects,
		a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// perOp reports the runtime rows of the layers table, each per operation.
func (a runtimeDelta) perOp(ops int, m map[string]float64) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	m["runtime.alloc_mb"] = a.allocBytes / n / (1 << 20)
	m["runtime.allocs"] = a.allocObjects / n
	m["runtime.gc_cycles"] = a.gcCycles / n
	if a.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = a.gcCPU / a.totalCPU
	}
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
