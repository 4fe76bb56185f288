package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuNow returns the process's user plus system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// gcSample is a point reading of the Go runtime's allocation and GC
// counters; the difference of two readings covers what ran between them.
type gcSample struct {
	alloc, mallocs uint64
	cycles         uint32
	pause          time.Duration
	gcCPU, allCPU  float64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	g := gcSample{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = s[1].Value.Float64()
	}
	return g
}

func (m *metricSet) setGC(before, after gcSample) {
	m.set("gc.alloc_mb", "MB", float64(after.alloc-before.alloc)/(1<<20))
	m.set("gc.mallocs", "count", float64(after.mallocs-before.mallocs))
	m.set("gc.cycles", "count", float64(after.cycles-before.cycles))
	m.set("gc.pause_s", "s", (after.pause - before.pause).Seconds())
	m.set("gc.cpu_fraction", "ratio", ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU))
}
