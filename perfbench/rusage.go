package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's maximum resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Maxrss << 10 // Linux reports kilobytes
}

// allocBytes returns the cumulative heap bytes allocated so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// meter measures one interval of work: wall time, CPU time and heap
// bytes allocated.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// sample is one measured interval.
type sample struct {
	Wall, CPU time.Duration
	Alloc     uint64
}

func startMeter() meter {
	return meter{alloc: allocBytes(), cpu: cpuTime(), wall: time.Now()}
}

func (m meter) stop() sample {
	wall := time.Since(m.wall)
	cpu := cpuTime() - m.cpu
	return sample{Wall: wall, CPU: cpu, Alloc: allocBytes() - m.alloc}
}
