package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// calTable is the calibration kernel's working set: 16 KiB, resident in
// any L1/L2 cache, filled once at start-up.
var calTable = func() (t [4096]uint32) {
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calSink keeps the kernel's result live.
var calSink uint64

// calKernel runs n operations of a fixed integer kernel: an xorshift
// step, a dependent table load and a multiply-accumulate. It calls no
// program code and allocates nothing, so its rate moves only with the
// host: clock speed and what else shares the core.
func calKernel(n int) uint64 {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = acc*0x9E3779B97F4A7C15 + uint64(calTable[(x^acc)&4095])
	}
	return acc
}

// calibrate returns 25 timings of the kernel, in operations per
// CPU-second of the calling thread.
func calibrate() []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const ops = 8 << 20
	calSink += calKernel(ops) // warm-up
	var rates []float64
	for i := 0; i < 25; i++ {
		t0 := threadCPU()
		calSink += calKernel(ops)
		if d := threadCPU() - t0; d > 0 {
			rates = append(rates, ops/d.Seconds())
		}
	}
	return rates
}

// Linux clock IDs of the CPU-time clocks. They count scheduler run time
// in nanoseconds; getrusage's per-thread figures advance in whole ticks,
// too coarse for a calibration repetition.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the whole process's user+system CPU time.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter measures one phase's wall time, process CPU time, heap bytes
// allocated and GC cycles.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	rss   *rssSampler
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC, rss: startRSS()}
}

// phase is a finished meter reading.
type phase struct {
	wall, cpu  time.Duration
	allocBytes float64
	gcs        float64
	rssMiB     float64 // median resident set size
}

func (m meter) stop() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{
		wall:       time.Since(m.wall),
		cpu:        processCPU() - m.cpu,
		allocBytes: float64(ms.TotalAlloc - m.alloc),
		gcs:        float64(ms.NumGC - m.gcs),
		rssMiB:     m.rss.median(),
	}
}

// report stores the throughput metrics of a phase that processed elems
// elements.
func (ph phase) report(o *outcome, elems float64) {
	o.m["wall.elems_per_s"] = elems / ph.wall.Seconds()
	if ph.cpu > 0 {
		o.m["elems_per_cpu_s"] = elems / ph.cpu.Seconds()
	}
	o.m["alloc_bytes_per_elem"] = ph.allocBytes / elems
	o.m["go.gc_cycles"] = ph.gcs
	o.m["rss_mb"] = ph.rssMiB
}

// rssSampler samples the process's resident set size while a phase
// runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			r.samples = append(r.samples, rssMiB())
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// median stops the sampler and returns the median sample.
func (r *rssSampler) median() float64 {
	close(r.stop)
	<-r.done
	return median(r.samples)
}

// rssMiB reads the current resident set size from /proc/self/statm.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
