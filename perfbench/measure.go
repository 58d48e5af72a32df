package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"dtt/internal/telemetry"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the "p99" is really the maximum of a handful of
// samples and says more about the run length than about the system.
const minBeyond = 10

// samples is a buffer of raw durations in nanoseconds. Quantiles are
// exact order statistics over every sample, never histogram
// interpolations.
type samples []int64

// sampleCap is the capacity of a preallocated sample buffer: over a
// minute of requests at several times the throughput measured on a
// 2-vCPU host.
const sampleCap = 1 << 22

// newSamples returns an empty buffer preallocated for sampleCap samples
// in an anonymous mapping outside the Go heap. Only the pages written
// become resident, so recording a sample never allocates, the buffers do
// not move the heap size the program's GC paces against, and the run's
// peak memory grows with the samples taken rather than with the
// capacity. Where the mapping fails the buffer falls back to the heap.
func newSamples() samples {
	b, err := syscall.Mmap(-1, 0, 8*sampleCap, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return make(samples, 0, sampleCap)
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), sampleCap)[:0]
}

// quantile returns the exact q-quantile (nearest rank) in nanoseconds and
// whether at least minBeyond samples lie above it.
func (s samples) quantile(q float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(math.Ceil(q*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(c[rank]), len(c)-1-rank >= minBeyond
}

// us returns the q-quantile in microseconds.
func (s samples) us(q float64) (float64, bool) {
	v, ok := s.quantile(q)
	return v / 1e3, ok
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTimes is the process's user and system CPU time so far.
type cpuTimes struct{ user, sys time.Duration }

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.user + o.user, c.sys + o.sys} }
func (c cpuTimes) total() time.Duration    { return c.user + c.sys }

// procCounters is what the Go runtime reports about allocation and GC.
type procCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

func (p procCounters) sub(o procCounters) procCounters {
	return procCounters{p.mallocs - o.mallocs, p.pauseNs - o.pauseNs}
}

func (p procCounters) add(o procCounters) procCounters {
	return procCounters{p.mallocs + o.mallocs, p.pauseNs + o.pauseNs}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// hostTicks is the aggregate CPU line of /proc/stat: total jiffies and the
// steal share (time the hypervisor ran someone else while this guest had
// work). A run whose steal jumps is attributable to the host, not the code.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not added again.
	for i := 1; i <= 8 && i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return hostTicks{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func stealFrac(a, b hostTicks) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// fingerprint identifies the host a run came from, so numbers from
// different machines are not compared by eye.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// Histogram names exported by core.Runtime.TelemetrySnapshot and
// serve.Server.TelemetrySnapshot.
const (
	dispatchHist = "dtt_trigger_dispatch_latency_ns"
	runHist      = "dtt_run_duration_ns"
	mergeHist    = "dtt_merge_latency_ns"
	notifyHist   = "dtt_serve_notify_latency_ns"
)

// histSum accumulates the exact Sum and Count of one named histogram.
// Only these two are used: they are exact, unlike quantiles interpolated
// from the fixed buckets.
type histSum struct{ sum, count int64 }

func (h *histSum) add(hs []telemetry.HistogramSnapshot, name string) {
	for _, s := range hs {
		if s.Name == name {
			h.sum += s.Sum
			h.count += s.Count()
		}
	}
}

func (h histSum) sub(o histSum) histSum { return histSum{h.sum - o.sum, h.count - o.count} }

func (h histSum) meanUS() float64 { return ratio(float64(h.sum)/1e3, float64(h.count)) }
