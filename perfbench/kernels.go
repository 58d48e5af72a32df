package main

import (
	"fmt"
	"math"
	"time"

	"dtt/internal/core"
	"dtt/internal/telemetry"
	"dtt/internal/workloads"
)

// kernelIters sizes each paper kernel (workloads.All) for the kernels
// workload. The redundancy structure of a kernel depends on its iteration
// count — crafty's silent-store share only reaches ~99% after a few
// hundred iterations — so no kernel runs fewer iterations than it needs
// for its structure to show, and the short kernels run more so that a
// baseline run takes a few milliseconds. equake and mesa are capped lower
// because their immediate-backend runs spend 20-30x their baseline time
// on the queue-overflow path; uncapped, they would take most of the
// measured window and starve the other kernels of samples.
var kernelIters = map[string]int{
	"ammp": 80, "art": 10, "bzip2": 80, "crafty": 400, "equake": 16,
	"gcc": 200, "gzip": 20, "mcf": 60, "mesa": 20, "parser": 40,
	"twolf": 160, "vortex": 200, "vpr": 80,
}

// kernelPlan sizes one kernels run.
type kernelPlan struct {
	seed    uint64
	seconds float64
	trace   bool
	// iters overrides kernelIters (tests run tiny sizes).
	iters map[string]int
	// minImmRuns keeps the run going past seconds until the pooled
	// immediate-backend runs support a p99 (minBeyond above it), up to
	// maxSeconds.
	minImmRuns int
	maxSeconds float64
	// minRounds is the least number of measured rounds.
	minRounds int
}

func defaultKernelPlan(c runConfig) kernelPlan {
	p := kernelPlan{
		seed: c.seed, seconds: c.seconds, trace: c.trace, iters: kernelIters,
		minImmRuns: 100 * minBeyond, maxSeconds: 4 * c.seconds, minRounds: 3,
	}
	if c.trace {
		// A traced run reports no percentile of the pooled runs.
		p.minImmRuns = 0
	}
	return p
}

// kernelRun is one kernel's timings and counters in one round.
type kernelRun struct {
	base, inline, imm time.Duration
	setup             time.Duration // runtime construction, both backends
	inlineStats       core.Stats
	immStats          core.Stats
	immHists          []telemetry.HistogramSnapshot
	immCPU            cpuTimes
	immProc           procCounters
}

// kernelSeries is one kernel's samples across rounds.
type kernelSeries struct {
	name              string
	base, inline, imm []float64 // seconds
	firstInline       core.Stats
}

// runKernels runs every paper kernel baseline, on the inline model
// (BackendDeferred) and on the concurrent model (BackendImmediate,
// Workers=2) round after round, checking that the three checksums agree.
// In a traced run, rounds alternate between an untraced round and a
// traced one (runtime telemetry on, CPU and allocation read around every
// immediate-backend run), so the per-layer figures and the tracing
// overhead come from the same stretch of time.
func runKernels(p kernelPlan, rep *report) error {
	ks := workloads.All()
	for _, w := range ks {
		if p.iters[w.Name()] <= 0 {
			return fmt.Errorf("no size for kernel %q", w.Name())
		}
	}
	// One untimed round lets caches fill and lazy set-up finish.
	for _, w := range ks {
		if _, err := runKernel(w, p, false, rep); err != nil {
			return err
		}
	}
	series := make([]*kernelSeries, len(ks))
	traced := make([]*kernelSeries, len(ks))
	for i, w := range ks {
		series[i] = &kernelSeries{name: w.Name()}
		traced[i] = &kernelSeries{name: w.Name()}
	}
	var (
		setups    []float64
		immLat    = newSamples()
		tr        kernelTrace
		t0        = time.Now()
		host0     = readHostTicks()
		rounds    int
		tracedRnd int
	)
	for {
		el := time.Since(t0).Seconds()
		enough := el >= p.seconds && rounds >= p.minRounds && len(immLat) >= p.minImmRuns
		if enough || (el >= p.maxSeconds && rounds >= p.minRounds) {
			break
		}
		withTrace := p.trace && rounds%2 == 1
		dst := series
		if withTrace {
			dst = traced
			tracedRnd++
		}
		var setup time.Duration
		for i, w := range ks {
			kr, err := runKernel(w, p, withTrace, rep)
			if err != nil {
				return err
			}
			s := dst[i]
			if len(s.base) == 0 {
				s.firstInline = kr.inlineStats
			} else {
				rep.check(kr.inlineStats == s.firstInline,
					"%s: inline-backend Stats changed between rounds of the same seed: %+v then %+v", w.Name(), s.firstInline, kr.inlineStats)
			}
			s.base = append(s.base, kr.base.Seconds())
			s.inline = append(s.inline, kr.inline.Seconds())
			s.imm = append(s.imm, kr.imm.Seconds())
			setup += kr.setup
			if !withTrace {
				immLat = append(immLat, kr.imm.Nanoseconds())
			} else {
				tr.add(kr)
			}
		}
		setups = append(setups, setup.Seconds())
		rounds++
	}
	wall := time.Since(t0)

	jobS, inlineS := kernelTotals(series)
	if !p.trace {
		rep.set("setup_s", median(setups), "s")
		rep.set("mem_mb", peakRSSMB(), "MB")
		rep.set("job_s", jobS, "s")
		rep.set("inline_job_s", inlineS, "s")
		rep.set("speedup", pairedSpeedup(series), "x")
		var immTotal int64
		for _, d := range immLat {
			immTotal += d
		}
		rep.set("rps", ratio(float64(len(immLat)), float64(immTotal)/1e9), "1/s")
		rep.quantileUS("p50_us", immLat, 0.50)
		rep.quantileUS("p99_us", immLat, 0.99)
		rep.counts["rounds"] = rounds
		rep.counts["wall_ms"] = int(wall.Milliseconds())
		return nil
	}

	for _, s := range series {
		rep.set("kernel."+s.name+".imm_s", median(s.imm), "s")
		rep.set("kernel."+s.name+".inline_s", median(s.inline), "s")
		rep.set("kernel."+s.name+".base_s", median(s.base), "s")
	}
	tracedJob, _ := kernelTotals(traced)
	rep.set("trace.overhead_frac", ratio(tracedJob, jobS)-1, "frac")
	tr.report(rep, tracedRnd)
	rep.set("host.steal_frac", stealFrac(host0, readHostTicks()), "frac")
	rep.counts["rounds"] = rounds
	rep.counts["traced_rounds"] = tracedRnd
	return nil
}

// kernelTotals sums the per-kernel median times of the immediate and
// inline backends.
func kernelTotals(ss []*kernelSeries) (imm, inline float64) {
	for _, s := range ss {
		imm += median(s.imm)
		inline += median(s.inline)
	}
	return imm, inline
}

// pairedSpeedup is the paper's headline speedup: the geomean over kernels
// of base/imm, taken within each round and then the median over rounds.
// A kernel's baseline and immediate runs are timed back to back, so a
// change in host speed between rounds cancels in the ratio instead of
// moving the figure.
func pairedSpeedup(ss []*kernelSeries) float64 {
	perRound := make([]float64, len(ss[0].imm))
	for r := range perRound {
		logSum := 0.0
		for _, s := range ss {
			logSum += math.Log(ratio(s.base[r], s.imm[r]))
		}
		perRound[r] = math.Exp(logSum / float64(len(ss)))
	}
	return median(perRound)
}

// runKernel runs one kernel baseline, inline and immediate at the plan's
// size and checks the three outputs and the dispatch identity.
func runKernel(w workloads.Workload, p kernelPlan, traced bool, rep *report) (kernelRun, error) {
	size := workloads.Size{Scale: 1, Iters: p.iters[w.Name()], Seed: p.seed}
	var kr kernelRun
	rep.ops(3)
	t := time.Now()
	base, err := w.RunBaseline(workloads.NewBaselineEnv(), size)
	kr.base = time.Since(t)
	if err != nil {
		return kr, fmt.Errorf("%s baseline: %w", w.Name(), err)
	}
	inline, err := runDTT(w, size, core.Config{Backend: core.BackendDeferred, Telemetry: traced}, &kr, false)
	if err != nil {
		return kr, err
	}
	imm, err := runDTT(w, size, core.Config{Backend: core.BackendImmediate, Workers: 2, Telemetry: traced}, &kr, traced)
	if err != nil {
		return kr, err
	}
	rep.check(base.Checksum == inline.Checksum && inline.Checksum == imm.Checksum,
		"%s: checksums differ: baseline %#x inline %#x immediate %#x", w.Name(), base.Checksum, inline.Checksum, imm.Checksum)
	for _, s := range []core.Stats{kr.inlineStats, kr.immStats} {
		rep.check(s.Fired == s.Enqueued+s.Squashed+s.Overflowed,
			"%s: Fired %d != Enqueued %d + Squashed %d + Overflowed %d", w.Name(), s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	return kr, nil
}

// runDTT constructs a runtime for cfg, times one data-triggered run on
// it and records the result into kr's inline or immediate fields.
func runDTT(w workloads.Workload, size workloads.Size, cfg core.Config, kr *kernelRun, readProcess bool) (workloads.Result, error) {
	t := time.Now()
	rt, err := core.New(cfg)
	kr.setup += time.Since(t)
	if err != nil {
		return workloads.Result{}, fmt.Errorf("%s %v runtime: %w", w.Name(), cfg.Backend, err)
	}
	defer rt.Close()
	var cpu0 cpuTimes
	var proc0 procCounters
	if readProcess {
		cpu0, proc0 = readCPU(), readProc()
	}
	t = time.Now()
	res, err := w.RunDTT(workloads.NewDTTEnv(rt), size)
	d := time.Since(t)
	if readProcess {
		kr.immCPU, kr.immProc = readCPU().sub(cpu0), readProc().sub(proc0)
	}
	if err != nil {
		return res, fmt.Errorf("%s %v: %w", w.Name(), cfg.Backend, err)
	}
	if cfg.Backend == core.BackendImmediate {
		kr.imm, kr.immStats = d, rt.Stats()
		if cfg.Telemetry {
			kr.immHists = rt.TelemetrySnapshot().Histograms
		}
	} else {
		kr.inline, kr.inlineStats = d, rt.Stats()
	}
	return res, nil
}

// kernelTrace sums the immediate-backend counters of traced rounds.
type kernelTrace struct {
	stats          core.Stats
	dispatch, busy histSum
	cpu            cpuTimes
	proc           procCounters
	runs           int
}

func (t *kernelTrace) add(kr kernelRun) {
	s := &t.stats
	s.TStores += kr.immStats.TStores
	s.Silent += kr.immStats.Silent
	s.Fired += kr.immStats.Fired
	s.Squashed += kr.immStats.Squashed
	s.Overflowed += kr.immStats.Overflowed
	t.dispatch.add(kr.immHists, dispatchHist)
	t.busy.add(kr.immHists, runHist)
	t.cpu = t.cpu.add(kr.immCPU)
	t.proc = t.proc.add(kr.immProc)
	t.runs++
}

func (t *kernelTrace) report(rep *report, rounds int) {
	s := t.stats
	rep.set("core.silent_frac", ratio(float64(s.Silent), float64(s.TStores)), "frac")
	rep.set("queue.squash_frac", ratio(float64(s.Squashed), float64(s.Fired)), "frac")
	rep.set("queue.overflow_frac", ratio(float64(s.Overflowed), float64(s.Fired)), "frac")
	rep.set("dispatch.wait_us_mean", t.dispatch.meanUS(), "us")
	rep.set("support.busy_s", ratio(float64(t.busy.sum)/1e9, float64(rounds)), "s")
	rep.set("support.busy_us_per_req", ratio(float64(t.busy.sum)/1e3, float64(t.runs)), "us")
	rep.set("proc.cpu_s", ratio(t.cpu.total().Seconds(), float64(rounds)), "s")
	rep.set("proc.cpu_us_per_req", ratio(float64(t.cpu.total().Microseconds()), float64(t.runs)), "us")
	rep.set("proc.sys_frac", ratio(float64(t.cpu.sys), float64(t.cpu.total())), "frac")
	rep.set("proc.allocs_per_req", ratio(float64(t.proc.mallocs), float64(t.runs)), "count")
	rep.set("gc.pause_ms", ratio(float64(t.proc.pauseNs)/1e6, float64(rounds)), "ms")
}
