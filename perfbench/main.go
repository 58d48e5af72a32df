// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the data-triggered-threads runtime, checks
// every output it produces, and prints the metrics by name with their
// units. It measures each layer from outside — by timing calls into the
// public functions of internal/workloads, internal/core and internal/serve
// and by reading the counters those packages already export — and adds
// no instrumentation to the program itself.
//
//	perfbench --workload kernels|webcache|leaderboard --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 a separate run prints the per-layer
// set (see README.md for every definition). The line before it carries
// the host fingerprint and the sample counts behind each percentile. Any
// failed correctness check makes the command exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dtt/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(runConfig, *report) error{
	"kernels":     func(c runConfig, r *report) error { return runKernels(defaultKernelPlan(c), r) },
	"webcache":    func(c runConfig, r *report) error { return runServing(defaultServingPlan(webcache, c), r) },
	"leaderboard": func(c runConfig, r *report) error { return runServing(defaultServingPlan(leaderboard, c), r) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFuncs))
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep := newReport()
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *trace == 1}
	if err := fn(cfg, rep); err != nil {
		rep.fail("%s: %v", *name, err)
	}
	if cfg.trace {
		rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac")
		rep.fillLayers()
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	if err := rep.write(stdout, *name, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// layerMetric is one declared per-layer metric.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric with its unit, as BENCHMARK.json
// declares them.
func perLayer() []layerMetric {
	var ms []layerMetric
	for _, w := range workloads.All() {
		for _, mode := range []string{"imm", "inline", "base"} {
			ms = append(ms, layerMetric{"kernel." + w.Name() + "." + mode + "_s", "s"})
		}
	}
	return append(ms, []layerMetric{
		{"core.silent_frac", "frac"}, {"queue.squash_frac", "frac"}, {"queue.overflow_frac", "frac"},
		{"dispatch.wait_us_mean", "us"}, {"support.busy_s", "s"}, {"support.busy_us_per_req", "us"},
		{"update.silent_frac", "frac"}, {"update.merge_us_mean", "us"},
		{"client.batch_us.p50", "us"}, {"client.batch_us.p99", "us"},
		{"client.update_us.p50", "us"}, {"client.update_us.p99", "us"},
		{"client.wait_us.p50", "us"}, {"client.wait_us.p99", "us"},
		{"client.drain_us.p50", "us"}, {"client.unattributed_us.p50", "us"},
		{"serve.frames_out_per_req", "count"}, {"serve.bytes_out_per_req", "count"},
		{"serve.notifies_per_req", "count"}, {"serve.notify_us_mean", "us"},
		{"serve.notify_dropped", "count"}, {"serve.errors", "count"},
		{"core.batch_us.p50", "us"}, {"core.update_us.p50", "us"}, {"core.wait_us.p50", "us"},
		{"proc.cpu_s", "s"}, {"proc.cpu_us_per_req", "us"}, {"proc.sys_frac", "frac"},
		{"proc.allocs_per_req", "count"}, {"gc.pause_ms", "ms"},
		{"trace.overhead_frac", "frac"}, {"trace.reconcile_frac", "frac"},
		{"host.steal_frac", "frac"}, {"fail_frac", "frac"},
	}...)
}

// fillLayers gives every per-layer metric the workload did not report the
// value 0: the workload does not go through that layer (no kernel runs on
// a serving workload, no serve plane under the kernels).
func (r *report) fillLayers() {
	for _, m := range perLayer() {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, its operation and check counts, and
// the sample count behind each reported percentile.
type report struct {
	metrics   map[string]metric
	counts    map[string]int
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// ops records n attempted operations of the workload.
func (r *report) ops(n int) { r.attempted += int64(n) }

// check records one correctness check; a false one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notes = append(r.notes, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation that stopped the workload.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// quantileUS reports the q-quantile of s in microseconds under name, and
// fails the run when fewer than minBeyond samples lie above it.
func (r *report) quantileUS(name string, s samples, q float64) {
	v, ok := s.us(q)
	r.counts[name] = len(s)
	if q > 0.5 {
		r.check(ok, "%s: %d samples leave fewer than %d above the %.0fth percentile", name, len(s), minBeyond, q*100)
	}
	r.set(name, v, "us")
}

// write prints the detail line and then the result line.
func (r *report) write(w io.Writer, workload string, traced bool) error {
	detail := map[string]any{
		"workload": workload,
		"trace":    traced,
		"host":     fingerprint(),
		"samples":  r.counts,
		"time":     time.Now().UTC().Format(time.RFC3339),
	}
	if err := json.NewEncoder(w).Encode(detail); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
}
