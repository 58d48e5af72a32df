package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dtt/internal/workloads"
)

func kernelByName(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no kernel %q", name)
	}
	return w
}

// tinyKernels runs every kernel at one iteration, as many rounds as the
// pooled p99 needs.
func tinyKernels(trace bool) kernelPlan {
	it := map[string]int{}
	for n := range kernelIters {
		it[n] = 1
	}
	p := kernelPlan{seed: 7, seconds: 0.01, trace: trace, iters: it, minRounds: 2, maxSeconds: 60}
	if !trace {
		p.minImmRuns = 100 * minBeyond
	}
	return p
}

// tinyServing plays two measured rounds of 600 requests per client, enough
// to put minBeyond samples above the p99 and to settle the medians the
// traced run reconciles.
func tinyServing(kind servingKind, trace bool) servingPlan {
	return servingPlan{
		kind: kind, seed: 7, trace: trace, clients: 2, keys: 64, batch: 16,
		perRound: 600, warmup: 2, setups: 1, rounds: 2,
	}
}

func mustRun(t *testing.T, f func(*report) error) *report {
	t.Helper()
	rep := newReport()
	if err := f(rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d checks or operations failed: %v", rep.failed, rep.attempted, rep.notes)
	}
	return rep
}

func TestSameSeedSameStreams(t *testing.T) {
	for _, kind := range []servingKind{webcache, leaderboard} {
		p := tinyServing(kind, false)
		a, b := newStreams(p), newStreams(p)
		genRound(p, 3, a)
		genRound(p, 3, b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed and round gave different streams", kind)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Fatalf("%s: both clients got the same stream", kind)
		}
		p.seed++
		genRound(p, 3, b)
		if reflect.DeepEqual(a, b) {
			t.Fatalf("%s: a different seed gave the same stream", kind)
		}
	}
}

func TestServingCountersRepeat(t *testing.T) {
	var silent []float64
	for i := 0; i < 2; i++ {
		rep := mustRun(t, func(r *report) error { return runServing(tinyServing(webcache, true), r) })
		if got := rep.metrics["serve.notifies_per_req"].Value; got != 16 {
			t.Fatalf("webcache serve.notifies_per_req = %v, want 16", got)
		}
		rep = mustRun(t, func(r *report) error { return runServing(tinyServing(leaderboard, true), r) })
		silent = append(silent, rep.metrics["update.silent_frac"].Value)
	}
	if silent[0] != silent[1] || silent[0] == 0 {
		t.Fatalf("leaderboard silent-merge share %v across two runs of one seed, want equal and nonzero", silent)
	}
}

func TestKernelInlineStatsRepeat(t *testing.T) {
	p := tinyKernels(false)
	for _, w := range []string{"crafty", "equake", "mesa"} {
		k := kernelByName(t, w)
		rep := newReport()
		a, err := runKernel(k, p, false, rep)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runKernel(k, p, true, rep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatal(rep.notes)
		}
		if a.inlineStats != b.inlineStats || a.inlineStats.TStores == 0 {
			t.Fatalf("%s: inline Stats %+v then %+v", w, a.inlineStats, b.inlineStats)
		}
	}
}

// TestNamesMatchBenchmarkJSON checks that every workload prints exactly
// the end-to-end metrics untraced and exactly the per-layer metrics
// traced, all with valid names and their declared units, and that each
// per-layer metric is measured by at least one workload rather than
// only filled in as 0.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, []string{"kernels", "webcache", "leaderboard"}) || len(workloadFuncs) != len(declared) {
		t.Fatalf("BENCHMARK.json workloads %v do not match the command's %v", declared, workloadNames())
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	e2e, layer := units(spec.EndToEnd), units(spec.PerLayer)
	table := map[string]string{}
	for _, m := range perLayer() {
		table[m.name] = m.unit
	}
	if !reflect.DeepEqual(table, layer) || len(perLayer()) != len(spec.PerLayer) {
		t.Fatalf("perLayer() %v does not match BENCHMARK.json per_layer %v", table, layer)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seenLayer := map[string]bool{}
	runs := []struct {
		name  string
		trace bool
		f     func(*report) error
	}{
		{"kernels", false, func(r *report) error { return runKernels(tinyKernels(false), r) }},
		{"kernels", true, func(r *report) error { return runKernels(tinyKernels(true), r) }},
		{"webcache", false, func(r *report) error { return runServing(tinyServing(webcache, false), r) }},
		{"webcache", true, func(r *report) error { return runServing(tinyServing(webcache, true), r) }},
		{"leaderboard", false, func(r *report) error { return runServing(tinyServing(leaderboard, false), r) }},
		{"leaderboard", true, func(r *report) error { return runServing(tinyServing(leaderboard, true), r) }},
	}
	for _, rn := range runs {
		rep := mustRun(t, rn.f)
		want := e2e
		if rn.trace {
			want = layer
			rep.set("fail_frac", 0, "frac")
			for name := range rep.metrics {
				seenLayer[name] = true
			}
			rep.fillLayers()
		}
		for name, m := range rep.metrics {
			if !valid.MatchString(name) {
				t.Errorf("%s: invalid metric name %q", rn.name, name)
			}
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("%s trace=%v: metric %q in %q is not declared so in BENCHMARK.json", rn.name, rn.trace, name, m.Unit)
			}
		}
		if len(rep.metrics) != len(want) {
			t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", rn.name, rn.trace, len(rep.metrics), len(want))
		}
		if !rn.trace {
			for name, m := range rep.metrics {
				if m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", rn.name, name)
				}
			}
		}
	}
	for name := range layer {
		if !seenLayer[name] {
			t.Errorf("per-layer metric %q is declared but no workload measures it", name)
		}
	}
}

func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "kernels", "--trace", "2"},
		{"--workload", "kernels", "--seconds", "0"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), "--workload") {
		t.Errorf("bad arguments printed %q to stdout and %q to stderr", out.String(), errb.String())
	}
}
