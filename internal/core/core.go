// Package core implements the data-triggered threads runtime — the paper's
// primary contribution as a library.
//
// A program registers support threads (Register), attaches them to trigger
// ranges of memory regions (Attach), and writes trigger data through
// triggering stores (Region.TStore). A triggering store compares the new
// value against memory: if nothing changed it is silent and no work happens
// — this is where redundant computation is eliminated. If the value changed,
// an instance of each attached thread is enqueued in the thread queue,
// subject to duplicate squashing. The main thread consumes support-thread
// results after Wait (the paper's twait) or Barrier (tbarrier).
//
// Two execution models cover the evaluation space; Config.Backend selects
// one, and for the inline model its order and whether it records:
//
//   - The concurrent model (BackendImmediate) runs support threads on a
//     pool of goroutines, modelling spare hardware contexts with real
//     parallelism. This is the software-DTT configuration and what
//     examples use.
//   - The inline model runs queued instances on the calling goroutine, in
//     one dispatch loop, at Wait/Barrier: all redundancy elimination, no
//     parallelism. It is the ablation that separates the paper's two
//     benefit channels. The paper leaves the order of queued instances
//     open up to twait/tbarrier, so the loop's pick is pluggable: FIFO
//     (BackendDeferred), or a seeded deterministic scheduler
//     (internal/sched, BackendSeeded) that chooses which instance runs
//     next and also dispatches at triggering stores. Every interleaving it
//     produces is legal under the paper's model and the same seed replays
//     it, so it drives the protocol sanitizer through many schedules
//     reproducibly. BackendRecorded is the FIFO order plus task-DAG
//     recording through a trace.Recorder, feeding the SMT timing
//     simulator.
package core

import (
	"fmt"
	"runtime"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/sanitize"
	"dtt/internal/trace"
)

// ThreadID identifies a registered support thread.
type ThreadID = queue.ThreadID

// Trigger describes why a support-thread instance is running.
type Trigger struct {
	// Thread is the running thread's ID.
	Thread ThreadID
	// Region and Index locate the word whose change fired the trigger.
	// Under duplicate squashing an instance may observe values newer than
	// the one that fired it; the paper's model makes the same guarantee
	// (the thread sees memory at execution time, not at trigger time).
	Region *Region
	Index  int
	// Addr is the logical address of the trigger word.
	Addr mem.Addr
}

// ThreadFunc is a support-thread body.
type ThreadFunc func(tg Trigger)

// Backend selects the execution model.
type Backend int

// Backends.
const (
	// BackendDeferred selects the inline model in FIFO order: instances
	// queue and run at Wait/Barrier on the calling goroutine.
	BackendDeferred Backend = iota
	// BackendImmediate selects the concurrent model: a worker pool
	// dispatches instances as soon as they are enqueued.
	BackendImmediate
	// BackendRecorded behaves like BackendDeferred and records the task
	// DAG into Config.Recorder.
	BackendRecorded
	// BackendSeeded selects the inline model with a seeded pick: queued
	// instances run on the calling goroutine at seed-chosen preemption
	// points and in seed-chosen order. Given the same program and the same
	// Config.SchedSeed the interleaving is exactly reproducible.
	BackendSeeded
)

// String returns the backend name.
func (b Backend) String() string {
	switch b {
	case BackendDeferred:
		return "deferred"
	case BackendImmediate:
		return "immediate"
	case BackendRecorded:
		return "recorded"
	case BackendSeeded:
		return "seeded"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// CheckMode selects the protocol sanitizer mode. See internal/sanitize.
type CheckMode = sanitize.Mode

// Sanitizer modes.
const (
	// CheckOff disables the sanitizer (the default); accesses pay a
	// nil-check only.
	CheckOff = sanitize.CheckOff
	// CheckStrict threads a vector-clock happens-before layer through
	// triggering stores, Wait/Barrier, support-thread entry/exit and
	// region accesses, and records protocol violations (see
	// Runtime.Violations). Region accesses become substantially slower;
	// intended for tests and debugging, not production runs.
	CheckStrict = sanitize.CheckStrict
)

// Violation is a sanitizer diagnostic. See sanitize.Violation.
type Violation = sanitize.Violation

// Config configures a Runtime. The zero value selects the deferred backend
// with default hardware-structure sizes.
type Config struct {
	// Backend selects the execution model.
	Backend Backend
	// Workers is the number of support-thread contexts for
	// BackendImmediate; ignored otherwise. Defaults to 1.
	Workers int
	// QueueCapacity bounds the thread queue. Triggers that overflow fall
	// back to the Overflow policy. Defaults to 64. With Shards > 1 every
	// shard gets a full QueueCapacity-sized segment — capacity is
	// per-shard, not divided — so a thread's overflow behaviour does not
	// change with the shard count.
	QueueCapacity int
	// Shards is the number of dispatch shards the thread queue, TQST and
	// run tokens are split across. Thread t lives in shard t mod Shards;
	// stores triggering threads in different shards enqueue under
	// different locks and scale across producer cores. Values are rounded
	// up to a power of two. The default is 1 for the inline model
	// (deferred, recorded, seeded) — keeping its drain and replay order
	// bit-identical to the unsharded runtime — and the smallest power of
	// two >= GOMAXPROCS (at most 64) for BackendImmediate.
	Shards int
	// Dedup selects the duplicate-squashing policy. Defaults to the
	// paper's per-address squashing.
	Dedup queue.DedupPolicy
	// Overflow selects what a triggering store does when the queue is
	// full. Defaults to inline execution.
	Overflow queue.OverflowPolicy
	// System is the address space regions are allocated from; a fresh
	// one is created when nil.
	System *mem.System
	// Recorder receives the task DAG for BackendRecorded. The runtime
	// attaches it to System as a probe; the caller must not.
	Recorder *trace.Recorder
	// Checker enables the DTT protocol sanitizer. Defaults to CheckOff.
	Checker CheckMode
	// SchedSeed seeds the deterministic scheduler of BackendSeeded;
	// ignored by the other backends. Any value is valid, including zero.
	// Re-running the same program with the same seed replays the same
	// support-thread interleaving.
	SchedSeed uint64
	// MergeThreshold, when > 0, merges a region's privatized update deltas
	// eagerly once the number of distinct dirty words pending merge reaches
	// the threshold. Zero (the default) disables count-of-words eager
	// merging; deltas then merge at Wait/Barrier/Load or per MergeEvery.
	// See Region.TUpdate.
	MergeThreshold int
	// MergeEvery, when > 0, merges a region's privatized update deltas
	// eagerly every MergeEvery updates applied through one producer stripe.
	// The cadence is op-count based, not time based, so the seeded backend
	// replays eager merges deterministically. Zero (the default) disables
	// interval merging.
	MergeEvery int
	// Telemetry enables the metrics plane: per-shard latency, run-duration
	// and queue-depth histograms, pprof labels on support-thread instances,
	// and runtime/trace annotations. Off by default; when off the trigger
	// fast paths pay a single nil check and no time reads.
	Telemetry bool
	// MetricsAddr, when non-empty, starts an HTTP exporter on the address
	// serving /metrics (Prometheus text) and /debug/vars (expvar JSON).
	// Use "127.0.0.1:0" to bind an ephemeral port and read the bound
	// address back from Runtime.MetricsAddr. Implies Telemetry. The
	// exporter shuts down with Close.
	MetricsAddr string
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Shards <= 0 {
		c.Shards = defaultWidth(c.Backend == BackendImmediate)
	} else {
		c.Shards = ceilPow2(c.Shards)
		if c.Shards > 1024 {
			c.Shards = 1024
		}
	}
	if c.System == nil {
		c.System = mem.NewSystem()
	}
	if c.MetricsAddr != "" {
		c.Telemetry = true
	}
}

// defaultWidth is the default number of dispatch shards and of update-plane
// stripes. The concurrent model gets GOMAXPROCS rounded up to a power of
// two, capped at 64, so producers on every core find their own lock. The
// inline model gets 1, which keeps its drain order and its merge-time
// folding order exact.
func defaultWidth(concurrent bool) int {
	if !concurrent {
		return 1
	}
	return min(ceilPow2(runtime.GOMAXPROCS(0)), 64)
}

// ceilPow2 returns the smallest power of two >= n (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c *Config) validate() error {
	if c.Backend == BackendRecorded && c.Recorder == nil {
		return fmt.Errorf("core: BackendRecorded requires a Recorder")
	}
	if c.Backend != BackendRecorded && c.Recorder != nil {
		return fmt.Errorf("core: Recorder set but backend is %v", c.Backend)
	}
	if c.MergeThreshold < 0 {
		return fmt.Errorf("core: negative MergeThreshold %d", c.MergeThreshold)
	}
	if c.MergeEvery < 0 {
		return fmt.Errorf("core: negative MergeEvery %d", c.MergeEvery)
	}
	return nil
}
