package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"sync"
	"sync/atomic"

	"dtt/internal/isa"
	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/sanitize"
	"dtt/internal/sched"
	"dtt/internal/telemetry"
	"dtt/internal/trace"
)

type attachment struct {
	region *Region
	lo, hi mem.Addr
}

// threadEntry is the runtime's per-thread record: the registered body, the
// thread's trigger ranges, and the thread's run token. The token serialises
// instances of one thread (the paper's one-instance-at-a-time rule) without
// involving any other thread: workers executing different threads only meet
// on a shard lock for queue operations, never on each other's tokens.
//
// name and fn are immutable after Register. atts and the token/waiter fields
// are guarded by the thread's shard lock (shardOf(t).mu); Attach and Cancel
// additionally hold rt.mu to serialise against registry mutations.
type threadEntry struct {
	name string
	fn   ThreadFunc
	atts []attachment

	// labels is the precomputed pprof label context for this thread's
	// instances (dtt_thread=name, dtt_thread_id=id), nil with telemetry
	// off. Building it once at Register keeps per-instance labelling to
	// two allocation-free SetGoroutineLabels calls. Immutable after
	// Register.
	labels context.Context

	// running is the run token: true while an instance of this thread is
	// executing (queue-dispatched or inline). owner is the goroutine id of
	// the token holder on the immediate backend, so a cascading trigger
	// that overflows the queue can recognise itself and recurse instead of
	// deadlocking on its own token.
	running bool
	owner   uint64

	// tokenWaiters are closed when no instance of this thread is executing
	// (the run token is free): inline overflow runners block here.
	// quietWaiters are closed when the thread is fully quiet (no pending,
	// no running, token free): Wait blocks here. Both are targeted wakeups
	// — only goroutines interested in this thread are woken.
	tokenWaiters []chan struct{}
	quietWaiters []chan struct{}
}

// covers reports whether addr falls in one of the thread's attached trigger
// ranges. Callers hold the thread's shard lock; a false result after a
// matching registry snapshot means a Cancel raced the store.
func (te *threadEntry) covers(addr mem.Addr) bool {
	for _, a := range te.atts {
		if addr >= a.lo && addr < a.hi {
			return true
		}
	}
	return false
}

// dispatchShard is one slice of the sharded dispatch plane: a colocated
// ring-buffer queue segment and TQST for the threads mapped to it, plus the
// shard-local bookkeeping Barrier and the worker wake protocol need. Thread
// t lives in shard uint32(t) & rt.shardMask, so two stores triggering
// threads in different shards enqueue under different locks and never
// contend.
type dispatchShard struct {
	mu   sync.Mutex
	tq   *queue.ThreadQueue
	tqst *queue.TQST
	// inlineRunning counts inline overflow executions in flight for threads
	// of this shard; they hold run tokens but are invisible to the TQST, so
	// the quiescence predicates must count them separately. Guarded by mu.
	inlineRunning int //dtt:guards mu
	// rr rotates worker wake targets so one hot shard does not pin all its
	// wakeups on one worker. Guarded by mu.
	rr int //dtt:guards mu
	// idx is the shard's own index, fixed at construction.
	idx int
	// c are the shard's trigger counters, guarded by mu. Stats sums them
	// under all shard locks for torn-free snapshots (see shardStats).
	c shardStats
	// busy mirrors tq.Len() + TQST running + inlineRunning. It is written
	// only under mu but read lock-free by the Barrier fast check and the
	// finish-side barrier hint, which sum it across shards.
	busy atomic.Int64
	// Pad the hot fields out to (at least) two cache lines so neighbouring
	// shards' locks and busy counters do not false-share.
	_ [72]byte
}

type releaseKey struct {
	thread ThreadID
	addr   mem.Addr
}

// Runtime is a data-triggered threads runtime instance.
//
// The main thread (the goroutine that created the runtime) allocates
// regions, registers and attaches threads, performs triggering stores and
// synchronises with Wait/Barrier. With BackendImmediate, support threads run
// concurrently on worker goroutines; the programming model requires — as
// the paper's does — that the main thread not access a support thread's
// output between the trigger and the matching Wait.
//
// # Lock hierarchy
//
// The hot path is layered so a triggering store pays only for what it uses
// (see DESIGN.md "Runtime lock hierarchy"):
//
//  1. No lock: the value comparison in mem.Buffer.Store, the stats
//     counters (atomic), the Registry.Covers/Each probes against the
//     registry's immutable index snapshot, and the thread table (an
//     atomically published copy-on-write slice). Silent stores and stores
//     to unattached addresses finish here and never contend.
//  2. Shard locks (dispatchShard.mu): thread queue segment, TQST slot,
//     per-thread records and run tokens of the shard's threads. A store
//     that fires takes only the target thread's shard lock, and only for
//     pointer-sized bookkeeping, never across a thread body. Stores that
//     trigger threads in different shards proceed in parallel.
//  3. rt.mu, the management lock: Register/Attach/Cancel/Close and registry
//     mutations. Never taken on the store path. Lock order is rt.mu →
//     shard locks (ascending index when more than one) → leaf locks
//     (barMu, relMu); the reverse order is never taken.
type Runtime struct {
	cfg Config
	sys *mem.System

	// reg is read lock-free on the store fast path; mutations happen under
	// rt.mu and publish a fresh snapshot (see queue.Registry).
	reg *queue.Registry

	// threads is the copy-on-write thread table: readers load the current
	// snapshot lock-free; Register appends under rt.mu and publishes a
	// fresh slice. Entries are never removed or reordered, so an ID valid
	// in any snapshot stays valid in every later one.
	threads atomic.Pointer[[]*threadEntry]

	// shards is the dispatch plane, sized to cfg.Shards (a power of two).
	shards    []dispatchShard
	shardMask uint32

	// mu is the management lock: Register/Attach/Cancel/Close and registry
	// mutations. The store fast path never takes it.
	mu sync.Mutex

	// barMu guards barrierWaiters; barWaiting mirrors len(barrierWaiters)
	// so the completion path can skip barMu entirely while nobody waits.
	barMu          sync.Mutex
	barrierWaiters []chan struct{} //dtt:guards barMu
	barWaiting     atomic.Int32

	// workerWake has one capacity-1 channel per immediate-backend worker.
	// An enqueue deposits a token for a chosen worker (dropped if one is
	// already pending — the worker will rescan anyway); a woken worker
	// scans every shard, its own first, so a token in any worker's buffer
	// is enough to get any shard's work picked up. The channels are never
	// closed: Close sets the closed flag and deposits one token per worker.
	workerWake []chan struct{}

	// release maps a pending queue entry to the trace task that released
	// it (only with a Recorder). Guarded by relMu, a leaf lock.
	relMu   sync.Mutex
	release map[releaseKey]trace.TaskID //dtt:guards relMu

	closed atomic.Bool
	wg     sync.WaitGroup

	// check is the protocol sanitizer, nil when Config.Checker is
	// CheckOff. It carries its own lock and never calls back into the
	// runtime, so it may be invoked with or without runtime locks held.
	check *sanitize.Checker
	// concurrent selects the execution model, derived from Config.Backend
	// once in New: true runs support threads on the worker pool
	// (BackendImmediate), false runs them inline on the goroutine that
	// reaches a Wait, a Barrier or a seeded preemption point (see drain).
	concurrent bool
	// sched, when non-nil (BackendSeeded), replaces the inline model's FIFO
	// pick with seeded choices and makes every triggering store a
	// preemption point. Only the runtime's single driving goroutine
	// consults it.
	sched *sched.Scheduler
	// elig is the reusable eligible-entry scratch for the seeded pick.
	// Only the single driving goroutine touches it, with all shard locks
	// held.
	elig []eligRef

	// batchMu/batchFree recycle tstoreBatch's grouping scratch. Unlike
	// elig the scratch must serve concurrent producers, so it is a free
	// list of private scratch structs rather than a single runtime-owned
	// slice. A mutex-guarded list rather than a sync.Pool on purpose: the
	// pool's victim cache empties on GC, which would put stray
	// allocations back on a path that contracts to 0 allocs/op. The two
	// lock acquisitions are per batch, amortized over the whole span.
	batchMu   sync.Mutex
	batchFree []*batchScratch //dtt:guards batchMu

	// updPlanes is the copy-on-write list of regions with an armed
	// privatized update plane: readers (Wait/Barrier merge points, Stats)
	// load it lock-free; armUpdates appends under rt.mu. Planes of freed
	// regions are removed by releaseRegionLocked.
	updPlanes atomic.Pointer[[]*updatePlane]

	// freeIDs are thread-table slots recycled by retireThreadLocked;
	// Register reuses them before growing the table. Guarded by rt.mu.
	freeIDs []ThreadID //dtt:guards mu

	// tel is the telemetry plane, nil when Config.Telemetry is off. Every
	// hot-path use is behind a nil check, so the disabled configuration
	// pays one predictable branch and no time reads.
	tel *telemetry.T
	// metricsSrv serves /metrics and /debug/vars when Config.MetricsAddr
	// is set; metricsAddr is the bound listen address (resolved, so
	// ":0"-style configs report the real port).
	metricsSrv  *http.Server
	metricsAddr string

	stats statsCounters
}

// eligRef locates one dispatch-eligible queue entry for the seeded pick:
// queue index idx of shard shard.
type eligRef struct {
	shard, idx int
}

// New builds a Runtime from cfg.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	rt := &Runtime{
		cfg: cfg,
		sys: cfg.System,
		reg: queue.NewRegistry(),
	}
	empty := make([]*threadEntry, 0)
	rt.threads.Store(&empty)
	rt.shards = make([]dispatchShard, cfg.Shards)
	rt.shardMask = uint32(cfg.Shards - 1)
	for s := range rt.shards {
		sh := &rt.shards[s]
		sh.idx = s
		sh.tq = queue.NewThreadQueue(cfg.QueueCapacity, cfg.Dedup)
		sh.tqst = queue.NewTQST()
	}
	if cfg.Telemetry {
		rt.tel = telemetry.New(len(rt.shards))
		for s := range rt.shards {
			// Stamp enqueues with the telemetry clock so dispatch can
			// observe trigger->dispatch latency.
			rt.shards[s].tq.SetClock(telemetry.Now)
		}
	}
	if cfg.MetricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("core: metrics listener: %w", err)
		}
		rt.metricsAddr = ln.Addr().String()
		rt.metricsSrv = telemetry.Serve(ln, rt)
	}
	if cfg.Checker != CheckOff {
		rt.check = sanitize.NewChecker()
	}
	rt.concurrent = cfg.Backend == BackendImmediate
	if cfg.Backend == BackendSeeded {
		rt.sched = sched.New(cfg.SchedSeed)
	}
	// validate admits a Recorder with BackendRecorded only.
	if cfg.Recorder != nil {
		rt.release = make(map[releaseKey]trace.TaskID)
		rt.sys.AttachProbe(cfg.Recorder)
		if rt.check != nil {
			rec := cfg.Recorder
			rt.check.SetReporter(func(sanitize.Violation) { rec.NoteViolation() })
		}
	}
	if rt.concurrent {
		if rt.sys.Probed() {
			return nil, fmt.Errorf("core: BackendImmediate cannot run with probes attached; probes are not safe under concurrency")
		}
		rt.workerWake = make([]chan struct{}, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			rt.workerWake[i] = make(chan struct{}, 1)
		}
		for i := 0; i < cfg.Workers; i++ {
			rt.wg.Add(1)
			go rt.worker(i)
		}
	}
	return rt, nil
}

// threadsSnap returns the current thread-table snapshot. The result is
// immutable; callers needing consistency with a shard's queue contents must
// load it after acquiring that shard's lock.
func (rt *Runtime) threadsSnap() []*threadEntry { return *rt.threads.Load() }

// shardOf returns the dispatch shard thread t maps to.
func (rt *Runtime) shardOf(t ThreadID) *dispatchShard {
	return &rt.shards[uint32(t)&rt.shardMask]
}

// System returns the runtime's address space.
func (rt *Runtime) System() *mem.System { return rt.sys }

// MetricsAddr returns the metrics exporter's bound listen address, or "" when
// Config.MetricsAddr was empty. A config of "127.0.0.1:0" resolves here to
// the real ephemeral port.
func (rt *Runtime) MetricsAddr() string { return rt.metricsAddr }

// Config returns the configuration the runtime was built with (after
// defaulting; Config.Shards reports the effective shard count).
func (rt *Runtime) Config() Config { return rt.cfg }

// ShardCount returns the number of dispatch shards.
func (rt *Runtime) ShardCount() int { return len(rt.shards) }

// NewRegion allocates a region of n words in the runtime's address space.
// Allocation is serialised under rt.mu: mem.System carries no lock of its
// own, and the serving plane creates regions from concurrent sessions.
func (rt *Runtime) NewRegion(name string, n int) *Region {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return &Region{rt: rt, buf: rt.sys.Alloc(name, n)}
}

// Register records a support thread body under name and returns its ID.
// Slots retired by Namespace.Close are reused before the table grows, so
// steady session churn keeps the thread table at a fixed size.
func (rt *Runtime) Register(name string, fn ThreadFunc) ThreadID {
	if fn == nil {
		panic("core: Register with nil ThreadFunc")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.threadsSnap()
	var id ThreadID
	var grown []*threadEntry
	if n := len(rt.freeIDs); n > 0 {
		id = rt.freeIDs[n-1]
		rt.freeIDs = rt.freeIDs[:n-1]
		grown = make([]*threadEntry, len(old))
	} else {
		id = ThreadID(len(old))
		grown = make([]*threadEntry, len(old)+1)
	}
	te := &threadEntry{name: name, fn: fn}
	if rt.tel != nil {
		te.labels = pprof.WithLabels(context.Background(),
			pprof.Labels("dtt_thread", name, "dtt_thread_id", strconv.Itoa(int(id))))
	}
	copy(grown, old)
	grown[id] = te
	rt.threads.Store(&grown)
	if rt.check != nil {
		rt.check.RegisterThread(id, name)
	}
	return id
}

// ThreadName returns the name thread t was registered under.
func (rt *Runtime) ThreadName(t ThreadID) string {
	ths := rt.threadsSnap()
	if int(t) < 0 || int(t) >= len(ths) {
		return fmt.Sprintf("thread-%d", t)
	}
	return ths[t].name
}

// Attach arms thread t to trigger on stores to words [lo, hi) of r. This is
// the tspawn registration instruction.
func (rt *Runtime) Attach(t ThreadID, r *Region, lo, hi int) error {
	if r == nil || r.rt != rt {
		return fmt.Errorf("core: Attach to a region of a different runtime")
	}
	if lo < 0 || hi > r.Len() || lo >= hi {
		return fmt.Errorf("core: Attach range [%d, %d) outside region %q of %d words", lo, hi, r.Name(), r.Len())
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ths := rt.threadsSnap()
	if int(t) < 0 || int(t) >= len(ths) {
		return fmt.Errorf("core: Attach of unregistered thread %d", t)
	}
	loA, hiA := r.buf.Addr(lo), r.buf.Addr(hi)
	if err := rt.reg.Attach(t, loA, hiA); err != nil {
		return err
	}
	te := ths[t]
	sh := rt.shardOf(t)
	sh.mu.Lock()
	te.atts = append(te.atts, attachment{region: r, lo: loA, hi: hiA})
	sh.mu.Unlock()
	if rt.check != nil {
		rt.check.OnAttach(t, loA, hiA)
	}
	rt.chargeMgmt(isa.OpTSpawn)
	return nil
}

// AllowWrites declares words [lo, hi) of r a legal output window of thread
// t for the protocol sanitizer. Write confinement is opt-in per thread:
// once any window is granted, CheckStrict confines t's writes to its
// attached trigger windows plus its granted output windows and reports any
// other write as a write-escape violation. A thread with no grants is not
// confined (its outputs are undeclared). With the checker off this is a
// no-op (the declaration is still validated).
func (rt *Runtime) AllowWrites(t ThreadID, r *Region, lo, hi int) error {
	if r == nil || r.rt != rt {
		return fmt.Errorf("core: AllowWrites on a region of a different runtime")
	}
	if lo < 0 || hi > r.Len() || lo >= hi {
		return fmt.Errorf("core: AllowWrites range [%d, %d) outside region %q of %d words", lo, hi, r.Name(), r.Len())
	}
	if rt.check != nil {
		rt.check.Grant(t, r.buf.Addr(lo), r.buf.Addr(hi))
	}
	return nil
}

// Violations returns the protocol violations the sanitizer has recorded so
// far, in detection order. It returns nil when the checker is off.
func (rt *Runtime) Violations() []sanitize.Violation {
	if rt.check == nil {
		return nil
	}
	return rt.check.Violations()
}

// CheckErr returns nil if the sanitizer is off or recorded no violations,
// otherwise an error carrying the first violation and the total count.
func (rt *Runtime) CheckErr() error {
	if rt.check == nil {
		return nil
	}
	return rt.check.Err()
}

// Cancel detaches thread t and squashes its pending instances (tcancel).
// It takes the management lock and then only t's shard lock: a thread's
// queue entries, TQST slot and token all live in one shard.
func (rt *Runtime) Cancel(t ThreadID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ths := rt.threadsSnap()
	known := int(t) >= 0 && int(t) < len(ths)
	sh := rt.shardOf(t)
	sh.mu.Lock()
	if rt.check != nil {
		_, running := sh.tqst.InFlight(t)
		if known && ths[t].running && running == 0 {
			// An inline overflow run holds the token but is invisible to
			// the TQST; it is racing this cancel all the same.
			running = 1
		}
		rt.check.OnCancel(t, running)
	}
	rt.reg.Detach(t)
	if known {
		ths[t].atts = nil
	}
	n := sh.tq.Squash(t)
	sh.tqst.Cancel(t, n)
	if n > 0 {
		sh.busy.Add(int64(-n))
	}
	rt.dropReleases(t)
	rt.stats.cancels.Add(1)
	rt.chargeMgmt(isa.OpTCancel)
	// Squashing may have made t — or the whole runtime — quiet.
	rt.finishShardLocked(sh, t, ths)
	sh.mu.Unlock()
}

// retireThreadLocked recycles cancelled thread t's table slot: the entry
// is replaced by an inert tombstone (dropping the registered closure and
// whatever it captured) and the ID goes on the free list for the next
// Register, so steady namespace churn keeps the thread table at a fixed
// size. Only a fully quiet thread retires — no pending or running
// instance, run token free, no attachments; otherwise the slot is left
// as-is and the call reports false (a still-running instance finishes
// against the old entry it captured). Callers hold rt.mu.
func (rt *Runtime) retireThreadLocked(t ThreadID) bool {
	ths := rt.threadsSnap()
	if int(t) < 0 || int(t) >= len(ths) {
		return false
	}
	te := ths[t]
	sh := rt.shardOf(t)
	sh.mu.Lock()
	_, running := sh.tqst.InFlight(t)
	quiet := !te.running && running == 0 && !sh.tq.Pending(t) && sh.tqst.Quiet(t) && len(te.atts) == 0
	if quiet {
		sh.tqst.Forget(t)
	}
	sh.mu.Unlock()
	if !quiet {
		return false
	}
	grown := make([]*threadEntry, len(ths))
	copy(grown, ths)
	grown[t] = &threadEntry{name: te.name + " (retired)"}
	rt.threads.Store(&grown)
	rt.freeIDs = append(rt.freeIDs, t)
	if rt.check != nil {
		rt.check.RetireThread(t)
	}
	return true
}

// waitQuiet blocks until thread t has no pending or running instance,
// sleeping on t's quiet-waiter channel: the wakeup predicate is three O(1)
// checks against t's own shard-local counters — it never scans a queue or
// touches another shard — and completions of other threads do not wake
// it. It is the concurrent model's Wait, without Wait's merge point, join
// edge or stats. Namespace.Close also uses it after Cancel to let an
// in-flight instance finish before the namespace's regions are freed — a
// cancelled instance keeps executing against the entries it captured, and
// a store it issues through a freed region would land in an address range
// the arena may already have handed to another tenant. On the inline
// model a running instance cannot coexist with the caller, so the
// predicate holds immediately. Must not be called with rt.mu or any shard
// lock held, nor from a support-thread body of t.
func (rt *Runtime) waitQuiet(t ThreadID) {
	sh := rt.shardOf(t)
	sh.mu.Lock()
	for {
		ths := rt.threadsSnap()
		if int(t) < 0 || int(t) >= len(ths) {
			break
		}
		te := ths[t]
		if !sh.tq.Pending(t) && sh.tqst.Quiet(t) && !te.running {
			break
		}
		ch := make(chan struct{})
		te.quietWaiters = append(te.quietWaiters, ch)
		sh.mu.Unlock()
		<-ch
		sh.mu.Lock()
	}
	sh.mu.Unlock()
}

// releaseRegionLocked returns r's backing range to the arena free list and
// removes its update plane (if armed) from the merge set. The caller must
// guarantee that no further accesses through r happen and that no thread
// is attached inside it — Namespace.Close cancels its threads first.
// Callers hold rt.mu.
func (rt *Runtime) releaseRegionLocked(r *Region) {
	if u := r.upd.Load(); u != nil {
		// Fold the plane's lifetime op count into the retired counter so
		// Stats.TUpdates stays monotone once the plane leaves the live set.
		rt.stats.retiredUpdates.Add(u.plane.Ops())
		if ps := rt.updPlanes.Load(); ps != nil {
			pruned := make([]*updatePlane, 0, len(*ps))
			for _, p := range *ps {
				if p != u {
					pruned = append(pruned, p)
				}
			}
			rt.updPlanes.Store(&pruned)
		}
		// Kill the plane under its merge lock BEFORE freeing the range: a
		// concurrent mergeAllPlanes (another session's Wait/Barrier) may
		// hold a pre-prune updPlanes snapshot, and blocking it out here —
		// then having mergePlane re-check dead under the same lock — is
		// what keeps its merge from storing into the freed range. Pending
		// deltas are discarded, not merged: the session is gone and nothing
		// may observe its memory again. Taking mergeMu under rt.mu is safe
		// because a mergeMu holder never acquires rt.mu (see the lock-order
		// note in update.go).
		u.mergeMu.Lock()
		u.dead = true
		u.plane.Discard()
		u.mergeMu.Unlock()
	}
	lo := r.buf.Base()
	hi := lo + mem.Addr(r.buf.Len())*mem.WordBytes
	rt.sys.Free(r.buf)
	if rt.check != nil {
		// Drop stale write stamps so a later tenant reusing the range does
		// not inherit the old tenant's happens-before obligations.
		rt.check.ReleaseRange(lo, hi)
	}
}

// chargeMgmt accounts a management instruction in recorded mode. Callers
// are on the single driver goroutine (the recorded backend's contract).
func (rt *Runtime) chargeMgmt(op isa.Opcode) {
	if rt.cfg.Recorder == nil {
		return
	}
	ins, _ := isa.Lookup(op)
	rt.cfg.Recorder.NoteMgmt(int64(ins.Latency))
}

// tstore is the triggering-store implementation shared by Region.TStore and
// Region.TStoreF. It returns whether the value changed.
//
// The fast paths are allocation-free and ordered cheapest-first: a silent
// store is one atomic compare-and-swap plus two counters; a changing store
// to an unattached address adds a lock-free index probe; only a changing
// store inside a trigger range takes a lock, and then only the target
// thread's shard lock, for the enqueue bookkeeping. Stores that trigger
// threads in different shards never contend with each other.
func (rt *Runtime) tstore(r *Region, i int, v mem.Word) bool {
	changed := r.buf.Store(i, v)
	if rt.cfg.Recorder != nil {
		rt.cfg.Recorder.NoteTStore()
	}
	rt.stats.tstores.Add(1)
	if !changed {
		rt.stats.silent.Add(1)
		if rt.check != nil {
			// A silent store still counts against write confinement: where
			// a thread stores is decided by the instruction, not by the
			// value already in memory. No happens-before stamp — nothing
			// was published.
			rt.check.OnSilentStore(goid(), r.Name(), i, r.buf.Addr(i))
		}
		return false
	}
	addr := r.buf.Addr(i)
	// g is only resolved when the sanitizer is on: goid costs a stack
	// read, which the checked configuration accepts and the fast path
	// must not pay.
	var g uint64
	if rt.check != nil {
		g = goid()
		rt.check.OnStore(g, r.Name(), i, addr)
	}
	if !rt.reg.Covers(addr) {
		if rt.sched != nil {
			rt.drain(true)
		}
		return true
	}

	var inline []queue.Entry
	rt.reg.Each(addr, func(id queue.ThreadID) {
		rt.fireOne(id, addr, g, &inline)
	})

	for _, e := range inline {
		rt.runInline(e)
	}
	if rt.sched != nil {
		// A triggering store is a preemption point: the deterministic
		// scheduler may dispatch any number of pending instances here.
		rt.drain(true)
	}
	return true
}

// fireOne dispatches one fired (thread, addr) trigger under the thread's
// shard lock (see admitLocked), settling busy, the queue-depth sample and
// the worker wakeup per entry. Both the scalar tstore path and the
// update-merge plane dispatch through here, so merge stores are
// trigger-identical to scalar triggering stores.
func (rt *Runtime) fireOne(id queue.ThreadID, addr mem.Addr, g uint64, inline *[]queue.Entry) {
	// The thread table is loaded after the registry snapshot, so an id
	// the registry knows is always in range here.
	te := rt.threadsSnap()[id]
	sh := rt.shardOf(id)
	sh.mu.Lock()
	if rt.admitLocked(sh, te, id, addr, g, inline) {
		sh.busy.Add(1)
		if rt.tel != nil {
			rt.tel.Shard(sh.idx).QueueDepth.Observe(int64(sh.tq.Len()))
		}
		rt.signalShardLocked(sh)
	}
	sh.mu.Unlock()
}

// admitLocked offers one fired (thread, addr) trigger to the thread's
// queue segment and reports whether it was enqueued. It re-checks coverage
// against a racing Cancel, then moves fired plus exactly one of
// enqueued/squashed/overflowed, so the identity Fired = Enqueued +
// Squashed + Overflowed holds under the shard lock at all times. An
// overflow under OverflowInline is appended to inline for the caller to
// run once it holds no shard lock. busy, the queue-depth sample and the
// worker wakeup are left to the caller, which settles them per entry
// (fireOne) or per shard (tstoreBatch). Callers hold sh.mu, the shard of
// id, whose thread-table entry is te.
func (rt *Runtime) admitLocked(sh *dispatchShard, te *threadEntry, id queue.ThreadID, addr mem.Addr, g uint64, inline *[]queue.Entry) bool {
	if !te.covers(addr) {
		// A concurrent Cancel detached the range between the registry
		// snapshot and this shard lock; the trigger never happened.
		return false
	}
	sh.c.fired++
	if rt.check != nil {
		// Every outcome — enqueued, squashed, overflowed — ends in an
		// instance that observes this store, so the release edge is
		// recorded unconditionally.
		rt.check.OnTrigger(g, id)
	}
	switch sh.tq.Enqueue(id, addr) {
	case queue.Enqueued:
		sh.tqst.MarkPending(id)
		sh.c.enqueued++
		rt.noteRelease(id, addr)
		return true
	case queue.Squashed:
		sh.c.squashed++
		rt.noteRelease(id, addr)
	case queue.Overflowed:
		sh.c.overflowed++
		if rt.cfg.Overflow == queue.OverflowInline {
			*inline = append(*inline, queue.Entry{Thread: id, Addr: addr})
		} else {
			sh.c.dropped++
		}
	}
	return false
}

// firedTrigger is one (thread, trigger address) pair a batch collected for
// dispatch.
type firedTrigger struct {
	id   queue.ThreadID
	addr mem.Addr
}

// batchScratch is tstoreBatch's per-call working set: the fired pairs
// collected during the write phase and the per-shard tally that lets the
// dispatch phase skip shards with nothing to do. Instances live in
// Runtime.batchPool; slices keep their capacity across calls, so a warmed
// scratch serves any batch the program repeats without allocating.
type batchScratch struct {
	fired    []firedTrigger
	perShard []int32
	inline   []queue.Entry
	// cands holds the attachments overlapping the batch span, resolved once
	// per batch; it is truncated before each use, so begin need not reset it.
	cands []queue.Attachment
}

func (sc *batchScratch) begin(shards int) {
	sc.fired = sc.fired[:0]
	sc.inline = sc.inline[:0]
	if cap(sc.perShard) < shards {
		sc.perShard = make([]int32, shards) //dtt:escape-ok -- warms a fresh scratch once; the free list retains it
	}
	sc.perShard = sc.perShard[:shards]
	for i := range sc.perShard {
		sc.perShard[i] = 0
	}
}

// getScratch pops a warmed scratch off the free list, or makes a fresh one
// the first time a producer batches (the free list retains it afterwards).
func (rt *Runtime) getScratch() *batchScratch {
	rt.batchMu.Lock()
	if n := len(rt.batchFree); n > 0 {
		sc := rt.batchFree[n-1]
		rt.batchFree = rt.batchFree[:n-1]
		rt.batchMu.Unlock()
		return sc
	}
	rt.batchMu.Unlock()
	return new(batchScratch)
}

func (rt *Runtime) putScratch(sc *batchScratch) {
	rt.batchMu.Lock()
	rt.batchFree = append(rt.batchFree, sc)
	rt.batchMu.Unlock()
}

// tstoreBatch is the batched triggering store behind Region.TStoreBatch and
// Region.TStoreRange: semantically len(vs) scalar tstores, with the
// dispatch overhead amortized over the span. It returns how many words
// changed.
//
// The batch runs in two phases. The write phase performs the word-at-a-time
// atomic compares and resolves every changed word against ONE registry
// snapshot — all words of a batch see the same attachment set, so a
// concurrent Attach/Detach orders entirely before or after the batch. The
// dispatch phase groups the fired (thread, addr) pairs by target shard and
// takes each shard's lock exactly once, walking shards in ascending index
// order (locks are taken one at a time, never nested, so this matches the
// documented shard-lock order). Within the critical section each entry
// still moves fired plus exactly one of enqueued/squashed/overflowed, so
// the per-shard identity Fired = Enqueued + Squashed + Overflowed holds at
// every instant, exactly as for scalar tstores (both admit through
// admitLocked); busy and the queue-depth sample settle once per shard
// rather than once per entry.
//
// Under a seeded scheduler the whole batch is a single preemption point at
// its end — the deterministic scheduler cannot observe a half-written
// span. The scratch comes from rt.batchPool, keeping the steady-state path
// at 0 allocs/op for silent, squashed and enqueueing batches alike.
func (rt *Runtime) tstoreBatch(r *Region, lo int, vs []mem.Word) int {
	if len(vs) == 0 {
		return 0
	}
	if lo < 0 || lo+len(vs) > r.buf.Len() {
		panic(fmt.Sprintf("core: TStoreBatch [%d, %d) out of range of %q (%d words)",
			lo, lo+len(vs), r.Name(), r.buf.Len()))
	}
	rec := rt.cfg.Recorder
	var g uint64
	if rt.check != nil {
		g = goid()
	}

	sc := rt.getScratch()
	sc.begin(len(rt.shards)) //dtt:escape-ok -- inlined scratch warm-up; allocates only for a fresh scratch
	// One index resolution for the whole contiguous span: per word, trigger
	// matching is then an interval test against the (usually zero or one)
	// candidate attachments, in index order — the same matches in the same
	// order a per-word lookup would produce.
	sc.cands = rt.reg.Snapshot().Overlapping(r.buf.Addr(lo), r.buf.Addr(lo+len(vs)), sc.cands[:0])
	changed, lookups, matches := 0, 0, 0
	for j, v := range vs {
		if !r.buf.Store(lo+j, v) {
			if rec != nil {
				rec.NoteTStore()
			}
			if rt.check != nil {
				rt.check.OnSilentStore(g, r.Name(), lo+j, r.buf.Addr(lo+j))
			}
			continue
		}
		changed++
		if rec != nil {
			rec.NoteTStore()
		}
		addr := r.buf.Addr(lo + j)
		if rt.check != nil {
			rt.check.OnStore(g, r.Name(), lo+j, addr)
		}
		matched := 0
		for _, a := range sc.cands {
			if a.Lo <= addr && addr < a.Hi {
				matched++
				sc.fired = append(sc.fired, firedTrigger{id: a.Thread, addr: addr})
				sc.perShard[uint32(a.Thread)&rt.shardMask]++
			}
		}
		if matched > 0 {
			// Mirror the scalar path's T3 accounting: a lookup is recorded
			// only for covered probes (Covers rejections are free there).
			lookups++
			matches += matched
		}
	}
	rt.stats.tstores.Add(int64(len(vs)))
	if silent := len(vs) - changed; silent > 0 {
		rt.stats.silent.Add(int64(silent))
	}
	rt.reg.NoteLookups(int64(lookups), int64(matches))
	if rt.tel != nil {
		rt.tel.BatchSize.Observe(int64(len(vs)))
	}

	if len(sc.fired) > 0 {
		ths := rt.threadsSnap()
		for s := range rt.shards {
			if sc.perShard[s] == 0 {
				continue
			}
			sh := &rt.shards[s]
			enqueued := 0
			sh.mu.Lock()
			for _, ft := range sc.fired {
				if uint32(ft.id)&rt.shardMask == uint32(s) &&
					rt.admitLocked(sh, ths[ft.id], ft.id, ft.addr, g, &sc.inline) {
					enqueued++
				}
			}
			if enqueued > 0 {
				sh.busy.Add(int64(enqueued))
				if rt.tel != nil {
					// One depth sample per shard per batch: the depth after
					// the batch's admissions, not one sample per entry.
					rt.tel.Shard(sh.idx).QueueDepth.Observe(int64(sh.tq.Len()))
				}
				rt.signalShardLocked(sh)
			}
			sh.mu.Unlock()
		}
	}

	for _, e := range sc.inline {
		rt.runInline(e)
	}
	sc.inline = sc.inline[:0]
	rt.putScratch(sc)
	if changed > 0 && rt.sched != nil {
		// The whole batch is ONE preemption point, at its end.
		rt.drain(true)
	}
	return changed
}

// signalShardLocked hands one wake token to a worker for newly dispatchable
// work in sh. The target rotates per shard so a hot shard spreads its
// wakeups; dropping the token when the target's buffer is full is safe — a
// full buffer means that worker already has a pending wakeup, and a woken
// worker scans every shard before sleeping again. Callers hold sh.mu.
func (rt *Runtime) signalShardLocked(sh *dispatchShard) {
	if rt.workerWake == nil {
		return
	}
	w := (sh.idx + sh.rr) % len(rt.workerWake)
	sh.rr++
	select {
	case rt.workerWake[w] <- struct{}{}:
	default:
	}
}

// finishShardLocked propagates the consequences of thread t's activity
// dropping: it frees t's run token waiters, re-offers t's skipped queue
// entries to workers, completes Wait waiters whose predicate became true,
// and hints the barrier path. Callers hold sh.mu, where sh is t's shard.
func (rt *Runtime) finishShardLocked(sh *dispatchShard, t ThreadID, ths []*threadEntry) {
	if int(t) >= 0 && int(t) < len(ths) {
		te := ths[t]
		_, running := sh.tqst.InFlight(t)
		if !te.running && running == 0 {
			if len(te.tokenWaiters) > 0 {
				for _, ch := range te.tokenWaiters {
					close(ch)
				}
				te.tokenWaiters = nil
			}
			if sh.tq.Pending(t) {
				// Entries of t skipped while t was running are
				// dispatchable again.
				rt.signalShardLocked(sh)
			} else if sh.tqst.Quiet(t) && len(te.quietWaiters) > 0 {
				for _, ch := range te.quietWaiters {
					close(ch)
				}
				te.quietWaiters = nil
			}
		}
	}
	rt.maybeReleaseBarrier()
}

// busySumRacy sums the shards' busy counters without locks. A zero result
// is only a hint: a trigger cascading from one shard to another can make
// the sum read zero transiently (the reader sees the source shard after its
// decrement and the target shard before its increment). Barrier therefore
// confirms under all shard locks before returning; the completion-side use
// only risks a spurious wakeup.
func (rt *Runtime) busySumRacy() int64 {
	var sum int64
	for s := range rt.shards {
		sum += rt.shards[s].busy.Load()
	}
	return sum
}

// maybeReleaseBarrier wakes barrier waiters when the racy busy sum reads
// zero. It is called from completion paths that hold one shard lock, so it
// must not take the other shards' locks; waiters treat the wakeup as a hint
// and re-confirm. Checking barWaiting first keeps the common no-waiter case
// to one atomic load.
func (rt *Runtime) maybeReleaseBarrier() {
	if rt.barWaiting.Load() == 0 {
		return
	}
	if rt.busySumRacy() == 0 {
		rt.wakeBarrierWaiters()
	}
}

// wakeBarrierWaiters releases every registered barrier waiter.
func (rt *Runtime) wakeBarrierWaiters() {
	rt.barMu.Lock()
	for _, ch := range rt.barrierWaiters {
		close(ch)
	}
	rt.barrierWaiters = rt.barrierWaiters[:0]
	rt.barWaiting.Store(0)
	rt.barMu.Unlock()
}

// lockAllShards acquires every shard lock in ascending index order — the
// only legal order; unlockAllShards releases them.
func (rt *Runtime) lockAllShards() {
	for s := range rt.shards {
		rt.shards[s].mu.Lock()
	}
}

func (rt *Runtime) unlockAllShards() {
	for s := range rt.shards {
		rt.shards[s].mu.Unlock()
	}
}

// quietConfirm is the authoritative tbarrier predicate: with every shard
// lock held, no shard has a pending entry, a TQST instance, or an inline
// run in flight. The racy busy sum cannot substitute for it (see
// busySumRacy), but each per-shard check is O(1).
func (rt *Runtime) quietConfirm() bool {
	rt.lockAllShards()
	defer rt.unlockAllShards()
	for s := range rt.shards {
		sh := &rt.shards[s]
		if sh.tq.Len() != 0 || !sh.tqst.AllQuiet() || sh.inlineRunning != 0 {
			return false
		}
	}
	return true
}

// noteRelease records the current trace position as the release point of the
// pending entry for (t, addr). Only with a Recorder.
func (rt *Runtime) noteRelease(t ThreadID, addr mem.Addr) {
	if rt.release == nil { //dtt:ignore atomics -- nil-gate on a map set once at construction (with a Recorder); never reassigned
		return
	}
	rt.relMu.Lock()
	rt.release[releaseKey{thread: t, addr: addr}] = rt.cfg.Recorder.ReleasePoint()
	rt.relMu.Unlock()
}

// takeRelease pops the recorded release point for an entry, or trace.NoTask.
func (rt *Runtime) takeRelease(e queue.Entry) trace.TaskID {
	if rt.release == nil { //dtt:ignore atomics -- nil-gate on a map set once at construction; never reassigned
		return trace.NoTask
	}
	rt.relMu.Lock()
	defer rt.relMu.Unlock()
	k := releaseKey{thread: e.Thread, addr: e.Addr}
	if rel, ok := rt.release[k]; ok {
		delete(rt.release, k)
		return rel
	}
	return trace.NoTask
}

// dropReleases discards the recorded release points of thread t (tcancel).
func (rt *Runtime) dropReleases(t ThreadID) {
	if rt.release == nil { //dtt:ignore atomics -- nil-gate on a map set once at construction; never reassigned
		return
	}
	rt.relMu.Lock()
	for k := range rt.release {
		if k.thread == t {
			delete(rt.release, k)
		}
	}
	rt.relMu.Unlock()
}

// resolveShardLocked builds the Trigger for a queue entry from the thread's
// own attachment list. Callers hold the entry's shard lock, which guards
// atts.
func (rt *Runtime) resolveShardLocked(ths []*threadEntry, e queue.Entry) (Trigger, ThreadFunc) {
	te := ths[e.Thread]
	for _, a := range te.atts {
		if e.Addr >= a.lo && e.Addr < a.hi {
			return Trigger{
				Thread: e.Thread,
				Region: a.region,
				Index:  a.region.buf.Index(e.Addr),
				Addr:   e.Addr,
			}, te.fn
		}
	}
	// An entry can only exist for an attached range: the enqueue side
	// re-checks the attachment under the shard lock, and Cancel squashes
	// entries under the same lock when detaching. Reaching here is a
	// runtime bug.
	panic(fmt.Sprintf("core: queue entry for thread %d addr %#x has no attachment", e.Thread, e.Addr))
}

// runInstance executes one support-thread instance through invoke,
// surrounding it with the telemetry plane when it is on: the
// trigger->dispatch latency observation (for entries that sat in a
// queue), pprof goroutine labels so CPU profiles attribute samples to the
// thread, a runtime/trace task+region when tracing is active, and the
// run-duration observation. With telemetry off it is exactly invoke —
// one nil check. With telemetry on but tracing off it stays
// allocation-free: the label context is precomputed at Register and
// SetGoroutineLabels allocates nothing.
func (rt *Runtime) runInstance(e queue.Entry, fn ThreadFunc, tg Trigger) bool {
	tel := rt.tel
	if tel == nil {
		return rt.invoke(e.Thread, fn, tg)
	}
	sm := tel.Shard(int(uint32(e.Thread) & rt.shardMask))
	if e.T0 != 0 {
		sm.TriggerLatency.Observe(telemetry.Now() - e.T0)
	}
	var labels context.Context
	if ths := rt.threadsSnap(); int(e.Thread) >= 0 && int(e.Thread) < len(ths) {
		labels = ths[e.Thread].labels
	}
	if labels != nil {
		pprof.SetGoroutineLabels(labels)
	}
	var task *rtrace.Task
	var region *rtrace.Region
	if rtrace.IsEnabled() {
		ctx := labels
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, task = rtrace.NewTask(ctx, "dtt.instance")
		rtrace.Log(ctx, "dtt.thread", rt.ThreadName(e.Thread))
		region = rtrace.StartRegion(ctx, "dtt.run")
	}

	start := telemetry.Now()
	ok := rt.invoke(e.Thread, fn, tg)
	sm.RunDuration.Observe(telemetry.Now() - start)

	if region != nil {
		region.End()
		task.End()
	}
	if labels != nil {
		// Shed the instance labels so worker idle time (or the caller's
		// own samples, for inline runs) is not attributed to this thread.
		pprof.SetGoroutineLabels(context.Background())
	}
	return ok
}

// invoke runs a support-thread body, bracketing it with sanitizer
// entry/exit and converting a panic into a failed-run outcome instead of
// tearing down the process (the paper's hardware squashes a faulting
// support thread; it never takes down the main thread). ok reports whether
// the body returned normally.
func (rt *Runtime) invoke(t ThreadID, fn ThreadFunc, tg Trigger) (ok bool) {
	if rt.check != nil {
		g := goid()
		rt.check.EnterSupport(g, t)
		defer rt.check.ExitSupport(g, t)
	}
	// Registered after the sanitizer exit so it runs first: the panic is
	// recovered before ExitSupport unwinds the instance.
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	fn(tg)
	return true
}

// runInline executes an overflowed trigger synchronously in the triggering
// thread, honouring per-thread serialisation. When the triggering store
// came from inside an instance of the same thread — a cascading trigger
// that found the queue full — the body is re-entered recursively on this
// goroutine: that preserves one-instance-at-a-time (the nesting is serial)
// and avoids waiting for ourselves.
func (rt *Runtime) runInline(e queue.Entry) {
	// The inline model needs no identity: if the thread is busy while we
	// are issuing a store, we are necessarily inside its own body. Only the
	// concurrent model pays for goroutine identity, and only on this
	// overflow path.
	var g uint64
	if rt.concurrent {
		g = goid()
	}
	ths := rt.threadsSnap()
	te := ths[e.Thread]
	sh := rt.shardOf(e.Thread)
	sh.mu.Lock()
	for {
		if !te.covers(e.Addr) {
			// A Cancel raced in between the overflow and this run; the
			// work it would have done is cancelled work. Counting it as
			// dropped keeps Overflowed = InlineRuns + Dropped.
			sh.c.dropped++
			sh.mu.Unlock()
			return
		}
		if _, running := sh.tqst.InFlight(e.Thread); !te.running && running == 0 {
			break
		}
		if !rt.concurrent || te.owner == g {
			// We hold this thread's run token ourselves: recurse.
			tg, fn := rt.resolveShardLocked(ths, e)
			sh.mu.Unlock()
			ok := rt.runInstance(e, fn, tg)
			sh.mu.Lock()
			sh.c.inlineRuns++
			if !ok {
				sh.c.failedRuns++
				sh.tqst.NoteFailed(e.Thread)
			}
			sh.mu.Unlock()
			return
		}
		ch := make(chan struct{})
		te.tokenWaiters = append(te.tokenWaiters, ch)
		sh.mu.Unlock()
		<-ch
		sh.mu.Lock()
	}
	te.running = true
	te.owner = g
	sh.inlineRunning++
	sh.busy.Add(1)
	tg, fn := rt.resolveShardLocked(ths, e)
	sh.mu.Unlock()

	ok := rt.runInstance(e, fn, tg)

	sh.mu.Lock()
	te.running = false
	te.owner = 0
	sh.inlineRunning--
	sh.busy.Add(-1)
	sh.c.inlineRuns++
	if !ok {
		sh.c.failedRuns++
		sh.tqst.NoteFailed(e.Thread)
	}
	rt.finishShardLocked(sh, e.Thread, ths)
	sh.mu.Unlock()
}

// runShardEntry tries to dispatch one queue entry of sh on the concurrent
// model: dequeue the oldest entry whose thread's token is free, run it
// with no lock held, and complete it. It reports whether an entry ran.
func (rt *Runtime) runShardEntry(sh *dispatchShard, g uint64) bool {
	sh.mu.Lock()
	// Loaded under sh.mu: any entry visible in this shard's queue was
	// enqueued by a goroutine that saw its thread published first.
	ths := rt.threadsSnap()
	e, ok := sh.tq.DequeueFirst(func(e queue.Entry) bool { return !ths[e.Thread].running })
	if !ok {
		sh.mu.Unlock()
		return false
	}
	te := ths[e.Thread]
	sh.tqst.MarkRunning(e.Thread)
	te.running = true
	te.owner = g
	tg, fn := rt.resolveShardLocked(ths, e)
	sh.mu.Unlock()

	ok = rt.runInstance(e, fn, tg)

	sh.mu.Lock()
	te.running = false
	te.owner = 0
	if ok {
		sh.tqst.MarkDone(e.Thread)
		sh.c.executed++
	} else {
		sh.tqst.MarkFailed(e.Thread)
		sh.c.failedRuns++
	}
	sh.busy.Add(-1)
	rt.finishShardLocked(sh, e.Thread, ths)
	sh.mu.Unlock()
	return true
}

// worker is the BackendImmediate dispatch loop: one goroutine per spare
// hardware context. Worker w's home shard is w mod Shards; it drains its
// home first and then steals from the other shards in ring order, so with
// Workers >= Shards every shard has an affine worker while any worker can
// still pick up any shard's backlog. An idle worker sleeps on its own
// capacity-1 wake channel rather than a broadcast condition, so an enqueue
// wakes exactly one chosen worker.
func (rt *Runtime) worker(w int) {
	defer rt.wg.Done()
	// goid is stable for the life of this worker goroutine; computing it
	// once keeps runtime.Stack off the dispatch fast path.
	g := goid()
	n := len(rt.shards)
	for {
		ran := false
		for k := 0; k < n; k++ {
			sh := &rt.shards[(w+k)%n]
			for rt.runShardEntry(sh, g) {
				ran = true
			}
		}
		if ran {
			continue
		}
		if rt.closed.Load() {
			return
		}
		// Sleep until a new entry is enqueued somewhere, a completing
		// thread re-offers skipped entries, or Close deposits the final
		// token. A token that arrived during the scan above is buffered
		// and makes the receive immediate.
		<-rt.workerWake[w]
	}
}

// drain is the inline model's one dispatch loop: it runs queued instances
// on the calling goroutine until none is eligible. Wait and Barrier call it
// with preempt false; a triggering store under a seeded scheduler is a
// preemption point and calls it with preempt true, so the scheduler may
// stop it before any dispatch. Cascading triggers a body issues are queued
// and run by the same loop. An entry is eligible when its thread has no
// running instance: a nested drain (a preemption point inside a body)
// skips the threads its enclosing frames are running.
//
// The loop holds every shard lock except across a body, so completing one
// instance and picking the next is one critical section — at one shard,
// the inline default, one lock round trip per instance. With a Recorder
// each instance is a support task released by the trace position that
// enqueued it; drain returns the executed tasks for the sync point's join.
func (rt *Runtime) drain(preempt bool) []trace.TaskID {
	rec := rt.cfg.Recorder
	var done []trace.TaskID
	rt.lockAllShards()
	for {
		ths := rt.threadsSnap()
		sh, e, ok := rt.pickLocked(ths, preempt)
		if !ok {
			break
		}
		// Hold the run token across the body, so a nested drain cannot
		// start a second instance of this thread.
		te := ths[e.Thread]
		sh.tqst.MarkRunning(e.Thread)
		te.running = true
		tg, fn := rt.resolveShardLocked(ths, e)
		// The lock loops are spelled out rather than calling
		// unlockAllShards/lockAllShards: this is the per-instance path,
		// and at one shard each loop is a single inlined mutex operation.
		for s := range rt.shards {
			rt.shards[s].mu.Unlock()
		}

		if rec != nil {
			// Outside the shard lock: a Recorder's runtime is driven by
			// one goroutine, so no store can re-release the entry here.
			rec.BeginSupport(te.name, rt.takeRelease(e))
		}
		ok = rt.runInstance(e, fn, tg)
		if rec != nil {
			// A failed instance still closes its trace task: whatever it
			// charged before panicking was really executed.
			done = append(done, rec.EndSupport())
		}

		// No waiter to wake: token, quiet and barrier waiters sleep only
		// on the concurrent model (see finishShardLocked).
		for s := range rt.shards {
			rt.shards[s].mu.Lock()
		}
		te.running = false
		if ok {
			sh.tqst.MarkDone(e.Thread)
			sh.c.executed++
		} else {
			sh.tqst.MarkFailed(e.Thread)
			sh.c.failedRuns++
		}
		sh.busy.Add(-1)
	}
	rt.unlockAllShards()
	return done
}

// pickLocked dequeues drain's next entry. Without a scheduler the pick is
// FIFO: the oldest eligible entry of the lowest-indexed shard that has one,
// found by a scan that stops at the first hit. At one shard that is
// exactly queue order; with more, a cascade into a lower shard runs before
// the rest of a higher one. A scheduler instead enumerates every eligible
// entry, shard by shard and oldest first, and sched.Pick chooses; at a
// preemption point sched.RunNow first decides whether to dispatch at all.
// ok is false when nothing is eligible or the preemption point declines.
// Callers hold every shard lock.
func (rt *Runtime) pickLocked(ths []*threadEntry, preempt bool) (*dispatchShard, queue.Entry, bool) {
	eligible := func(e queue.Entry) bool { return !ths[e.Thread].running }
	if rt.sched == nil {
		for s := range rt.shards {
			if e, ok := rt.shards[s].tq.DequeueFirst(eligible); ok {
				return &rt.shards[s], e, true
			}
		}
		return nil, queue.Entry{}, false
	}
	rt.elig = rt.elig[:0]
	for s := range rt.shards {
		q := rt.shards[s].tq
		for i := 0; i < q.Len(); i++ {
			if eligible(q.EntryAt(i)) {
				rt.elig = append(rt.elig, eligRef{shard: s, idx: i})
			}
		}
	}
	if len(rt.elig) == 0 || preempt && !rt.sched.RunNow() {
		return nil, queue.Entry{}, false
	}
	ref := rt.elig[rt.sched.Pick(len(rt.elig))]
	sh := &rt.shards[ref.shard]
	return sh, sh.tq.DequeueAt(ref.idx), true
}

// goid returns the current goroutine's id, parsed from the stack header.
// It is only used on the queue-overflow slow path, where the cost is
// immaterial next to the thread body about to run. A parse failure panics:
// the id guards the recursive-inline deadlock check, and an unparseable id
// silently disabling that check (as a zero-valued fallback once did) turns
// a Go version bump into a runtime hang.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const header = "goroutine "
	if len(s) < len(header) || string(s[:len(header)]) != header {
		panic(fmt.Sprintf("core: goid: unrecognised stack header %q", s))
	}
	id, digits := uint64(0), 0
	for i := len(header); i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
		digits++
	}
	if digits == 0 || id == 0 {
		panic(fmt.Sprintf("core: goid: cannot parse goroutine id from header %q", s))
	}
	return id
}

// Wait blocks until thread t has no pending or running instances (twait).
// The inline model first runs the queue on the calling goroutine (see
// drain); the concurrent model sleeps until t is quiet (see waitQuiet).
func (rt *Runtime) Wait(t ThreadID) {
	rt.stats.waits.Add(1)
	if rt.tel != nil && rtrace.IsEnabled() {
		defer rtrace.StartRegion(context.Background(), "dtt.Wait").End()
	}
	// Wait is a blocking merge point: pending commutative deltas reach
	// memory — and fire their triggers — before the quiescence predicate
	// is evaluated, so the post-Wait state reflects every TUpdate this
	// goroutine issued.
	rt.mergeAllPlanes()
	var done []trace.TaskID
	if rt.concurrent {
		rt.waitQuiet(t)
	} else {
		done = rt.drain(false)
	}
	rt.noteJoin(func(g uint64) { rt.check.OnWait(g, t) })
	rt.joinTrace(done, isa.OpTWait)
}

// noteJoin invokes a sanitizer join edge (Wait/Barrier) for the calling
// goroutine, after the runtime has actually reached quiescence for it.
// No-op when the checker is off.
func (rt *Runtime) noteJoin(edge func(g uint64)) {
	if rt.check == nil {
		return
	}
	edge(goid())
}

// Barrier blocks until every shard's queue is empty and every thread is
// idle (tbarrier). The inline model runs the queue on the calling
// goroutine (see drain). On the concurrent model the waiter first confirms
// quiescence under all shard locks (each shard's check is O(1)); while not
// quiet it sleeps on a barrier channel, woken by the completion that
// drives the lock-free busy sum to zero. Spurious wakeups are possible —
// the completion side only reads the racy sum — and are absorbed by
// re-confirming.
func (rt *Runtime) Barrier() {
	rt.stats.barriers.Add(1)
	if rt.tel != nil && rtrace.IsEnabled() {
		defer rtrace.StartRegion(context.Background(), "dtt.Barrier").End()
	}
	// Like Wait, Barrier merges pending commutative deltas (blocking)
	// before confirming quiescence.
	rt.mergeAllPlanes()
	var done []trace.TaskID
	if !rt.concurrent {
		done = rt.drain(false)
	} else {
		for !rt.quietConfirm() {
			ch := make(chan struct{})
			rt.barMu.Lock()
			rt.barrierWaiters = append(rt.barrierWaiters, ch)
			rt.barWaiting.Store(int32(len(rt.barrierWaiters)))
			rt.barMu.Unlock()
			// Re-check after registering: a completion that read the busy
			// sum before our registration became visible will not wake us,
			// but then its decrement is visible to this sum (both are
			// sequentially consistent), so we wake ourselves.
			if rt.busySumRacy() == 0 {
				rt.wakeBarrierWaiters()
			}
			<-ch
		}
	}
	rt.noteJoin(rt.check.OnBarrier)
	rt.joinTrace(done, isa.OpTBarrier)
}

// joinTrace closes the synchronisation point in the recorded trace.
func (rt *Runtime) joinTrace(done []trace.TaskID, op isa.Opcode) {
	if rt.cfg.Recorder == nil {
		return
	}
	rt.chargeMgmt(op)
	rt.cfg.Recorder.Join(done)
}

// Status returns thread t's TQST state (tstatus).
func (rt *Runtime) Status(t ThreadID) queue.Status {
	sh := rt.shardOf(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tqst.Get(t)
}

// Executed returns how many instances of t have completed.
func (rt *Runtime) Executed(t ThreadID) int64 {
	sh := rt.shardOf(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tqst.Executed(t)
}

// QueueCounters returns the thread queue's lifetime counters aggregated
// across shards (see queue.Counters for the invariant they obey; summing
// preserves it). Peak is the maximum per-shard occupancy ever observed, not
// a simultaneous global occupancy — with one shard the two coincide.
func (rt *Runtime) QueueCounters() queue.Counters {
	var c queue.Counters
	for s := range rt.shards {
		sh := &rt.shards[s]
		sh.mu.Lock()
		sc := sh.tq.Counters()
		sh.mu.Unlock()
		c.Enqueued += sc.Enqueued
		c.Squashed += sc.Squashed
		c.Overflowed += sc.Overflowed
		c.Dequeued += sc.Dequeued
		c.SquashedOut += sc.SquashedOut
		if sc.Peak > c.Peak {
			c.Peak = sc.Peak
		}
	}
	return c
}

// ShardCounters returns each shard's queue counters, indexed by shard. Each
// element independently obeys the queue.Counters conservation invariant.
func (rt *Runtime) ShardCounters() []queue.Counters {
	out := make([]queue.Counters, len(rt.shards))
	for s := range rt.shards {
		sh := &rt.shards[s]
		sh.mu.Lock()
		out[s] = sh.tq.Counters()
		sh.mu.Unlock()
	}
	return out
}

// ShardLens returns each shard's current pending-entry count, indexed by
// shard.
func (rt *Runtime) ShardLens() []int {
	out := make([]int, len(rt.shards))
	for s := range rt.shards {
		sh := &rt.shards[s]
		sh.mu.Lock()
		out[s] = sh.tq.Len()
		sh.mu.Unlock()
	}
	return out
}

// Close stops the worker pool. Pending queue entries are not executed; call
// Barrier first for a clean drain. Close is idempotent. The wake channels
// are never closed — a concurrent enqueue may be signalling under a shard
// lock — instead every worker gets one final token and exits after finding
// all shards empty with the closed flag set.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed.Load() {
		rt.mu.Unlock()
		return
	}
	rt.closed.Store(true)
	rt.mu.Unlock()
	if rt.metricsSrv != nil {
		// Stop scrapes before the dispatch plane winds down; in-flight
		// snapshot reads only take shard locks, which remain valid.
		rt.metricsSrv.Close()
	}
	for _, ch := range rt.workerWake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	rt.wg.Wait()
}
