package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dtt/internal/queue"
	"dtt/internal/trace"
)

func newDeferred(t *testing.T, mut func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{Backend: BackendDeferred}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestSilentTStoreSkipsThread(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	runs := 0
	id := rt.Register("count", func(Trigger) { runs++ })
	if err := rt.Attach(id, data, 0, 4); err != nil {
		t.Fatal(err)
	}

	data.TStore(0, 7) // 0 -> 7: fires
	data.TStore(0, 7) // silent: must not fire
	rt.Wait(id)

	if runs != 1 {
		t.Fatalf("thread ran %d times, want 1 (silent store must skip)", runs)
	}
	s := rt.Stats()
	if s.TStores != 2 || s.Silent != 1 || s.Fired != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTriggerCarriesLocation(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	var got Trigger
	id := rt.Register("loc", func(tg Trigger) { got = tg })
	rt.Attach(id, data, 2, 6)

	data.TStore(3, 99)
	rt.Wait(id)

	if got.Thread != id || got.Region != data || got.Index != 3 {
		t.Fatalf("trigger = %+v, want thread %d region data index 3", got, id)
	}
	if got.Addr != data.Buffer().Addr(3) {
		t.Fatalf("trigger addr %#x, want %#x", got.Addr, data.Buffer().Addr(3))
	}
}

func TestTStoreOutsideAttachedRangeDoesNotFire(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 4)

	data.TStore(5, 1) // changed, but outside [0,4)
	rt.Wait(id)
	if runs != 0 {
		t.Fatalf("thread fired for store outside its trigger range")
	}
}

func TestDedupPerAddressSquashes(t *testing.T) {
	rt := newDeferred(t, nil) // default dedup: per-address
	data := rt.NewRegion("data", 4)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 4)

	data.TStore(0, 1) // enqueue
	data.TStore(0, 2) // squash (same address pending)
	data.TStore(1, 1) // enqueue (different address)
	rt.Wait(id)

	if runs != 2 {
		t.Fatalf("thread ran %d times, want 2", runs)
	}
	s := rt.Stats()
	if s.Enqueued != 2 || s.Squashed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSquashedInstanceSeesLatestValue(t *testing.T) {
	// The paper's guarantee: a support thread reads memory at execution
	// time, so squashing intermediate triggers is safe.
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 1)
	var seen []uint64
	id := rt.Register("r", func(tg Trigger) { seen = append(seen, tg.Region.Load(tg.Index)) })
	rt.Attach(id, data, 0, 1)

	data.TStore(0, 1)
	data.TStore(0, 2)
	data.TStore(0, 3)
	rt.Wait(id)

	if len(seen) != 1 || seen[0] != 3 {
		t.Fatalf("instance saw %v, want one execution observing 3", seen)
	}
}

func TestMultipleThreadsOnOneAddress(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 2)
	var a, b int
	ida := rt.Register("a", func(Trigger) { a++ })
	idb := rt.Register("b", func(Trigger) { b++ })
	rt.Attach(ida, data, 0, 2)
	rt.Attach(idb, data, 0, 1)

	data.TStore(0, 5)
	rt.Barrier()
	if a != 1 || b != 1 {
		t.Fatalf("a=%d b=%d, want both to fire", a, b)
	}
	data.TStore(1, 5)
	rt.Barrier()
	if a != 2 || b != 1 {
		t.Fatalf("a=%d b=%d: word 1 is only in a's range", a, b)
	}
}

func TestCascadingTriggers(t *testing.T) {
	// A support thread's own tstore fires a second thread.
	rt := newDeferred(t, nil)
	src := rt.NewRegion("src", 1)
	mid := rt.NewRegion("mid", 1)
	var final uint64
	first := rt.Register("first", func(tg Trigger) {
		mid.TStore(0, tg.Region.Load(tg.Index)*10)
	})
	second := rt.Register("second", func(tg Trigger) {
		final = tg.Region.Load(tg.Index) + 1
	})
	rt.Attach(first, src, 0, 1)
	rt.Attach(second, mid, 0, 1)

	src.TStore(0, 4)
	rt.Barrier()
	if final != 41 {
		t.Fatalf("cascade result = %d, want 41", final)
	}
}

func TestOverflowInlineExecutes(t *testing.T) {
	rt := newDeferred(t, func(c *Config) { c.QueueCapacity = 1 })
	data := rt.NewRegion("data", 8)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 8)

	for i := 0; i < 4; i++ {
		data.TStore(i, 1)
	}
	rt.Wait(id)
	if runs != 4 {
		t.Fatalf("runs = %d, want 4 (overflow must fall back to inline)", runs)
	}
	s := rt.Stats()
	if s.Overflowed != 3 || s.InlineRuns != 3 || s.Executed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOverflowDropLosesTriggers(t *testing.T) {
	rt := newDeferred(t, func(c *Config) {
		c.QueueCapacity = 1
		c.Overflow = queue.OverflowDrop
	})
	data := rt.NewRegion("data", 8)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 8)
	for i := 0; i < 4; i++ {
		data.TStore(i, 1)
	}
	rt.Wait(id)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1 under OverflowDrop", runs)
	}
	if s := rt.Stats(); s.Dropped != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCancelSquashesPending(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 2)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 2)

	data.TStore(0, 1)
	rt.Cancel(id)
	rt.Barrier()
	if runs != 0 {
		t.Fatalf("cancelled thread still ran")
	}
	// After cancel, tstores no longer fire.
	data.TStore(1, 1)
	rt.Barrier()
	if runs != 0 {
		t.Fatalf("detached thread fired")
	}
	if rt.Status(id) != queue.StatusIdle {
		t.Fatalf("cancelled thread status %v", rt.Status(id))
	}
}

func TestAttachValidation(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	id := rt.Register("r", func(Trigger) {})
	if err := rt.Attach(id, data, 2, 2); err == nil {
		t.Errorf("empty range accepted")
	}
	if err := rt.Attach(id, data, -1, 2); err == nil {
		t.Errorf("negative lo accepted")
	}
	if err := rt.Attach(id, data, 0, 5); err == nil {
		t.Errorf("hi past region end accepted")
	}
	if err := rt.Attach(ThreadID(99), data, 0, 1); err == nil {
		t.Errorf("unregistered thread accepted")
	}
	other := newDeferred(t, nil)
	foreign := other.NewRegion("foreign", 4)
	if err := rt.Attach(id, foreign, 0, 1); err == nil {
		t.Errorf("foreign region accepted")
	}
}

func TestRegisterNilPanics(t *testing.T) {
	rt := newDeferred(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Register(nil) did not panic")
		}
	}()
	rt.Register("bad", nil)
}

func TestThreadName(t *testing.T) {
	rt := newDeferred(t, nil)
	id := rt.Register("smvp", func(Trigger) {})
	if rt.ThreadName(id) != "smvp" {
		t.Fatalf("ThreadName = %q", rt.ThreadName(id))
	}
	if rt.ThreadName(ThreadID(42)) != "thread-42" {
		t.Fatalf("unknown thread name = %q", rt.ThreadName(ThreadID(42)))
	}
}

func TestThreadStatsFor(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("d", 8)
	id := rt.Register("named", func(Trigger) {})
	rt.Attach(id, data, 0, 4)
	rt.Attach(id, data, 4, 8)
	data.TStore(0, 1)
	data.TStore(5, 1)
	rt.Barrier()
	ts := rt.ThreadStatsFor(id)
	if ts.Name != "named" || ts.Attachments != 2 || ts.Executed != 2 {
		t.Fatalf("ThreadStatsFor = %+v", ts)
	}
	if ts := rt.ThreadStatsFor(ThreadID(99)); ts.Name != "" || ts.Attachments != 0 {
		t.Fatalf("unknown thread stats = %+v", ts)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Backend: BackendRecorded}); err == nil {
		t.Errorf("recorded backend without recorder accepted")
	}
	if _, err := New(Config{Backend: BackendDeferred, Recorder: trace.NewRecorder(nil)}); err == nil {
		t.Errorf("recorder on non-recorded backend accepted")
	}
}

func TestBackendString(t *testing.T) {
	if BackendDeferred.String() != "deferred" || BackendImmediate.String() != "immediate" || BackendRecorded.String() != "recorded" {
		t.Fatalf("backend names wrong")
	}
}

func TestImmediateBackendParallelExecution(t *testing.T) {
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	data := rt.NewRegion("data", 64)
	var runs atomic.Int64
	id := rt.Register("r", func(tg Trigger) {
		runs.Add(1)
	})
	rt.Attach(id, data, 0, 64)

	for i := 0; i < 64; i++ {
		data.TStore(i, uint64(i+1))
	}
	rt.Wait(id)
	if got := runs.Load(); got != 64 {
		t.Fatalf("runs = %d, want 64", got)
	}
	if rt.Status(id) != queue.StatusIdle {
		t.Fatalf("status after Wait: %v", rt.Status(id))
	}
}

func TestImmediateSilentStoresStillSkip(t *testing.T) {
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	data := rt.NewRegion("data", 4)
	var runs atomic.Int64
	id := rt.Register("r", func(Trigger) { runs.Add(1) })
	rt.Attach(id, data, 0, 4)

	data.TStore(0, 5)
	rt.Wait(id)
	for i := 0; i < 100; i++ {
		data.TStore(0, 5) // all silent
	}
	rt.Wait(id)
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
}

func TestImmediatePerThreadSerialisation(t *testing.T) {
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4, Dedup: queue.DedupNone, QueueCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	data := rt.NewRegion("data", 1)
	var concurrent, maxConcurrent atomic.Int64
	id := rt.Register("serial", func(Trigger) {
		c := concurrent.Add(1)
		for {
			m := maxConcurrent.Load()
			if c <= m || maxConcurrent.CompareAndSwap(m, c) {
				break
			}
		}
		concurrent.Add(-1)
	})
	rt.Attach(id, data, 0, 1)
	for i := 1; i <= 50; i++ {
		data.TStore(0, uint64(i))
	}
	rt.Barrier()
	if maxConcurrent.Load() > 1 {
		t.Fatalf("instances of one thread ran concurrently: max %d", maxConcurrent.Load())
	}
}

func TestImmediateDistinctThreadsRunConcurrently(t *testing.T) {
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	a := rt.NewRegion("a", 1)
	b := rt.NewRegion("b", 1)
	// Rendezvous: each thread waits for the other's start signal; this
	// only completes if they run concurrently.
	sa := make(chan struct{})
	sb := make(chan struct{})
	ida := rt.Register("a", func(Trigger) { close(sa); <-sb })
	idb := rt.Register("b", func(Trigger) { close(sb); <-sa })
	rt.Attach(ida, a, 0, 1)
	rt.Attach(idb, b, 0, 1)
	a.TStore(0, 1)
	b.TStore(0, 1)
	rt.Barrier()
}

func TestImmediateRejectsProbedSystem(t *testing.T) {
	rec := trace.NewRecorder(nil)
	_ = rec
	cfg := Config{Backend: BackendImmediate}
	cfg.applyDefaults()
	cfg.System.AttachProbe(trace.NewRecorder(nil))
	if _, err := New(Config{Backend: BackendImmediate, System: cfg.System}); err == nil {
		t.Fatalf("immediate backend accepted a probed system")
	}
}

func TestCloseIdempotent(t *testing.T) {
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close()
}

func TestStatsConservation(t *testing.T) {
	rt := newDeferred(t, func(c *Config) { c.QueueCapacity = 2 })
	data := rt.NewRegion("data", 16)
	id := rt.Register("r", func(Trigger) {})
	rt.Attach(id, data, 0, 16)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 16; i++ {
			data.TStore(i, uint64(round*(i%5)))
		}
		rt.Wait(id)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("fired %d != enqueued %d + squashed %d + overflowed %d", s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("overflowed %d != inline %d + dropped %d", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.TStores-s.Silent == 0 {
		t.Fatalf("no value-changing tstores in a test designed to have them")
	}
}

func TestSilentFractionHelper(t *testing.T) {
	s := Stats{TStores: 10, Silent: 7}
	if s.SilentFraction() != 0.7 {
		t.Fatalf("SilentFraction = %v", s.SilentFraction())
	}
	if (Stats{}).SilentFraction() != 0 {
		t.Fatalf("empty SilentFraction not 0")
	}
	s = Stats{Fired: 4, Squashed: 1}
	if s.SquashFraction() != 0.25 {
		t.Fatalf("SquashFraction = %v", s.SquashFraction())
	}
}

// drainOrderRun drives a fixed program of cascading triggers through a
// runtime built from cfg and returns the order in which support-thread
// instances ran (thread name + trigger index), plus the final contents of
// the three regions. Thread a fires b, b fires c on even indices, and d
// shares part of a's range; queue capacity 4 makes round 1 overflow, so
// OverflowInline runs (including a cascade nested inside one) are pinned
// too. Round 2 re-stores a word twice to exercise squashing.
func drainOrderRun(t *testing.T, cfg Config) (log []string, final []uint64, rt *Runtime) {
	t.Helper()
	cfg.QueueCapacity = 4
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	src := rt.NewRegion("src", 4)
	mid := rt.NewRegion("mid", 4)
	out := rt.NewRegion("out", 2)
	note := func(tg Trigger) { log = append(log, fmt.Sprintf("%s%d", rt.ThreadName(tg.Thread), tg.Index)) }
	a := rt.Register("a", func(tg Trigger) {
		note(tg)
		mid.TStore(tg.Index, src.Load(tg.Index)+1)
	})
	b := rt.Register("b", func(tg Trigger) {
		note(tg)
		if tg.Index%2 == 0 {
			out.TStore(tg.Index/2, mid.Load(tg.Index)*10)
		}
	})
	c := rt.Register("c", note)
	d := rt.Register("d", note)
	for _, at := range []struct {
		id     ThreadID
		r      *Region
		lo, hi int
	}{{a, src, 0, 4}, {b, mid, 0, 4}, {c, out, 0, 2}, {d, src, 1, 3}} {
		if err := rt.Attach(at.id, at.r, at.lo, at.hi); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		src.TStore(i, 1)
	}
	rt.Wait(a)
	rt.Barrier()
	src.TStore(0, 2)
	src.TStore(0, 3) // squashed into the pending a0
	src.TStore(2, 2)
	rt.Barrier()
	for _, r := range []*Region{src, mid, out} {
		for i := 0; i < r.Len(); i++ {
			final = append(final, r.Load(i))
		}
	}
	return log, final, rt
}

// TestInlineDrainOrderPinned pins the exact order in which the inline
// execution model runs queued, cascaded and overflowed instances at one
// shard: FIFO over the queue, with OverflowInline runs executing at the
// triggering store (nested inside the body that issued it). The deferred
// and recorded configurations must agree, since recording only observes.
// At four shards the order may interleave shards differently, so only the
// final memory and the counter identities are asserted.
func TestInlineDrainOrderPinned(t *testing.T) {
	want := []string{
		"d2", "a3", "b3", // overflow runs at the triggering stores
		"a0", "a1", "d1", "a2", "b0", "b1", "b2", "c0", "c1", // Wait(a) drains FIFO
		"a0", "a2", "d2", "b0", "b2", "c0", "c1", // round 2: one squash
	}
	wantFinal := []uint64{3, 1, 2, 1, 4, 2, 3, 2, 40, 30}
	rec := trace.NewRecorder(nil)
	for _, cfg := range []Config{
		{Backend: BackendDeferred, Shards: 1},
		{Backend: BackendRecorded, Recorder: rec, Shards: 1},
	} {
		log, final, rt := drainOrderRun(t, cfg)
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Errorf("%v: drain order\n got %v\nwant %v", cfg.Backend, log, want)
		}
		if fmt.Sprint(final) != fmt.Sprint(wantFinal) {
			t.Errorf("%v: final memory %v, want %v", cfg.Backend, final, wantFinal)
		}
		if s := rt.Stats(); s.Overflowed != 3 || s.InlineRuns != 3 || s.Squashed != 1 {
			t.Errorf("%v: stats = %+v, want 3 overflowed, 3 inline, 1 squashed", cfg.Backend, s)
		}
	}
	if tr, err := rec.Finish(); err != nil {
		t.Fatal(err)
	} else if got := tr.SupportTasks(); got != len(want)-3 {
		t.Errorf("recorded support tasks = %d, want %d (queued runs only)", got, len(want)-3)
	}

	log, final, rt := drainOrderRun(t, Config{Backend: BackendDeferred, Shards: 4})
	if fmt.Sprint(final) != fmt.Sprint(wantFinal) {
		t.Errorf("4 shards: final memory %v, want %v", final, wantFinal)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed || s.Overflowed != s.InlineRuns+s.Dropped {
		t.Errorf("4 shards: counter identity broken: %+v", s)
	}
	if int64(len(log)) != s.Executed+s.InlineRuns {
		t.Errorf("4 shards: %d runs logged, Executed %d + InlineRuns %d", len(log), s.Executed, s.InlineRuns)
	}
	assertQueueConservation(t, rt, "4 shards")
}
