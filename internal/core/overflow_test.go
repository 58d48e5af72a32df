package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// checkOverflowIdentities asserts the two dispatch-counter identities a
// quiesced runtime obeys: every fired trigger was enqueued, squashed or
// overflowed, and every overflowed trigger ran inline or was dropped.
func checkOverflowIdentities(t *testing.T, label string, s Stats) {
	t.Helper()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("%s: Fired %d != Enqueued %d + Squashed %d + Overflowed %d",
			label, s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("%s: Overflowed %d != InlineRuns %d + Dropped %d",
			label, s.Overflowed, s.InlineRuns, s.Dropped)
	}
}

// TestOverflowMutualCascadeNoDeadlock is a regression test for two threads
// that trigger each other through a full queue on the concurrent model.
// A's body raises every word of B's region to one above the same word of
// its own and B's body does the same the other way, up to a cap, so the
// cascade climbs and then settles. With a one-entry queue most cascading
// stores overflow: a worker running A overflows into B while the main
// goroutine, running B inline, overflows into A. When each token holder
// waited for the other's token, the run hung on the first trial. A caller
// that holds a token now hands the entry to the other thread's holder
// instead of waiting.
func TestOverflowMutualCascadeNoDeadlock(t *testing.T) {
	const trials, words, limit = 20, 2, 8
	for trial := 0; trial < trials; trial++ {
		// No deferred Close: after a deadlock the workers never exit and
		// Close would hang instead of letting the test fail.
		rt, err := New(Config{Backend: BackendImmediate, QueueCapacity: 1, Shards: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ra := rt.NewRegion("a", words)
		rb := rt.NewRegion("b", words)
		// Once the main goroutine's two stores are done, only the thread
		// attached to from writes to, one instance at a time, and only
		// upwards: the cascade ends.
		raise := func(from, to *Region) ThreadFunc {
			return func(Trigger) {
				// A short spin keeps instances of both threads in flight
				// at the same time, which is what the hang needs.
				for end := time.Now().Add(20 * time.Microsecond); time.Now().Before(end); {
				}
				for i := 0; i < words; i++ {
					if v := from.Load(i) + 1; v <= limit && v > to.Load(i) {
						to.TStore(i, v)
					}
				}
			}
		}
		a := rt.Register("a", raise(ra, rb))
		b := rt.Register("b", raise(rb, ra))
		if err := rt.Attach(a, ra, 0, words); err != nil {
			t.Fatal(err)
		}
		if err := rt.Attach(b, rb, 0, words); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			ra.TStore(0, 1)
			rb.TStore(0, 1)
			rt.Barrier()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: mutual overflow cascade deadlocked; stats %+v", trial, rt.Stats())
		}
		s := rt.Stats()
		checkOverflowIdentities(t, "mutual cascade", s)
		if s.Overflowed == 0 || s.Dropped != 0 {
			t.Fatalf("trial %d: want overflows and no drops, got %+v", trial, s)
		}
		rt.Close()
	}
}

// interleavedOverflow runs rounds of TStoreBatch + Wait against two threads
// attached to interleaved 8-word ranges of a 64-word input, with an
// 8-entry queue per shard, so every round overflows both threads. Each body
// writes 3*in+tag to the same word of an output region. onRound, if set,
// runs before each round's batch, and body, if set, at the end of every
// instance. It returns the runtime, after Barrier, and both regions.
func interleavedOverflow(t *testing.T, backend Backend, rounds int, body func(rt *Runtime, y ThreadID, tg Trigger), onRound func(round int)) (*Runtime, *Region, *Region) {
	t.Helper()
	const words, span = 64, 8
	cfg := Config{Backend: backend, QueueCapacity: 8}
	if backend == BackendImmediate {
		cfg.Workers = 2
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	in := rt.NewRegion("in", words)
	out := rt.NewRegion("out", words)
	var y ThreadID
	fn := func(tg Trigger) {
		out.Store(tg.Index, 3*in.Load(tg.Index)+uint64(tg.Thread)+1)
		if body != nil {
			body(rt, y, tg)
		}
	}
	x := rt.Register("x", fn)
	y = rt.Register("y", fn)
	for lo := 0; lo < words; lo += span {
		id := x
		if lo/span%2 == 1 {
			id = y
		}
		if err := rt.Attach(id, in, lo, lo+span); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]uint64, words)
	for round := 1; round <= rounds; round++ {
		if onRound != nil {
			onRound(round)
		}
		for i := range vals {
			vals[i] = uint64(round*100 + i%7)
		}
		in.TStoreBatch(0, vals)
		rt.Wait(x)
		rt.Wait(y)
	}
	rt.Barrier()
	return rt, in, out
}

// TestBatchOverflowConcurrentMatchesDeferred drives batch overflow on the
// concurrent model, where the storing goroutine runs each thread's
// overflowed words under one run-token acquisition while workers run the
// queued ones: memory must end as on the inline model, with both counter
// identities and nothing dropped.
func TestBatchOverflowConcurrentMatchesDeferred(t *testing.T) {
	const rounds = 50
	imm, _, immOut := interleavedOverflow(t, BackendImmediate, rounds, nil, nil)
	_, _, defOut := interleavedOverflow(t, BackendDeferred, rounds, nil, nil)
	for i := 0; i < immOut.Len(); i++ {
		if got, want := immOut.Peek(i), defOut.Peek(i); got != want {
			t.Fatalf("out[%d] = %d on the concurrent model, %d on the inline model", i, got, want)
		}
	}
	s := imm.Stats()
	checkOverflowIdentities(t, "batch overflow", s)
	if s.Overflowed == 0 || s.Dropped != 0 {
		t.Fatalf("want overflows and no drops, got %+v", s)
	}
}

// TestBatchOverflowCancelDropsDetached cancels thread y from inside its own
// body partway through the run. The rest of y's overflowed words in that
// round were admitted while y was attached and are found detached when
// their turn to run comes: they must count as Dropped, the identities must
// hold after Barrier, and x must finish its work untouched.
func TestBatchOverflowCancelDropsDetached(t *testing.T) {
	const rounds, cancelAt = 50, 25
	var round atomic.Int64
	var cancelled atomic.Bool
	rt, in, out := interleavedOverflow(t, BackendImmediate, rounds,
		func(rt *Runtime, y ThreadID, tg Trigger) {
			if tg.Thread == y && round.Load() == cancelAt && cancelled.CompareAndSwap(false, true) {
				rt.Cancel(y)
			}
		},
		func(r int) { round.Store(int64(r)) })
	if !cancelled.Load() {
		t.Fatal("y never ran in the cancel round")
	}
	s := rt.Stats()
	checkOverflowIdentities(t, "batch overflow with cancel", s)
	if s.Dropped == 0 {
		t.Fatalf("y's detached overflows were not dropped: %+v", s)
	}
	// x (thread 0) covers the even 8-word spans and ran to the last round.
	for i := 0; i < in.Len(); i++ {
		if i/8%2 == 0 {
			if got, want := out.Peek(i), 3*in.Peek(i)+1; got != want {
				t.Fatalf("x's out[%d] = %d, want %d", i, got, want)
			}
		}
	}
}

// TestOverflowGoidOncePerCall holds the overflow path to its goroutine-id
// budget: goid formats a stack trace, so the concurrent model looks it up
// at most once per store call that overflows, however many of the call's
// triggers overflow, and the inline model never does.
func TestOverflowGoidOncePerCall(t *testing.T) {
	const calls, words = 10, 64
	for _, backend := range []Backend{BackendDeferred, BackendImmediate} {
		t.Run(backend.String(), func(t *testing.T) {
			cfg := Config{Backend: backend, QueueCapacity: 4, Shards: 1}
			if backend == BackendImmediate {
				cfg.Workers = 2
			}
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			r := rt.NewRegion("r", words)
			id := rt.Register("noop", func(Trigger) {})
			if err := rt.Attach(id, r, 0, words); err != nil {
				t.Fatal(err)
			}
			// Workers look up their own ids once, as they start; let them
			// finish that before counting.
			for started := false; !started; {
				rt.holdMu.Lock()
				started = len(rt.holders) == cfg.Workers
				rt.holdMu.Unlock()
				runtime.Gosched()
			}
			vals := make([]uint64, words)
			before := goidCalls.Load()
			for c := 1; c <= calls; c++ {
				for i := range vals {
					vals[i] = uint64(c)
				}
				r.TStoreBatch(0, vals)
				rt.Barrier()
			}
			batchCalls := goidCalls.Load() - before
			s := rt.Stats()
			if s.Overflowed < calls*(words-4) {
				t.Fatalf("batches overflowed %d triggers, want at least %d", s.Overflowed, calls*(words-4))
			}
			want := int64(0)
			if backend == BackendImmediate {
				want = calls
			}
			if batchCalls != want {
				t.Fatalf("%d overflowing batches called goid %d times, want %d", calls, batchCalls, want)
			}

			before = goidCalls.Load()
			for i := 0; i < words; i++ {
				r.TStore(i, 1000)
			}
			scalarCalls := goidCalls.Load() - before
			rt.Barrier()
			overflowed := rt.Stats().Overflowed - s.Overflowed
			if backend == BackendDeferred && (overflowed == 0 || scalarCalls != 0) {
				t.Fatalf("inline model: %d overflowing stores called goid %d times, want 0", overflowed, scalarCalls)
			}
			if scalarCalls > overflowed {
				t.Fatalf("%d overflowing scalar stores called goid %d times, want at most one each", overflowed, scalarCalls)
			}
			checkOverflowIdentities(t, backend.String(), rt.Stats())
		})
	}
}
