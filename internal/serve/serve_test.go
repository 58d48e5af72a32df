package serve

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// expectGoroutines is the repo's leak gate, extended to the serving
// plane: polls until the goroutine count returns to base or dumps all
// stacks.
func expectGoroutines(t *testing.T, base int, phase string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines alive, test started with %d:\n%s",
				phase, runtime.NumGoroutine(), base, buf[:m])
		}
		time.Sleep(time.Millisecond)
	}
}

func newServerPair(t *testing.T, cfg core.Config, opts Options) (*core.Runtime, *Server, string) {
	t.Helper()
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	srv := NewServer(rt, opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		rt.Close()
		t.Fatalf("Start: %v", err)
	}
	return rt, srv, addr
}

// TestServeSessionsEndToEnd is the acceptance-criteria test: many
// concurrent loopback sessions drive connect → ATTACH → TSTORE_BATCH →
// WAIT → CHANGE_NOTIFY → disconnect churn while a sampler asserts the
// Stats counter identity on every concurrent snapshot, and the whole
// plane tears down with zero leaked goroutines.
func TestServeSessionsEndToEnd(t *testing.T) {
	const (
		sessions = 10
		threads  = 3
		rounds   = 3
		batches  = 4
		words    = 16
	)
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 4, Shards: 8}, Options{})

	// Concurrent snapshot sampler: the identity must hold on every read,
	// not just at quiescence.
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	var snapshots atomic.Int64
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := rt.Stats()
			snapshots.Add(1)
			if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
				t.Errorf("concurrent snapshot broke identity: Fired %d != Enqueued %d + Squashed %d + Overflowed %d",
					s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var clientNotifies atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				cs, err := Dial(addr)
				if err != nil {
					t.Errorf("session %d round %d: Dial: %v", i, round, err)
					return
				}
				handles := make([]uint32, threads)
				for k := range handles {
					h, err := cs.Attach(fmt.Sprintf("r%d", k), words, 0, words)
					if err != nil {
						t.Errorf("session %d: Attach: %v", i, err)
						cs.Close()
						return
					}
					if err := cs.Subscribe(h); err != nil {
						t.Errorf("session %d: Subscribe: %v", i, err)
						cs.Close()
						return
					}
					handles[k] = h
				}
				vs := make([]mem.Word, words)
				for b := 0; b < batches; b++ {
					for k, h := range handles {
						// Strictly increasing values: every word changes.
						for w := range vs {
							vs[w] = uint64(round*1000000 + b*1000 + k*50 + w + 1)
						}
						changed, err := cs.Batch(h, 0, vs)
						if err != nil {
							t.Errorf("session %d: Batch: %v", i, err)
							cs.Close()
							return
						}
						if changed != words {
							t.Errorf("session %d: Batch changed %d of %d distinct new words", i, changed, words)
						}
						if err := cs.Wait(h); err != nil {
							t.Errorf("session %d: Wait: %v", i, err)
							cs.Close()
							return
						}
						got := cs.Notifies()
						if len(got) < 1 || len(got) > changed {
							t.Errorf("session %d: %d notifies after a batch changing %d words, want [1, %d]",
								i, len(got), changed, changed)
						}
						for _, n := range got {
							if n.Handle != h {
								t.Errorf("session %d: notify for handle %d while driving handle %d", i, n.Handle, h)
							}
						}
						clientNotifies.Add(int64(len(got)))
					}
				}
				if err := cs.Barrier(); err != nil {
					t.Errorf("session %d: Barrier: %v", i, err)
				}
				clientNotifies.Add(int64(len(cs.Notifies())))
				if err := cs.Close(); err != nil {
					t.Errorf("session %d: Close: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()
	if snapshots.Load() == 0 {
		t.Fatal("sampler took no snapshots")
	}

	// All sessions retired: the serving counters must balance the
	// client's view exactly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after all clients closed", srv.Counters().Sessions)
		}
		time.Sleep(time.Millisecond)
	}
	c := srv.Counters()
	if want := int64(sessions * rounds); c.SessionsTotal != want {
		t.Errorf("SessionsTotal = %d, want %d", c.SessionsTotal, want)
	}
	if want := int64(sessions * rounds * threads * batches); c.Batches != want {
		t.Errorf("Batches = %d, want %d", c.Batches, want)
	}
	if want := int64(sessions * rounds * threads * batches * words); c.Stores != want || c.Changed != want {
		t.Errorf("Stores/Changed = %d/%d, want %d", c.Stores, c.Changed, want)
	}
	if c.NotifyDropped != 0 {
		t.Errorf("NotifyDropped = %d, want 0", c.NotifyDropped)
	}
	if got := clientNotifies.Load(); got != c.Notifies {
		t.Errorf("clients received %d notifies, server queued %d", got, c.Notifies)
	}
	if c.Errors != 0 {
		t.Errorf("Errors = %d, want 0", c.Errors)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("final identity: %+v", s)
	}
	rt.Close()
	expectGoroutines(t, base, "after server and runtime Close")
}

// TestServeCrossTenantIsolation proves session A's triggering stores can
// never fire session B's threads, even with identical region names and
// indices.
func TestServeCrossTenantIsolation(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	a, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer b.Close()

	ha, err := a.Attach("shared", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := a.Subscribe(ha); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	hb, err := b.Attach("shared", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := b.Subscribe(hb); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	vs := []mem.Word{11, 22, 33, 44}
	changed, err := b.Batch(hb, 0, vs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if changed != len(vs) {
		t.Fatalf("Batch changed %d, want %d", changed, len(vs))
	}
	if err := b.Wait(hb); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := b.Notifies(); len(got) == 0 {
		t.Fatal("tenant B received no notifies for its own batch")
	}
	// A's view: barrier its own threads, then check nothing arrived.
	if err := a.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if got := a.Notifies(); len(got) != 0 {
		t.Fatalf("tenant A received %d notifies from tenant B's stores: %v", len(got), got)
	}
}

// rawDial opens a connection and completes the handshake by hand, for
// tests that need to send malformed or partial frames.
func rawDial(t *testing.T, addr string) (net.Conn, *frameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	hello := make([]byte, 0, 16)
	hello, start := appendFrameHeader(hello, OpHello)
	hello = appendU32(hello, Magic)
	hello = appendU16(hello, Version)
	patchFrameLength(hello, start)
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write HELLO: %v", err)
	}
	fr := newFrameReader(conn)
	op, _, err := fr.ReadFrame()
	if err != nil || op != OpHello {
		t.Fatalf("HELLO reply: op %d, err %v", op, err)
	}
	return conn, fr
}

// TestServeMidBatchDisconnect cuts a connection in the middle of a
// TSTORE_BATCH payload and checks the session retires cleanly with the
// runtime's counters still balanced.
func TestServeMidBatchDisconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})

	conn, fr := rawDial(t, addr)
	attach := make([]byte, 0, 32)
	attach, start := appendFrameHeader(attach, OpAttach)
	attach = appendU32(attach, 8) // words
	attach = appendU32(attach, 0) // lo
	attach = appendU32(attach, 8) // hi
	attach = appendU16(attach, 1)
	attach = append(attach, 'r')
	patchFrameLength(attach, start)
	if _, err := conn.Write(attach); err != nil {
		t.Fatalf("write ATTACH: %v", err)
	}
	if op, _, err := fr.ReadFrame(); err != nil || op != OpAttach {
		t.Fatalf("ATTACH reply: op %d, err %v", op, err)
	}

	// Header claims 100 words; deliver 5 and vanish.
	partial := make([]byte, 0, 64)
	partial, start = appendFrameHeader(partial, OpTStoreBatch)
	partial = appendU32(partial, 0)   // handle
	partial = appendU32(partial, 0)   // lo
	partial = appendU32(partial, 100) // n
	for i := 0; i < 5; i++ {
		partial = appendU64(partial, uint64(i+1))
	}
	binary.BigEndian.PutUint32(partial[start:], uint32(1+12+100*8))
	if _, err := conn.Write(partial); err != nil {
		t.Fatalf("write partial batch: %v", err)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not retire after mid-batch disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	c := srv.Counters()
	if c.Batches != 0 {
		t.Errorf("truncated batch counted: Batches = %d, want 0", c.Batches)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("identity after mid-batch disconnect: %+v", s)
	}

	// A second casualty: disconnect mid-frame-header.
	conn2, _ := rawDial(t, addr)
	if _, err := conn2.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatalf("write header fragment: %v", err)
	}
	conn2.Close()
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not retire after mid-header disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rt.Close()
	expectGoroutines(t, base, "after disconnect churn")
}

// TestServeErrorRepliesKeepSessionAlive drives the semantic-failure
// paths: each earns an ERROR frame and the session keeps working.
func TestServeErrorRepliesKeepSessionAlive(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()

	if _, err := cs.Attach("r", 8, 0, 16); err == nil {
		t.Error("Attach beyond the region did not error")
	}
	if _, err := cs.Batch(99, 0, []mem.Word{1}); err == nil {
		t.Error("Batch with unknown handle did not error")
	}
	if err := cs.Wait(99); err == nil {
		t.Error("Wait with unknown handle did not error")
	}
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatalf("valid Attach after errors: %v", err)
	}
	if _, err := cs.Batch(h, 4, []mem.Word{1, 2, 3, 4, 5}); err == nil {
		t.Error("Batch spanning past the region end did not error")
	}
	if _, err := cs.Attach("r", 16, 0, 8); err == nil {
		t.Error("size-mismatched re-Attach of region did not error")
	}
	changed, err := cs.Batch(h, 0, []mem.Word{1, 2, 3})
	if err != nil || changed != 3 {
		t.Fatalf("valid Batch after errors: changed %d, err %v", changed, err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("valid Wait after errors: %v", err)
	}
	if got, want := srv.Counters().Errors, int64(5); got != want {
		t.Errorf("Errors = %d, want %d", got, want)
	}
}

// TestServeAttachOversizeRejected: an ATTACH asking for more than
// maxRegionWords gets an ERROR before the server allocates anything (a
// 1<<30-word region used to kill the process), and the session goes on
// attaching and batching normally.
func TestServeAttachOversizeRejected(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()

	if _, err := cs.Attach("huge", 1<<30, 0, 1); err == nil {
		t.Fatal("Attach of 1<<30 words did not error")
	}
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatalf("valid Attach after the oversize one: %v", err)
	}
	if changed, err := cs.Batch(h, 0, []mem.Word{1, 2}); err != nil || changed != 2 {
		t.Fatalf("Batch after the oversize Attach: changed %d, err %v", changed, err)
	}
	if got := srv.Counters().Errors; got != 1 {
		t.Errorf("Errors = %d, want 1", got)
	}
}

// TestServeHandshakeViolations: anything but a well-formed HELLO as the
// first frame closes the connection without a session reply.
func TestServeHandshakeViolations(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 1}, Options{})
	defer rt.Close()
	defer srv.Close()

	send := func(frame []byte) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, _, err = newFrameReader(conn).ReadFrame()
		return err
	}

	badMagic := make([]byte, 0, 16)
	badMagic, start := appendFrameHeader(badMagic, OpHello)
	badMagic = appendU32(badMagic, 0x12345678)
	badMagic = appendU16(badMagic, Version)
	patchFrameLength(badMagic, start)
	if err := send(badMagic); err == nil {
		t.Error("bad magic still got a reply")
	}

	badVersion := make([]byte, 0, 16)
	badVersion, start = appendFrameHeader(badVersion, OpHello)
	badVersion = appendU32(badVersion, Magic)
	badVersion = appendU16(badVersion, Version+7)
	patchFrameLength(badVersion, start)
	if err := send(badVersion); err == nil {
		t.Error("bad version still got a reply")
	}

	notHello := make([]byte, 0, 16)
	notHello, start = appendFrameHeader(notHello, OpBarrier)
	patchFrameLength(notHello, start)
	if err := send(notHello); err == nil {
		t.Error("BARRIER before HELLO still got a reply")
	}
}

// TestServeSubscribeGating: without SUBSCRIBE no notifications flow;
// after it they do.
func TestServeSubscribeGating(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()
	h, err := cs.Attach("r", 4, 0, 4)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := cs.Batch(h, 0, []mem.Word{1, 2, 3, 4}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := cs.Notifies(); len(got) != 0 {
		t.Fatalf("%d notifies before SUBSCRIBE", len(got))
	}
	if err := cs.Subscribe(h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := cs.Batch(h, 0, []mem.Word{5, 6, 7, 8}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := cs.Notifies(); len(got) == 0 {
		t.Fatal("no notifies after SUBSCRIBE")
	}
}

// TestServeCloseRacesInFlightBatches: Close severing sessions mid-batch
// leaves no goroutines behind and the runtime balanced — the serving
// plane's version of the Close-races-producers gate.
func TestServeCloseRacesInFlightBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 4, Shards: 4}, Options{})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := Dial(addr)
			if err != nil {
				return // server may already be closing
			}
			defer cs.Close()
			h, err := cs.Attach("r", 8, 0, 8)
			if err != nil {
				return
			}
			if err := cs.Subscribe(h); err != nil {
				return
			}
			vs := make([]mem.Word, 8)
			for b := 1; ; b++ {
				for w := range vs {
					vs[w] = uint64(b*100 + w)
				}
				if _, err := cs.Batch(h, 0, vs); err != nil {
					return // severed by Close: expected
				}
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the batch storm develop
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := srv.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("identity after Close race: %+v", s)
	}
	rt.Close()
	expectGoroutines(t, base, "after Close racing batches")
}

// TestServeSanitizerClean runs a full session against a CheckStrict
// runtime: the serving plane must be protocol-clean under the sanitizer.
func TestServeSanitizerClean(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2, Checker: core.CheckStrict}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := cs.Subscribe(h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := cs.Batch(h, 0, []mem.Word{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := cs.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("client Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not retire")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("sanitizer violations from the serving plane: %v", err)
	}
}

// TestOutboxShedsNotifiesAtCap pins the backpressure contract at the
// unit level: replies always enqueue, notifications shed at capacity.
func TestOutboxShedsNotifiesAtCap(t *testing.T) {
	o := newOutbox(2)
	if !o.push(msg{op: OpChangeNotify}, true) || !o.push(msg{op: OpChangeNotify}, true) {
		t.Fatal("pushes under cap failed")
	}
	if o.push(msg{op: OpChangeNotify}, true) {
		t.Fatal("droppable push above cap succeeded")
	}
	if !o.push(msg{op: OpWait}, false) {
		t.Fatal("reply push above cap was dropped")
	}
	batch, closed := o.swap()
	if len(batch) != 3 || closed {
		t.Fatalf("swap: %d msgs, closed %v; want 3, false", len(batch), closed)
	}
	// A mailbox full of replies alone takes one notify past cap: a shed
	// needs a queued notify after it to carry the dropped count on the wire.
	o.push(msg{op: OpWait}, false)
	o.push(msg{op: OpWait}, false)
	if !o.push(msg{op: OpChangeNotify}, true) {
		t.Fatal("notify shed while the mailbox held only replies")
	}
	if o.push(msg{op: OpChangeNotify}, true) {
		t.Fatal("second notify above cap succeeded")
	}
	o.close()
	if o.push(msg{op: OpWait}, false) {
		t.Fatal("push after close succeeded")
	}
	if _, closed := o.swap(); !closed {
		t.Fatal("swap after close not marked closed")
	}
}
