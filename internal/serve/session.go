package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/telemetry"
)

// msg is one queued outbound frame. Frames on this plane are small and
// fixed-shape, so a mailbox entry is a flat struct — no per-message
// allocation, and the writer encodes straight out of the slot.
type msg struct {
	op   byte
	a, b uint32     // first/second u32 payload fields (handle, index, ...)
	v    uint64     // CHANGE_NOTIFY value
	t0   int64      // CHANGE_NOTIFY: batch arrival stamp, for the latency histogram
	s    string     // ERROR message
	ws   []mem.Word // READ reply words (reader-owned copy; READ is off the hot path)
}

// outbox is a session's mailbox: the per-session dual of a dispatch
// shard's thread queue. Producers (the session's reader goroutine and any
// support-thread worker firing a notification) append under the mailbox
// lock; the single writer goroutine swaps the full buffer out and encodes
// it without holding the lock — the same double-buffer discipline the
// mailbox exemplars use, so a slow client connection never blocks a
// worker beyond one short critical section.
//
// Replies are never dropped: the client is waiting on them and they are
// bounded by requests in flight (one each). CHANGE_NOTIFY frames are
// fire-and-forget and are dropped once the mailbox holds cap entries,
// counted in the server's notify-dropped counter — backpressure by
// shedding, not by stalling the dispatch plane. Shedding is never silent
// on the wire: every CHANGE_NOTIFY carries the session's cumulative
// dropped count, stamped at encode time (see writeLoop), so a subscriber
// that lost notifications learns it from the very next one it receives.
// A drop therefore needs a CHANGE_NOTIFY still in the mailbox, encoded
// strictly after the drop: when the mailbox holds cap entries but all of
// them are replies, the notify is queued past cap instead of shed, so a
// drop is always followed by a stamp that announces it.
type outbox struct {
	mu     sync.Mutex
	buf    []msg //dtt:guards mu
	spare  []msg //dtt:guards mu
	wake   chan struct{}
	closed bool //dtt:guards mu
	cap    int
	// notifies counts the droppable messages in buf.
	notifies int //dtt:guards mu
}

func newOutbox(capacity int) *outbox {
	return &outbox{wake: make(chan struct{}, 1), cap: capacity}
}

// push enqueues m; droppable marks it sheddable at capacity. Returns
// false when the message was dropped or the outbox is closed.
func (o *outbox) push(m msg, droppable bool) bool {
	o.mu.Lock()
	if o.closed || (droppable && len(o.buf) >= o.cap && o.notifies > 0) {
		o.mu.Unlock()
		return false
	}
	o.buf = append(o.buf, m)
	if droppable {
		o.notifies++
	}
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
	return true
}

// swap hands the writer the pending batch (into its spare buffer) and
// reports whether the outbox is closed. The returned slice is owned by
// the writer until the next swap.
func (o *outbox) swap() (batch []msg, closed bool) {
	o.mu.Lock()
	batch, o.buf = o.buf, o.spare[:0]
	o.spare = batch
	o.notifies = 0
	closed = o.closed
	o.mu.Unlock()
	return batch, closed
}

// close marks the outbox closed and wakes the writer so it can drain and
// exit. Messages already queued are still written.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// attachHandle is one ATTACH's server-side state: the support thread, the
// region it watches, and whether the client subscribed to its outputs.
// ThreadFunc closures capture the handle pointer, so a concurrent append
// to the session's handle table never races a firing trigger.
type attachHandle struct {
	thread     core.ThreadID
	region     *core.Region
	subscribed atomic.Bool
}

// session is one accepted connection: a reader goroutine decoding and
// handling request frames, a writer goroutine draining the mailbox, and a
// connection-scoped namespace giving the tenant its own regions and
// threads.
type session struct {
	srv  *Server
	id   int
	conn net.Conn
	ns   *core.Namespace
	out  *outbox

	// reader-goroutine state (single-threaded, no lock).
	fr      *frameReader
	handles []*attachHandle
	words   []mem.Word

	// batchT0 is the arrival stamp of the most recent TSTORE_BATCH,
	// read by support threads when they queue a notification.
	batchT0 atomic.Int64

	// counters mirrored into Server.Counters on retirement and readable
	// live; atomics because reader, writer and workers all touch them.
	framesIn, framesOut   atomic.Int64
	bytesIn, bytesOut     atomic.Int64
	batches, stores       atomic.Int64
	updates               atomic.Int64
	changed, notifies     atomic.Int64
	notifyDropped, errors atomic.Int64
}

// run is the reader goroutine: handshake, then one frame at a time until
// the peer disconnects, a framing violation occurs, or the server closes
// the connection under it. Teardown order matters: cancel the namespace's
// threads first (no new notifications), then close the outbox (writer
// drains and exits), then the connection.
func (s *session) run() {
	defer func() {
		s.ns.Close()
		s.out.close()
		s.conn.Close()
		s.srv.removeSession(s)
	}()
	if err := s.handshake(); err != nil {
		return
	}
	for {
		op, payload, err := s.readFrame()
		if err != nil {
			return
		}
		if !s.handle(op, payload) {
			return
		}
	}
}

// readFrame wraps the frame reader with the session's byte/frame counters.
func (s *session) readFrame() (byte, []byte, error) {
	op, payload, err := s.fr.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	s.framesIn.Add(1)
	s.bytesIn.Add(int64(headerLen + len(payload)))
	return op, payload, nil
}

// handshake requires the first frame to be a well-formed HELLO and
// answers it with the session ID. Anything else closes the connection —
// before HELLO there is no session to report an error to.
func (s *session) handshake() error {
	op, payload, err := s.readFrame()
	if err != nil {
		return err
	}
	c := cursor{b: payload}
	magic, version := c.u32(), c.u16()
	if op != OpHello || !c.done() || magic != Magic {
		return fmt.Errorf("serve: handshake: expected HELLO, got %s", opName(op))
	}
	if version != Version {
		return fmt.Errorf("serve: handshake: protocol version %d, want %d", version, Version)
	}
	s.out.push(msg{op: OpHello, a: uint32(s.id)}, false)
	return nil
}

// handle dispatches one post-handshake request. It returns false when the
// connection must close (framing violations); semantic failures push an
// ERROR reply and keep the session alive.
func (s *session) handle(op byte, payload []byte) bool {
	c := cursor{b: payload}
	switch op {
	case OpAttach:
		words, lo, hi := c.u32(), c.u32(), c.u32()
		name := string(c.take(int(c.u16())))
		if !c.done() {
			return false
		}
		s.handleAttach(words, lo, hi, name)
	case OpTStoreBatch:
		handle, lo, n := c.u32(), c.u32(), c.u32()
		if c.bad || n > MaxFrame/8 || len(payload)-c.off != int(n)*8 {
			return false
		}
		s.handleBatch(handle, lo, int(n), &c)
	case OpTUpdate:
		handle, uop, lo, n := c.u32(), c.u8(), c.u32(), c.u32()
		if c.bad || n > MaxFrame/8 || len(payload)-c.off != int(n)*8 {
			return false
		}
		s.handleUpdate(handle, uop, lo, int(n), &c)
	case OpWait:
		handle := c.u32()
		if !c.done() {
			return false
		}
		if h := s.lookup(handle, OpWait); h != nil {
			// Wait blocks until the thread quiesces; every notification
			// its runs queued is in the mailbox before this reply, so the
			// client observes notifies-then-reply in FIFO order.
			s.ns.Wait(h.thread)
			s.reply(msg{op: OpWait})
		}
	case OpBarrier:
		if !c.done() {
			return false
		}
		s.ns.Barrier()
		s.reply(msg{op: OpBarrier})
	case OpSubscribe:
		handle := c.u32()
		if !c.done() {
			return false
		}
		if h := s.lookup(handle, OpSubscribe); h != nil {
			h.subscribed.Store(true)
			s.reply(msg{op: OpSubscribe})
		}
	case OpRead:
		handle, lo, n := c.u32(), c.u32(), c.u32()
		// The reply (count u32 + n words) must itself fit under MaxFrame.
		if !c.done() || n > (MaxFrame-5)/8 {
			return false
		}
		s.handleRead(handle, lo, int(n))
	default:
		// HELLO twice, a server-side opcode from a client, or an unknown
		// opcode: framing violation.
		return false
	}
	return true
}

// handleAttach creates (or reopens) the named region sized words, arms a
// fresh support thread on [lo, hi) of it, and replies with the handle.
// The thread body publishes the changed word as a CHANGE_NOTIFY when the
// handle is subscribed.
func (s *session) handleAttach(words, lo, hi uint32, name string) {
	if words > maxRegionWords {
		s.sendErr(fmt.Sprintf("serve: ATTACH of %d words exceeds the %d-word region limit", words, maxRegionWords))
		return
	}
	r, err := s.ns.Region(name, int(words))
	if err != nil {
		s.sendErr(err.Error())
		return
	}
	h := &attachHandle{region: r}
	handle := uint32(len(s.handles))
	tid, err := s.ns.Register(fmt.Sprintf("%s#%d", name, handle), func(tg core.Trigger) {
		if !h.subscribed.Load() {
			return
		}
		m := msg{op: OpChangeNotify, a: handle, b: uint32(tg.Index),
			v: tg.Region.Load(tg.Index), t0: s.batchT0.Load()}
		if s.out.push(m, true) {
			s.notifies.Add(1)
		} else {
			s.notifyDropped.Add(1)
		}
	})
	if err != nil {
		s.sendErr(err.Error())
		return
	}
	h.thread = tid
	if err := s.ns.Attach(tid, r, int(lo), int(hi)); err != nil {
		s.sendErr(err.Error())
		return
	}
	s.handles = append(s.handles, h)
	s.reply(msg{op: OpAttach, a: handle})
}

// handleBatch decodes the span into the session's reused word buffer and
// funnels it through TStoreBatch — one registry snapshot and one lock
// acquisition per target shard for the whole wire batch.
func (s *session) handleBatch(handle, lo uint32, n int, c *cursor) {
	h := s.lookup(handle, OpTStoreBatch)
	if h == nil {
		return
	}
	if n == 0 {
		s.reply(msg{op: OpTStoreBatch})
		return
	}
	if int(lo)+n > h.region.Len() {
		s.sendErr(fmt.Sprintf("serve: TSTORE_BATCH span [%d, %d) outside region of %d words", lo, int(lo)+n, h.region.Len()))
		return
	}
	if cap(s.words) < n {
		s.words = make([]mem.Word, n)
	}
	s.words = s.words[:n]
	for i := range s.words {
		s.words[i] = c.u64()
	}
	s.batchT0.Store(telemetry.Now())
	changed := h.region.TStoreBatch(int(lo), s.words)
	s.batches.Add(1)
	s.stores.Add(int64(n))
	s.changed.Add(int64(changed))
	s.reply(msg{op: OpTStoreBatch, a: uint32(changed)})
}

// handleUpdate decodes the operand span and folds it through TUpdateBatch:
// the commutative-update analogue of handleBatch. The reply acknowledges
// the n operands folded; triggers fire later, at the merge (Wait/Barrier
// or the runtime's eager merge policy), so unlike TSTORE_BATCH there is no
// changed count to report yet.
func (s *session) handleUpdate(handle uint32, uop byte, lo uint32, n int, c *cursor) {
	h := s.lookup(handle, OpTUpdate)
	if h == nil {
		return
	}
	op := mem.UpdateOp(uop)
	if !op.Valid() {
		s.sendErr(fmt.Sprintf("serve: TUPDATE with invalid op %d", uop))
		return
	}
	if n == 0 {
		s.reply(msg{op: OpTUpdate})
		return
	}
	if int(lo)+n > h.region.Len() {
		s.sendErr(fmt.Sprintf("serve: TUPDATE span [%d, %d) outside region of %d words", lo, int(lo)+n, h.region.Len()))
		return
	}
	if cap(s.words) < n {
		s.words = make([]mem.Word, n)
	}
	s.words = s.words[:n]
	for i := range s.words {
		s.words[i] = c.u64()
	}
	s.batchT0.Store(telemetry.Now())
	h.region.TUpdateBatch(int(lo), op, s.words)
	s.updates.Add(int64(n))
	s.reply(msg{op: OpTUpdate, a: uint32(n)})
}

// handleRead replies with a point-in-time copy of [lo, lo+n) of the
// handle's region. Load merges any pending update-plane deltas first, so
// the words a recovering subscriber reads are the merged truth its lost
// notifications were about. The copy is a fresh allocation per request —
// READ is the recovery path, not the hot path, and the reply msg outlives
// this handler's reused buffers.
func (s *session) handleRead(handle, lo uint32, n int) {
	h := s.lookup(handle, OpRead)
	if h == nil {
		return
	}
	if int(lo)+n > h.region.Len() {
		s.sendErr(fmt.Sprintf("serve: READ span [%d, %d) outside region of %d words", lo, int(lo)+n, h.region.Len()))
		return
	}
	ws := make([]mem.Word, n)
	for i := range ws {
		ws[i] = h.region.Load(int(lo) + i)
	}
	s.reply(msg{op: OpRead, a: uint32(n), ws: ws})
}

// lookup resolves a client handle, pushing an ERROR reply when it is out
// of range.
func (s *session) lookup(handle uint32, op byte) *attachHandle {
	if int(handle) >= len(s.handles) {
		s.sendErr(fmt.Sprintf("serve: %s with unknown handle %d", opName(op), handle))
		return nil
	}
	return s.handles[handle]
}

func (s *session) reply(m msg) { s.out.push(m, false) }

func (s *session) sendErr(text string) {
	s.errors.Add(1)
	s.out.push(msg{op: OpError, s: text}, false)
}

// writeLoop is the writer goroutine: the mailbox's single consumer. It
// owns the connection's buffered writer, encodes each drained batch into
// a reused scratch slice, and flushes once per drain — so a burst of
// notifications costs one syscall, not one per frame.
func (s *session) writeLoop() {
	defer s.srv.wg.Done()
	bw := bufio.NewWriter(s.conn)
	var scratch []byte
	for {
		batch, closed := s.out.swap()
		for i := range batch {
			m := &batch[i]
			var start int
			scratch, start = appendFrameHeader(scratch[:0], m.op)
			switch m.op {
			case OpHello, OpAttach, OpTStoreBatch, OpTUpdate:
				scratch = appendU32(scratch, m.a)
			case OpWait, OpBarrier, OpSubscribe:
				// empty payload
			case OpChangeNotify:
				scratch = appendU32(scratch, m.a)
				scratch = appendU32(scratch, m.b)
				scratch = appendU64(scratch, m.v)
				// The cumulative dropped count is stamped at encode time,
				// not enqueue time: a drop requires cap entries already in
				// the mailbox, and those entries reach this line strictly
				// after the drop was counted, so the stamp that announces a
				// gap always trails it onto the wire. Stamping at enqueue
				// would race the drop and could leave every in-flight
				// notify carrying the pre-drop count.
				scratch = appendU32(scratch, uint32(s.notifyDropped.Load()))
			case OpRead:
				scratch = appendU32(scratch, m.a)
				for _, w := range m.ws {
					scratch = appendU64(scratch, w)
				}
			case OpError:
				scratch = appendU16(scratch, uint16(len(m.s)))
				scratch = append(scratch, m.s...)
			}
			patchFrameLength(scratch, start)
			n, err := bw.Write(scratch)
			if err != nil {
				// Peer gone: swallow queued frames until close.
				s.drainUntilClosed()
				return
			}
			s.framesOut.Add(1)
			s.bytesOut.Add(int64(n))
			if m.op == OpChangeNotify {
				s.srv.notifyLat.Observe(telemetry.Now() - m.t0)
			}
		}
		if err := bw.Flush(); err != nil {
			s.drainUntilClosed()
			return
		}
		if closed && len(batch) == 0 {
			return
		}
		if !closed && len(batch) == 0 {
			<-s.out.wake
		}
	}
}

// drainUntilClosed keeps consuming the mailbox after a write error so
// producers never block on a full wake channel, until the reader closes
// the outbox.
func (s *session) drainUntilClosed() {
	for {
		if _, closed := s.out.swap(); closed {
			return
		}
		<-s.out.wake
	}
}
