package queue

import (
	"fmt"

	"dtt/internal/mem"
)

// DedupPolicy selects how the thread queue squashes duplicate trigger
// entries. The paper's design enqueues at most one instance per thread and
// trigger address — the support thread reads the latest data when it runs,
// so re-executing for every intermediate value is pure waste.
type DedupPolicy int

const (
	// DedupPerAddress squashes an enqueue when the same (thread, trigger
	// address) pair is already pending. This is the paper's policy.
	DedupPerAddress DedupPolicy = iota
	// DedupPerLine squashes on the same (thread, cache line): cheaper
	// comparators than per-address at the cost of coalescing distinct
	// trigger words within a line. An ablation on trigger granularity.
	DedupPerLine
	// DedupPerThread squashes when any instance of the thread is pending,
	// regardless of address. An ablation: cheaper hardware, coarser.
	DedupPerThread
	// DedupNone never squashes. The degenerate ablation baseline.
	DedupNone
)

// String returns the policy name.
func (p DedupPolicy) String() string {
	switch p {
	case DedupPerAddress:
		return "per-address"
	case DedupPerLine:
		return "per-line"
	case DedupPerThread:
		return "per-thread"
	case DedupNone:
		return "none"
	}
	return fmt.Sprintf("DedupPolicy(%d)", int(p))
}

// OverflowPolicy selects what a triggering store does when the thread queue
// is full.
type OverflowPolicy int

const (
	// OverflowInline makes the triggering store execute the support thread
	// in line in the main thread, as the paper's fallback does. Correctness
	// is preserved; the store just gets no benefit.
	OverflowInline OverflowPolicy = iota
	// OverflowDrop discards the trigger. Only safe for idempotent
	// recompute-at-wait threads; exposed for failure-injection tests.
	OverflowDrop
)

// String returns the policy name.
func (p OverflowPolicy) String() string {
	switch p {
	case OverflowInline:
		return "inline"
	case OverflowDrop:
		return "drop"
	}
	return fmt.Sprintf("OverflowPolicy(%d)", int(p))
}

// Entry is one pending thread-queue slot.
type Entry struct {
	Thread ThreadID
	Addr   mem.Addr // the trigger address that fired
	Seq    int64    // enqueue sequence number, for observability
	// T0 is the enqueue timestamp in the queue clock's units, 0 when no
	// clock is set (telemetry off) or the entry never sat in a queue (an
	// inline overflow run). A squashed re-trigger keeps the original
	// entry's stamp: the latency being measured is how long the oldest
	// unserved trigger waited.
	T0 int64
}

// EnqueueStatus reports what Enqueue did with a trigger.
type EnqueueStatus int

const (
	// Enqueued means a new entry was added.
	Enqueued EnqueueStatus = iota
	// Squashed means a matching entry was already pending.
	Squashed
	// Overflowed means the queue was full; the caller must apply the
	// overflow policy.
	Overflowed
)

// String returns the status name.
func (s EnqueueStatus) String() string {
	switch s {
	case Enqueued:
		return "enqueued"
	case Squashed:
		return "squashed"
	case Overflowed:
		return "overflowed"
	}
	return fmt.Sprintf("EnqueueStatus(%d)", int(s))
}

// dedupKey packs (thread, dedup address) into one machine word so the
// pending map hashes 8 bytes instead of a 16-byte struct — on the
// triggering-store hot path the map probe is the dominant cost, and the
// single-word key roughly halves it. The thread occupies the top 16 bits
// and the address the low 48; both fit by construction: thread IDs are
// dense runtime-assigned integers (the runtime caps registration well
// below 1<<16) and mem.System addresses are arena offsets backed by live
// slices — reaching 2^48 would take 256 TB of real memory, and
// mem.System.Alloc enforces the bound.
type dedupKey uint64

// pendingTab maps dedupKey -> pending-entry count with open addressing and
// linear probing. The ring's capacity bounds the number of live keys, so the
// table is sized once at construction (2x capacity, rounded up to a power of
// two, load factor <= 50%) and never grows, never allocates after New, and
// replaces the generic Go map that dominated the triggering-store profile:
// a multiplicative hash plus a one-or-two-slot probe is a fraction of the
// hashed-map machinery. Empty slots are cnts[i] == 0 — key zero is a legal
// dedup key (per-thread policy zeroes the address), so keys cannot encode
// emptiness. Deletion uses backward-shift compaction instead of tombstones,
// keeping probe chains minimal for the lifetime of the queue.
type pendingTab struct {
	keys  []dedupKey
	cnts  []int32
	mask  uint64
	shift uint
}

func newPendingTab(capacity int) *pendingTab {
	size := 8
	for size < 2*capacity {
		size *= 2
	}
	shift := uint(64)
	for s := size; s > 1; s /= 2 {
		shift--
	}
	return &pendingTab{
		keys:  make([]dedupKey, size),
		cnts:  make([]int32, size),
		mask:  uint64(size - 1),
		shift: shift,
	}
}

// home is the preferred slot for k: a Fibonacci multiplicative hash taking
// the high bits, which spreads the word-stride address runs that dominate
// real trigger streams.
func (p *pendingTab) home(k dedupKey) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> p.shift
}

// lookup probes for k. It returns the slot holding k (found=true) or the
// first empty slot of k's probe chain (found=false), which is exactly where
// an insert of k must go.
func (p *pendingTab) lookup(k dedupKey) (slot uint64, found bool) {
	i := p.home(k)
	for {
		if p.cnts[i] == 0 {
			return i, false
		}
		if p.keys[i] == k {
			return i, true
		}
		i = (i + 1) & p.mask
	}
}

// dec decrements k's count, removing the slot by backward-shift compaction
// when it reaches zero so later probes never walk dead slots.
func (p *pendingTab) dec(k dedupKey) {
	i, found := p.lookup(k)
	if !found {
		return
	}
	if p.cnts[i] > 1 {
		p.cnts[i]--
		return
	}
	// Backward-shift deletion: repeatedly pull the next displaced entry of
	// the probe chain into the vacated slot until an empty slot or an entry
	// already sitting at its home terminates the chain.
	for {
		p.cnts[i] = 0
		j := i
		for {
			j = (j + 1) & p.mask
			if p.cnts[j] == 0 {
				return
			}
			h := p.home(p.keys[j])
			// The entry at j may move back to i only if i is cyclically
			// within [h, j): moving it must not place it before its home.
			if i <= j {
				if h <= i || h > j {
					break
				}
			} else if h <= i && h > j {
				break
			}
		}
		p.keys[i], p.cnts[i] = p.keys[j], p.cnts[j]
		i = j
	}
}

// ThreadQueue is the fixed-capacity pending-trigger queue. Entries enter in
// trigger order and leave in FIFO order. Storage is a ring buffer sized at
// construction, so Enqueue and Dequeue move no entries and allocate nothing;
// a per-thread pending count makes the Pending predicate — which the
// runtime's Wait wakeup condition evaluates under a shard lock — O(1)
// instead of a queue scan.
type ThreadQueue struct {
	cap   int
	dedup DedupPolicy
	// ring[(head+i)%cap] for i in [0, n) are the pending entries, oldest
	// first.
	ring []Entry //dtt:guards dispatchShard.mu
	head int     //dtt:guards dispatchShard.mu
	n    int     //dtt:guards dispatchShard.mu
	// pending counts queue occupancy per dedup key. It is nil under
	// DedupNone: synthesizing fake keys to disable squashing (as an earlier
	// revision did with seq<<16) risks colliding with real addresses and
	// wraps, so the no-squash policy simply never consults the table.
	pending   *pendingTab
	perThread []int // pending entries per ThreadID, grown on demand
	seq       int64
	// clock stamps Entry.T0 at enqueue when non-nil; the runtime sets it
	// (to the telemetry clock) only when telemetry is on, so the default
	// enqueue path never pays for a time read.
	clock func() int64

	c Counters
}

// Counters are a ThreadQueue's lifetime statistics. They obey
//
//	Enqueued = Dequeued + SquashedOut + Len()
//
// at every quiescent point: every entry that entered the ring left it either
// through a dequeue or through a Squash (tcancel), or is still pending.
// Squashed and Overflowed count offers that never entered the ring.
type Counters struct {
	// Enqueued counts entries admitted to the ring.
	Enqueued int64
	// Squashed counts offers absorbed by duplicate squashing.
	Squashed int64
	// Overflowed counts offers that found the ring full.
	Overflowed int64
	// Dequeued counts entries removed by Dequeue/DequeueFirst.
	Dequeued int64
	// SquashedOut counts pending entries removed by Squash (tcancel).
	SquashedOut int64
	// Peak is the maximum ring occupancy ever observed.
	Peak int
}

// NewThreadQueue returns a queue with the given capacity and dedup policy.
// Capacity must be positive.
func NewThreadQueue(capacity int, dedup DedupPolicy) *ThreadQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive thread queue capacity %d", capacity))
	}
	q := &ThreadQueue{cap: capacity, dedup: dedup, ring: make([]Entry, capacity)}
	if dedup != DedupNone {
		q.pending = newPendingTab(capacity)
	}
	return q
}

func (q *ThreadQueue) key(t ThreadID, addr mem.Addr) dedupKey {
	switch q.dedup {
	case DedupPerLine:
		addr &^= mem.LineBytes - 1
	case DedupPerThread:
		addr = 0
	}
	return dedupKey(uint64(t)<<48 | uint64(addr))
}

// at returns the i-th oldest slot. head < cap and i <= n <= cap always hold,
// so a conditional subtract replaces the modulo — a measurable saving on the
// enqueue hot path, where the divisor is not a compile-time constant.
func (q *ThreadQueue) at(i int) *Entry {
	j := q.head + i
	if j >= q.cap {
		j -= q.cap
	}
	return &q.ring[j]
}

func (q *ThreadQueue) countUp(t ThreadID) {
	if int(t) >= len(q.perThread) {
		grown := make([]int, int(t)+1) //dtt:escape-ok -- per-thread counter growth; allocates only on first sight of a thread id
		copy(grown, q.perThread)
		q.perThread = grown
	}
	q.perThread[t]++
}

// dropKey releases e's dedup key after e left the ring.
func (q *ThreadQueue) dropKey(e Entry) {
	if q.pending == nil {
		return
	}
	q.pending.dec(q.key(e.Thread, e.Addr))
}

// Enqueue offers a fired trigger to the queue.
func (q *ThreadQueue) Enqueue(t ThreadID, addr mem.Addr) EnqueueStatus {
	var k dedupKey
	var slot uint64
	if q.pending != nil {
		k = q.key(t, addr)
		var found bool
		if slot, found = q.pending.lookup(k); found {
			q.c.Squashed++
			return Squashed
		}
	}
	if q.n >= q.cap {
		q.c.Overflowed++
		return Overflowed
	}
	q.seq++
	e := Entry{Thread: t, Addr: addr, Seq: q.seq}
	if q.clock != nil {
		e.T0 = q.clock()
	}
	*q.at(q.n) = e
	q.n++
	if q.pending != nil {
		// lookup already probed to the insert slot; found entries returned
		// above, so this is always a fresh key with count one.
		q.pending.keys[slot] = k
		q.pending.cnts[slot] = 1
	}
	q.countUp(t) //dtt:escape-ok -- inlined per-thread counter growth; allocates only on first sight of a thread id
	q.c.Enqueued++
	if q.n > q.c.Peak {
		q.c.Peak = q.n
	}
	return Enqueued
}

// Dequeue removes and returns the oldest entry. ok is false when the queue
// is empty.
func (q *ThreadQueue) Dequeue() (e Entry, ok bool) {
	if q.n == 0 {
		return Entry{}, false
	}
	e = q.ring[q.head]
	q.head++
	if q.head == q.cap {
		q.head = 0
	}
	q.n--
	q.perThread[e.Thread]--
	q.dropKey(e)
	q.c.Dequeued++
	return e, true
}

// DequeueFirst removes and returns the oldest entry satisfying pred,
// preserving the order of the rest. ok is false when no entry matches.
// The runtime's dispatch loops use it to skip over entries whose thread
// already has a running instance. Removal shifts the entries older than
// the match — usually none, since dispatchable work clusters at the head —
// and never allocates.
func (q *ThreadQueue) DequeueFirst(pred func(Entry) bool) (e Entry, ok bool) {
	for i := 0; i < q.n; i++ {
		cand := *q.at(i)
		if !pred(cand) {
			continue
		}
		for j := i; j > 0; j-- {
			*q.at(j) = *q.at(j - 1)
		}
		q.head++
		if q.head == q.cap {
			q.head = 0
		}
		q.n--
		q.perThread[cand.Thread]--
		q.dropKey(cand)
		q.c.Dequeued++
		return cand, true
	}
	return Entry{}, false
}

// EntryAt returns the i-th oldest pending entry without removing it. It
// panics if i is out of range. The deterministic scheduler backend uses it
// to enumerate dispatch candidates.
func (q *ThreadQueue) EntryAt(i int) Entry {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("queue: EntryAt(%d) with %d pending", i, q.n))
	}
	return *q.at(i)
}

// DequeueAt removes and returns the i-th oldest entry, preserving the order
// of the rest. It panics if i is out of range. Like DequeueFirst, removal
// shifts the entries older than the target and never allocates.
func (q *ThreadQueue) DequeueAt(i int) Entry {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("queue: DequeueAt(%d) with %d pending", i, q.n))
	}
	e := *q.at(i)
	for j := i; j > 0; j-- {
		*q.at(j) = *q.at(j - 1)
	}
	q.head++
	if q.head == q.cap {
		q.head = 0
	}
	q.n--
	q.perThread[e.Thread]--
	q.dropKey(e)
	q.c.Dequeued++
	return e
}

// Squash removes all pending entries of thread t (tcancel) and returns how
// many were removed. Removed entries are accounted in Counters.SquashedOut,
// not Dequeued: they never executed.
func (q *ThreadQueue) Squash(t ThreadID) int {
	removed := 0
	kept := 0
	for i := 0; i < q.n; i++ {
		e := *q.at(i)
		if e.Thread == t {
			removed++
			q.dropKey(e)
			continue
		}
		*q.at(kept) = e
		kept++
	}
	q.n = kept
	if removed > 0 {
		q.perThread[t] -= removed
		q.c.SquashedOut += int64(removed)
	}
	return removed
}

// Len returns the number of pending entries.
func (q *ThreadQueue) Len() int { return q.n }

// Cap returns the queue capacity.
func (q *ThreadQueue) Cap() int { return q.cap }

// Pending reports whether thread t has any pending entry, in O(1).
func (q *ThreadQueue) Pending(t ThreadID) bool { return q.PendingCount(t) > 0 }

// PendingCount returns how many entries of thread t are pending, in O(1).
func (q *ThreadQueue) PendingCount(t ThreadID) int {
	if int(t) < 0 || int(t) >= len(q.perThread) {
		return 0
	}
	return q.perThread[t]
}

// SetClock installs the enqueue timestamp source for Entry.T0. Call it
// before the queue is shared; a nil clock (the default) stamps nothing.
func (q *ThreadQueue) SetClock(clock func() int64) { q.clock = clock }

// Counters returns the queue's lifetime statistics.
func (q *ThreadQueue) Counters() Counters { return q.c }
