package core

import (
	"fmt"
	"sync"
)

// Namespace is a connection-scoped view of a Runtime: a private catalogue
// of regions and support threads for one tenant (one serve session).
// Isolation is physical, not advisory — every region a namespace creates
// occupies its own address range in the shared mem.System, so no thread
// attached through namespace A can ever overlap a store issued through
// namespace B. The namespace additionally enforces ownership on the
// management plane: Attach, Wait and Close only accept threads it
// registered itself, so a tenant cannot join on or cancel another
// tenant's work even by guessing thread IDs.
//
// A Namespace adds nothing to the store fast path: once attached, stores
// and dispatch go straight through the runtime's sharded plane. Only the
// management calls (Region/Register/Attach/Wait/Barrier/Close) take the
// namespace lock.
type Namespace struct {
	rt   *Runtime
	name string

	mu      sync.Mutex
	regions map[string]*Region //dtt:guards mu
	owned   []ThreadID         //dtt:guards mu
	ownedBy map[ThreadID]bool  //dtt:guards mu
	closed  bool               //dtt:guards mu
}

// NewNamespace returns a fresh namespace over rt. The name prefixes every
// region allocation ("<ns>/<region>") so probes and telemetry can tell
// tenants apart; callers (the serve plane) keep names unique per live
// session.
func (rt *Runtime) NewNamespace(name string) *Namespace {
	return &Namespace{
		rt:      rt,
		name:    name,
		regions: make(map[string]*Region),
		ownedBy: make(map[ThreadID]bool),
	}
}

// Name returns the namespace's name.
func (ns *Namespace) Name() string { return ns.name }

// Region returns the namespace's region called name, allocating words
// fresh words for it on first use. A repeat request must agree on the
// size; mismatches are an error rather than a silent resize because a
// remote client's ATTACH frames race nothing — its own earlier frames
// fixed the size.
func (ns *Namespace) Region(name string, words int) (*Region, error) {
	if words <= 0 {
		return nil, fmt.Errorf("core: namespace %q region %q of %d words", ns.name, name, words)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return nil, fmt.Errorf("core: Region on closed namespace %q", ns.name)
	}
	if r, ok := ns.regions[name]; ok {
		if r.Len() != words {
			return nil, fmt.Errorf("core: namespace %q region %q is %d words, requested %d", ns.name, name, r.Len(), words)
		}
		return r, nil
	}
	r := ns.rt.NewRegion(ns.name+"/"+name, words)
	ns.regions[name] = r
	return r, nil
}

// Register records a support thread owned by this namespace.
func (ns *Namespace) Register(name string, fn ThreadFunc) (ThreadID, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return 0, fmt.Errorf("core: Register on closed namespace %q", ns.name)
	}
	t := ns.rt.Register(ns.name+"/"+name, fn)
	ns.owned = append(ns.owned, t)
	ns.ownedBy[t] = true
	return t, nil
}

// owns reports whether t was registered through this namespace; the
// caller holds ns.mu.
func (ns *Namespace) owns(t ThreadID) bool { return ns.ownedBy[t] }

// Attach arms an owned thread on a range of one of the namespace's own
// regions. Foreign threads and foreign regions are rejected before the
// runtime ever sees the request.
func (ns *Namespace) Attach(t ThreadID, r *Region, lo, hi int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return fmt.Errorf("core: Attach on closed namespace %q", ns.name)
	}
	if !ns.owns(t) {
		return fmt.Errorf("core: namespace %q does not own thread %d", ns.name, t)
	}
	owned := false
	for _, own := range ns.regions {
		if own == r {
			owned = true
			break
		}
	}
	if !owned {
		return fmt.Errorf("core: namespace %q does not own the attach region", ns.name)
	}
	return ns.rt.Attach(t, r, lo, hi)
}

// Wait joins on one owned thread's quiescence.
func (ns *Namespace) Wait(t ThreadID) error {
	ns.mu.Lock()
	if ns.closed || !ns.owns(t) {
		closed := ns.closed
		ns.mu.Unlock()
		if closed {
			return fmt.Errorf("core: Wait on closed namespace %q", ns.name)
		}
		return fmt.Errorf("core: namespace %q does not own thread %d", ns.name, t)
	}
	ns.mu.Unlock()
	// Outside ns.mu: Wait blocks until the shard drains, and holding the
	// namespace lock across it would stall the session's other calls.
	ns.rt.Wait(t)
	return nil
}

// Barrier joins on every thread the namespace owns — the tenant-scoped
// analogue of Runtime.Barrier, which would leak other tenants' timing.
func (ns *Namespace) Barrier() error {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return fmt.Errorf("core: Barrier on closed namespace %q", ns.name)
	}
	owned := make([]ThreadID, len(ns.owned))
	copy(owned, ns.owned)
	ns.mu.Unlock()
	for _, t := range owned {
		ns.rt.Wait(t)
	}
	return nil
}

// Threads returns the number of threads the namespace owns.
func (ns *Namespace) Threads() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.owned)
}

// Close cancels every owned thread (squashing their pending triggers and
// detaching their ranges), drains any instance still running, retires the
// threads so their IDs recycle, and returns the regions' address ranges
// to the arena free list. Idempotent. The drain is what makes the free
// safe: a cancelled instance keeps executing against the entries it
// captured, and without it a late store through an owned region could
// land in an address range the arena had already re-issued to another
// tenant — firing that tenant's triggers. Close therefore blocks until
// in-flight work quiesces; do not call it from a support-thread body the
// namespace owns. The caller must have stopped issuing stores into the
// namespace's regions before closing; Close frees their backing memory.
func (ns *Namespace) Close() {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	ns.closed = true
	owned := ns.owned
	ns.owned = nil
	regions := ns.regions
	ns.regions = nil
	ns.mu.Unlock()
	for _, t := range owned {
		ns.rt.Cancel(t)
	}
	// Cancel squashed everything pending, so the drain only ever waits for
	// the (at most one, per thread) instance that was already executing.
	for _, t := range owned {
		ns.rt.waitQuiet(t)
	}
	// Retire and free under rt.mu: retirement mutates the free-ID list and
	// region release prunes the merge set and the arena, both rt.mu-guarded.
	ns.rt.mu.Lock()
	for _, t := range owned {
		ns.rt.retireThreadLocked(t)
	}
	for _, r := range regions {
		ns.rt.releaseRegionLocked(r)
	}
	ns.rt.mu.Unlock()
}
