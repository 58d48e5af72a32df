// Commutative triggering updates: the merge plane.
//
// Region.TUpdate generalizes the triggering store for hot counter-shaped
// regions. A scalar TStore serializes every producer through the target
// word and fires per change; TUpdate instead folds a declared-commutative
// op (add, min, max, and, or, set) into a per-producer-stripe privatized
// delta cell (mem.DeltaPlane) — no cross-producer contention, no
// allocation — and defers the trigger to the *merge*, when the net
// pending effect is applied to memory. Deduplication thereby generalizes
// from "value unchanged" to "net effect unchanged": a merge that nets to
// the value already in memory is a silent merge, the squash-equivalent,
// and fires nothing.
//
// # Merge points and visibility
//
// A merge is the visibility point of updates: until one runs, neither
// memory nor any support thread observes pending deltas. Merges happen
//
//   - lazily at Wait/Barrier (blocking: the sync point owns the merge) and
//     at Region.Load (best-effort: a TryLock, skipped when another merge
//     is in flight);
//   - eagerly when Config.MergeThreshold distinct dirty words accumulate
//     or a stripe applies Config.MergeEvery ops since its last merge
//     (best-effort TryLock — pending deltas survive a skipped merge and
//     the next op retries).
//
// Changed merge words dispatch through the exact machinery scalar tstores
// use (fireOne: shard lock, admitLocked's coverage re-check and Fired
// identity), so the trigger-observable semantics match a scalar TStore of
// the merged value. Under a seeded scheduler the whole merge is one
// preemption point at its end, like a batch.
//
// # Lock order
//
// A plane's merge lock (updatePlane.mergeMu) is taken before stripe locks
// (inside Collect) and before shard locks (inside fireOne), never inside
// either. rt.mu may be held while acquiring mergeMu — releaseRegionLocked
// does so to kill a plane before freeing its region — which is safe
// because the converse never happens: a mergeMu holder never acquires
// rt.mu (armUpdates takes rt.mu but never merges; mergePlane touches only
// stripe locks, shard locks and leaf locks). Inline overflow runs execute
// after the merge lock is released.
package core

import (
	"fmt"
	"sync"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/telemetry"
)

// UpdateOp re-exports the commutative op set (see mem.UpdateOp).
type UpdateOp = mem.UpdateOp

// Commutative update operations.
const (
	UpdAdd = mem.UpdAdd
	UpdMin = mem.UpdMin
	UpdMax = mem.UpdMax
	UpdAnd = mem.UpdAnd
	UpdOr  = mem.UpdOr
	UpdSet = mem.UpdSet
)

// updatePlane pairs a region with its privatized delta storage and the
// merge lock that serializes mergers.
type updatePlane struct {
	r     *Region
	plane *mem.DeltaPlane
	// mergeMu admits one merger at a time. Sync points (Wait/Barrier)
	// block on it; Load and eager producers TryLock and skip — whoever
	// holds the lock is already merging the deltas they care about, and
	// anything that slips past a skipped merge is caught at the next
	// blocking point.
	mergeMu sync.Mutex
	// dead marks a plane whose region has been released. Guarded by
	// mergeMu: releaseRegionLocked sets it (and discards pending deltas)
	// under the lock before freeing the region's range, and mergePlane
	// re-checks it after acquiring the lock — so a merger that raced the
	// release through a stale updPlanes snapshot backs off instead of
	// storing into a freed (possibly re-allocated) address range.
	dead bool //dtt:guards mergeMu
}

// armUpdates creates the region's update plane on first TUpdate. Its
// stripe count follows the dispatch-shard default (see defaultWidth).
func (rt *Runtime) armUpdates(r *Region) *updatePlane {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if u := r.upd.Load(); u != nil {
		return u
	}
	u := &updatePlane{r: r, plane: mem.NewDeltaPlane(r.buf.Len(), defaultWidth(rt.concurrent))}
	var grown []*updatePlane
	if ps := rt.updPlanes.Load(); ps != nil {
		grown = append(grown, *ps...)
	}
	grown = append(grown, u)
	rt.updPlanes.Store(&grown)
	r.upd.Store(u)
	return u
}

// TUpdate folds a commutative op into word i's privatized delta: the
// producer-side cost is one stripe-local lock and a cell write, with no
// cross-producer contention and no allocation in the steady state. The
// trigger fires on merge (see package comment in update.go); until then
// memory is unchanged and nothing dispatches.
//
// Mixing TUpdate with direct TStore/Store on the same word is legal only
// when a merge point separates them (merge order against an unmerged
// delta is otherwise unspecified). Min and max compare words as unsigned
// integers. Set is last-writer-wins with a per-stripe order guarantee
// only: deterministic on single-stripe planes (the inline model's); on the
// concurrent model the stripe hint is affinity, not identity, so
// conflicting sets not separated by a merge point may resolve in either
// order (see mem.UpdSet).
func (r *Region) TUpdate(i int, op mem.UpdateOp, v mem.Word) {
	if i < 0 || i >= r.buf.Len() {
		panic(fmt.Sprintf("core: TUpdate index %d out of range of %q (%d words)", i, r.Name(), r.buf.Len()))
	}
	if !op.Valid() {
		panic(fmt.Sprintf("core: TUpdate with invalid op %d", op))
	}
	u := r.upd.Load()
	if u == nil {
		u = r.rt.armUpdates(r)
	}
	if c := r.rt.check; c != nil {
		// Write confinement only: where a thread updates is a property of
		// the instruction. The happens-before stamp lands at merge time —
		// the visibility point — on the merging agent's clock.
		c.OnUpdate(goid(), r.Name(), i, r.buf.Addr(i))
	}
	newly, since := u.plane.Apply(u.plane.Hint(), i, op, v)
	r.rt.maybeEagerMerge(u, newly, since)
}

// TUpdateBatch folds vs[j] into words lo+j under a single stripe lock,
// amortizing the lock and counter maintenance across the span — the
// update analogue of TStoreBatch. Semantics per word are identical to
// scalar TUpdate.
func (r *Region) TUpdateBatch(lo int, op mem.UpdateOp, vs []mem.Word) {
	if len(vs) == 0 {
		return
	}
	if lo < 0 || lo+len(vs) > r.buf.Len() {
		panic(fmt.Sprintf("core: TUpdateBatch [%d, %d) out of range of %q (%d words)",
			lo, lo+len(vs), r.Name(), r.buf.Len()))
	}
	if !op.Valid() {
		panic(fmt.Sprintf("core: TUpdateBatch with invalid op %d", op))
	}
	u := r.upd.Load()
	if u == nil {
		u = r.rt.armUpdates(r)
	}
	if c := r.rt.check; c != nil {
		g := goid()
		for j := range vs {
			c.OnUpdate(g, r.Name(), lo+j, r.buf.Addr(lo+j))
		}
	}
	newly, since := u.plane.ApplyBatch(u.plane.Hint(), lo, op, vs)
	r.rt.maybeEagerMerge(u, newly > 0, since)
}

// maybeEagerMerge applies the eager merge policy after an apply: merge
// when the plane-wide dirty-word count crosses MergeThreshold (checked
// only on a newly-dirtied cell, so repeated folding into hot cells reads
// no shared counter) or when the producer's stripe has applied MergeEvery
// ops since its last merge.
func (rt *Runtime) maybeEagerMerge(u *updatePlane, newly bool, since int64) {
	if th := rt.cfg.MergeThreshold; th > 0 && newly && u.plane.Pending() >= int64(th) {
		rt.mergePlane(u, false)
		return
	}
	if ev := rt.cfg.MergeEvery; ev > 0 && since >= int64(ev) {
		rt.mergePlane(u, false)
	}
}

// mergeAllPlanes merges every armed plane with pending deltas, blocking
// on each merge lock; Wait and Barrier call it so sync points observe
// every completed update. The snapshot may be stale against a concurrent
// region release: a released plane reads Pending() == 0 (the release
// discards its deltas) and mergePlane re-checks the plane's dead flag
// under the merge lock, so a freed range is never merged into.
func (rt *Runtime) mergeAllPlanes() {
	ps := rt.updPlanes.Load()
	if ps == nil {
		return
	}
	for _, u := range *ps {
		if u.plane.Pending() > 0 {
			rt.mergePlane(u, true)
		}
	}
}

// mergePlane collects a plane's pending deltas and applies the net effect
// word by word: each changed word stores and fires exactly like a scalar
// triggering store of the merged value; a word whose net effect is the
// value already in memory is a silent merge and fires nothing. block
// selects a blocking acquisition of the merge lock (sync points) versus
// try-and-skip (Load, eager producers).
func (rt *Runtime) mergePlane(u *updatePlane, block bool) {
	if block {
		u.mergeMu.Lock()
	} else if !u.mergeMu.TryLock() {
		return
	}
	if u.dead {
		// The region was released while we held a stale updPlanes
		// snapshot; its range may already belong to another tenant.
		u.mergeMu.Unlock()
		return
	}
	var t0 int64
	if rt.tel != nil {
		t0 = telemetry.Now()
	}
	p := u.plane
	n := p.Collect()
	if n == 0 {
		u.mergeMu.Unlock()
		return
	}
	r := u.r
	rec := rt.cfg.Recorder
	var g uint64
	if rt.check != nil {
		g = goid()
	}
	// The inline list rides the pooled batch scratch so a steady merge
	// cadence allocates nothing.
	sc := rt.getScratch()
	sc.inline = sc.inline[:0]
	changed := 0
	for k := 0; k < n; k++ {
		i := p.MergeIndex(k)
		// LoadQuiet: folding reads the base value as part of applying a
		// store, not as a workload load — it must not reach probes.
		_, v := p.MergeWord(k, r.buf.LoadQuiet(i))
		rt.stats.mergedUpdates.Add(1)
		if rec != nil {
			// The merge store is a real store; charge the recorded trace
			// as a tstore would.
			rec.NoteTStore()
		}
		if !r.buf.Store(i, v) {
			rt.stats.silentMerges.Add(1)
			if rt.check != nil {
				rt.check.OnSilentStore(g, r.Name(), i, r.buf.Addr(i))
			}
			continue
		}
		changed++
		addr := r.buf.Addr(i)
		if rt.check != nil {
			// Merge is the visibility point: the happens-before stamp
			// carries the merging agent's clock.
			rt.check.OnStore(g, r.Name(), i, addr)
		}
		if !rt.reg.Covers(addr) {
			continue
		}
		rt.reg.Each(addr, func(id queue.ThreadID) {
			rt.fireOne(id, addr, g, &sc.inline)
		})
	}
	rt.stats.merges.Add(1)
	if rt.tel != nil {
		rt.tel.MergeLatency.Observe(telemetry.Now() - t0)
		rt.tel.DeltaOccupancy.Observe(int64(n))
	}
	u.mergeMu.Unlock()

	for _, e := range sc.inline {
		rt.runInline(e)
	}
	sc.inline = sc.inline[:0]
	rt.putScratch(sc)
	if changed > 0 && rt.sched != nil {
		// The whole merge is ONE preemption point, at its end, so seeded
		// interleavings replay regardless of how many words merged.
		rt.drain(true)
	}
}
