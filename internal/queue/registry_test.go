package queue

import (
	"sort"
	"testing"

	"dtt/internal/mem"
)

// The registry has one read: Snapshot pins an index, then Each and
// Overlapping resolve against it. These tests pin both against a naive
// scan of the attachment list, including the match order contract (index
// order = sorted by range start).

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	// Overlapping ranges with distinct starts so index order is
	// deterministic: addr 40 matches threads 1 and 2, addr 300 matches 3.
	for _, a := range []Attachment{
		{Thread: 1, Lo: 0, Hi: 64},
		{Thread: 2, Lo: 32, Hi: 128},
		{Thread: 3, Lo: 256, Hi: 320},
	} {
		if err := r.Attach(a.Thread, a.Lo, a.Hi); err != nil {
			t.Fatalf("Attach(%+v): %v", a, err)
		}
	}
	return r
}

// naiveMatches is the reference resolution: every attachment covering
// addr, in order of range start.
func naiveMatches(r *Registry, addr mem.Addr) []ThreadID {
	atts := append([]Attachment(nil), r.atts...)
	sort.Slice(atts, func(i, j int) bool { return atts[i].Lo < atts[j].Lo })
	var out []ThreadID
	for _, a := range atts {
		if addr >= a.Lo && addr < a.Hi {
			out = append(out, a.Thread)
		}
	}
	return out
}

// lookup returns the threads a fresh snapshot attaches to addr, in Each
// order.
func lookup(r *Registry, addr mem.Addr) []ThreadID {
	return matches(r.Snapshot(), addr)
}

func matches(s Snapshot, addr mem.Addr) []ThreadID {
	var got []ThreadID
	s.Each(addr, func(id ThreadID) { got = append(got, id) })
	return got
}

func eqIDs(a, b []ThreadID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegistryReadsAgreeWithNaiveScan(t *testing.T) {
	r := testRegistry(t)
	s := r.Snapshot()
	for addr := mem.Addr(0); addr < 384; addr += 8 {
		want := naiveMatches(r, addr)
		var got []ThreadID
		if n := s.Each(addr, func(id ThreadID) { got = append(got, id) }); n != len(want) || !eqIDs(got, want) {
			t.Fatalf("Snapshot.Each(%d) = %v (n=%d), want %v", addr, got, n, want)
		}
	}
}

// TestRegistrySnapshotPinsOneInstant: a pinned snapshot keeps resolving
// the attachment set it was taken against, while fresh snapshots see
// mutations — the property batched stores rely on so a
// concurrent Attach lands entirely before or entirely after a batch.
func TestRegistrySnapshotPinsOneInstant(t *testing.T) {
	r := testRegistry(t)
	old := r.Snapshot()
	if err := r.Attach(4, 512, 576); err != nil {
		t.Fatal(err)
	}
	if len(matches(old, 512)) != 0 {
		t.Fatal("pinned snapshot sees an attachment made after it was taken")
	}
	if len(lookup(r, 512)) != 1 {
		t.Fatal("fresh snapshot misses the new attachment")
	}
	if r.Detach(4) != 1 {
		t.Fatal("Detach(4) did not remove the attachment")
	}
}

func TestRegistryOverlapping(t *testing.T) {
	r := testRegistry(t)
	s := r.Snapshot()
	for _, tc := range []struct {
		lo, hi mem.Addr
		want   []ThreadID
	}{
		{0, 8, []ThreadID{1}},         // inside the first range only
		{40, 48, []ThreadID{1, 2}},    // in the overlap of 1 and 2
		{0, 384, []ThreadID{1, 2, 3}}, // spans everything
		{128, 256, nil},               // the gap between 2 and 3
		{1 << 20, 1 << 21, nil},       // entirely past the index bounds
		{200, 512, []ThreadID{3}},     // straddles range 3
	} {
		var got []ThreadID
		for _, a := range s.Overlapping(tc.lo, tc.hi, nil) {
			got = append(got, a.Thread)
		}
		if !eqIDs(got, tc.want) {
			t.Errorf("Overlapping(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestRegistryEmptyAndErrors: the empty index rejects every probe with
// the bounds pre-check, inverted ranges are attach errors, and detaching
// the last attachment returns the registry to the empty index.
func TestRegistryEmptyAndErrors(t *testing.T) {
	r := NewRegistry()
	if len(lookup(r, 0)) != 0 {
		t.Fatal("empty registry covers an address")
	}
	if got := r.Snapshot().Overlapping(0, 1<<30, nil); len(got) != 0 {
		t.Fatalf("empty registry Overlapping = %v", got)
	}
	if err := r.Attach(1, 64, 64); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := r.Attach(1, 128, 64); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := r.Attach(1, 0, 64); err != nil {
		t.Fatal(err)
	}
	if len(r.atts) != 1 || len(lookup(r, 8)) != 1 {
		t.Fatalf("%d attachments, lookup(8) = %v after one attach", len(r.atts), lookup(r, 8))
	}
	if n := r.Detach(1); n != 1 {
		t.Fatalf("Detach removed %d, want 1", n)
	}
	if r.Detach(1) != 0 {
		t.Fatal("second Detach removed something")
	}
	if len(lookup(r, 8)) != 0 || len(r.atts) != 0 {
		t.Fatal("registry not empty after detaching everything")
	}
}
