package mesh

import "repro/internal/core"

// This file carries the rest of the interposed libc surface (§4) on the
// public types. Allocator-level calls take a front-end heap (a stripe
// hit, a steal, or a pool borrow) and are safe for concurrent use;
// Thread-level calls run on the pinned heap. These composite operations
// use the cached heap directly rather than the magazines: their inner
// mallocs/frees are not the scalar hot path.

// Calloc allocates n objects of size bytes each, zeroed.
func (a *Allocator) Calloc(n, size int) (Ptr, error) {
	f := a.front.Acquire()
	p, err := f.Heap().Calloc(n, size)
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	return p, err
}

// Realloc resizes the object at p, copying contents if it must move (C
// realloc semantics, including Realloc(0, n) = Malloc and Realloc(p, 0) =
// Free).
func (a *Allocator) Realloc(p Ptr, size int) (Ptr, error) {
	f := a.front.Acquire()
	q, err := f.Heap().Realloc(p, size)
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	return q, err
}

// AlignedAlloc allocates size bytes aligned to align (a power of two up to
// the page size).
func (a *Allocator) AlignedAlloc(align, size int) (Ptr, error) {
	f := a.front.Acquire()
	p, err := f.Heap().AlignedAlloc(align, size)
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	return p, err
}

// UsableSize reports the usable bytes of the object at p
// (malloc_usable_size).
func (a *Allocator) UsableSize(p Ptr) (int, error) { return a.g.UsableSize(p) }

// Calloc allocates n objects of size bytes each, zeroed, on this thread.
func (t *Thread) Calloc(n, size int) (Ptr, error) { return t.th.Calloc(n, size) }

// Realloc resizes the object at p on this thread (C realloc semantics).
func (t *Thread) Realloc(p Ptr, size int) (Ptr, error) { return t.th.Realloc(p, size) }

// AlignedAlloc allocates size bytes aligned to align on this thread.
func (t *Thread) AlignedAlloc(align, size int) (Ptr, error) {
	return t.th.AlignedAlloc(align, size)
}

// UsableSize reports the usable bytes of the object at p.
func (t *Thread) UsableSize(p Ptr) (int, error) { return t.th.UsableSize(p) }

// ClassStats describes one size class's spans.
type ClassStats = core.ClassStats

// ClassStats returns per-size-class span statistics (spans, attachment,
// mesh counts, occupancy). Safe for concurrent use; counts for spans
// attached to active heaps are instantaneous snapshots.
func (a *Allocator) ClassStats() []ClassStats { return a.g.ClassStatsSnapshot() }

// LargeStats summarizes large-object allocations.
type LargeStats = core.LargeStats

// LargeObjectStats returns the current large-object census.
func (a *Allocator) LargeObjectStats() LargeStats { return a.g.LargeStatsSnapshot() }

// CheckIntegrity validates heap invariants; see core.GlobalHeap.
// CheckIntegrity. Intended for tests and debugging. Also reachable as
// the debug.check_invariants control, which returns the violation text
// (or "") instead of an error.
func (a *Allocator) CheckIntegrity() error { return a.g.CheckIntegrity() }
