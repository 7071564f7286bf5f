package core

import (
	"fmt"

	"repro/internal/sizeclass"
	"repro/internal/trace"
)

// This file carries the ThreadHeap entry points the per-stripe front end
// (internal/frontend) builds its magazine caches on. The front end lives
// above this package — it holds cached ThreadHeaps and arrays of object
// addresses — so everything it needs from a heap is exported here: the
// size-class routing decision for the magazine index, and an exact-class
// batch fill whose objects all land in one magazine.

// AllocClass maps a request size to the size class that would serve it —
// including the hardening plane's canary reservation, so the front end's
// magazine index always agrees with the class Malloc would pick. ok is
// false for non-positive and large requests.
//
//mesh:lockfree
func (t *ThreadHeap) AllocClass(size int) (int, bool) {
	return t.allocClassFor(size)
}

// MallocClassBatch allocates n objects from exactly size class class,
// appending their addresses to out (which must have capacity; the front
// end passes a view of its fixed magazine array) and returning the
// extended slice. It is the magazine-fill engine: the shuffle-vector
// policy, hardening checks, and refill drain points are identical to
// Malloc, but the accounting updates are coalesced to one pair of atomics
// for the whole batch. All-or-nothing like MallocBatch: on error every
// object already allocated by this call is freed again.
func (t *ThreadHeap) MallocClassBatch(class, n int, out []uint64) ([]uint64, error) {
	if class < 0 || class >= sizeclass.NumClasses {
		return out, fmt.Errorf("core: invalid size class %d", class)
	}
	start := len(out)
	var err error
	for len(out)-start < n {
		var addr uint64
		if addr, err = t.take(class); err != nil {
			break
		}
		out = append(out, addr)
		// Magazine-served objects never pass the scalar Malloc, so this
		// is their only chance to land in the sampled alloc stream.
		t.tr.Sampled(trace.EvAlloc, addr, uint64(sizeclass.Size(class)))
	}
	done := len(out) - start
	t.global.noteAllocN(int64(done*sizeclass.Size(class)), uint64(done))
	if err != nil {
		_ = t.FreeBatch(out[start:])
		return out[:start], err
	}
	return out, nil
}
