package mesh

// The batch API amortizes per-call overhead for heavy-traffic callers: an
// Allocator-level batch takes one front-end heap for the whole batch
// instead of per object, accounting atomics are coalesced, and non-local
// frees take the global-heap lock once per batch instead of once per
// object. Allocation policy is unchanged — each object still comes off a
// shuffle vector in randomized order, so batches are exactly as meshable
// as the equivalent scalar calls.

// MallocBatch allocates one object per entry of sizes using a single
// heap acquisition. It is all-or-nothing: on error, objects allocated
// earlier in the batch are freed again and no addresses are returned.
// Safe for concurrent use.
func (a *Allocator) MallocBatch(sizes []int) ([]Ptr, error) {
	f := a.front.Acquire()
	out, err := f.Heap().MallocBatch(sizes, make([]uint64, 0, len(sizes)))
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FreeBatch releases every object in ptrs using a single heap
// acquisition; non-local frees inside the batch share one global-lock
// acquisition. Errors for individual pointers are joined; valid pointers
// in the same batch are still freed. Safe for concurrent use.
func (a *Allocator) FreeBatch(ptrs []Ptr) error {
	f := a.front.Acquire()
	err := f.Heap().FreeBatch(ptrs)
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// MallocBatch allocates one object per entry of sizes from this thread's
// local heap, coalescing the accounting updates. All-or-nothing like
// Allocator.MallocBatch.
func (t *Thread) MallocBatch(sizes []int) ([]Ptr, error) {
	out, err := t.th.MallocBatch(sizes, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FreeBatch releases every object in ptrs; frees local to this thread's
// spans stay on the shuffle-vector fast path, the rest share one
// global-lock acquisition.
func (t *Thread) FreeBatch(ptrs []Ptr) error { return t.th.FreeBatch(ptrs) }
