package mesh

import (
	"errors"
	"sync/atomic"

	"repro/internal/core"
)

// heapPool is the allocator's cold-path heap store: the per-stripe front
// end (internal/frontend) serves Allocator-level traffic from its parked
// fronts — a miss on the caller's stripe steals a front parked on another
// — and the pool hands out a core.ThreadHeap only when every stripe is
// empty, and takes heaps back when every stripe is full or on front-end
// flushes. Either way a heap has exactly one owner at a time (the
// single-owner invariant meshing relies on, §4.5.3).
//
// The store is a lock-free, non-blocking Treiber stack. Each push
// allocates a fresh node; Go's garbage collector makes the stack
// ABA-safe, because a popped node cannot be recycled at the same address
// while another goroutine still holds a pointer to it. Nodes are
// deliberately NOT recycled through a sync.Pool: reusing node memory
// would reintroduce the ABA hazard, and parking whole ThreadHeaps in a
// sync.Pool would let the collector drop them, stranding their attached
// spans (attached MiniHeaps are never meshing candidates, so those spans'
// RSS would never be reclaimed). The atomic hand-offs also provide the
// happens-before edge that transfers heap ownership between goroutines.
//
// When the stack is empty a new heap is created — heaps are cheap (a few
// KiB of shuffle-vector state) and the population converges to the peak
// concurrency of the caller.
type heapPool struct {
	g      *core.GlobalHeap
	nextID *atomic.Uint64

	head atomic.Pointer[heapNode]

	idle    atomic.Int64  // heaps currently parked in the pool
	created atomic.Uint64 // heaps ever created by this pool

	// borrows/returns count hand-offs through the pool (stats.pool.*):
	// cold starts, retirements on a full stripe array, and flushes. Stripe
	// hits and steals count under stats.frontend.* instead, so
	// borrows-per-op measures how often the front end fails to absorb a
	// call.
	borrows atomic.Uint64
	returns atomic.Uint64
}

type heapNode struct {
	th   *core.ThreadHeap
	next *heapNode
}

func newHeapPool(g *core.GlobalHeap, nextID *atomic.Uint64) *heapPool {
	return &heapPool{g: g, nextID: nextID}
}

// acquire returns an idle heap, creating one if the pool is empty. The
// caller owns the heap until it calls release. Unparking drains the
// heap's remote-free queue: message-passed frees that accumulated while
// it sat idle go back onto its shuffle vectors before the borrower's
// first allocation (the unpark drain point of the remote-free protocol).
//
//mesh:lockfree
func (p *heapPool) acquire() *core.ThreadHeap {
	p.borrows.Add(1)
	for {
		n := p.head.Load()
		if n == nil {
			p.created.Add(1)
			return core.NewThreadHeap(p.g, p.nextID.Add(1)) //mesh:slowpath — empty pool: creating a heap allocates by design
		}
		if p.head.CompareAndSwap(n, n.next) {
			p.idle.Add(-1)
			n.th.DrainRemoteFrees() //mesh:slowpath — the unpark drain point; settles queued frees before handing the heap out
			return n.th
		}
	}
}

// release parks a heap for reuse, publishing every write the owner made.
// Parking drains the remote-free queue first (the park drain point):
// frees posted during the borrow are settled while we still own the heap,
// so a heap never parks carrying work another borrower already paid for.
// Pushes that land between the drain and the park simply wait for the
// next acquire's drain — the queue stays open while parked, because the
// heap's attached spans remain attached (and thus never meshed).
//
//mesh:lockfree
func (p *heapPool) release(th *core.ThreadHeap) {
	p.returns.Add(1)
	th.DrainRemoteFrees()  //mesh:slowpath — the park drain point; settles queued frees while we still own the heap
	n := &heapNode{th: th} //mesh:slowpath — one fresh node per push (ABA safety)
	for {
		n.next = p.head.Load()
		if p.head.CompareAndSwap(n.next, n) {
			p.idle.Add(1)
			return
		}
	}
}

// flush empties the pool, relinquishing every idle heap's attached spans
// to the global heap so they become meshing candidates again. Heaps
// currently borrowed by in-flight calls are untouched; they return to the
// (now empty) pool as those calls finish.
func (p *heapPool) flush() error {
	var errs []error
	for n := p.head.Swap(nil); n != nil; n = n.next {
		p.idle.Add(-1)
		if err := n.th.Done(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
