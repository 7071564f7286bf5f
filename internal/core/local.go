package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/harden"
	"repro/internal/miniheap"
	"repro/internal/rng"
	"repro/internal/shufflevec"
	"repro/internal/sizeclass"
	"repro/internal/trace"
)

// ThreadHeap is a thread-local heap (§4.3): one shuffle vector per size
// class over the spans attached for that class, a reference to the global
// heap, and a thread-local RNG. All malloc and free requests start here,
// and the common case — a shuffle-vector hit — takes no lock and does not
// touch the span's bitmap (slots are reserved in bulk at attach). It is not
// free of atomics, though. A small malloc pays one load of the hardening
// plane's routing flag, one load of the span's published virtual-span list
// (AddrOf), one load of the flight recorder's enable flag, and two adds on
// heap-global counters (live bytes and allocations). A local free pays one
// load of the quarantine flag, arena.Lookup's two page-map loads and one
// add on a striped lookup counter, one load of the span's owner sink (the
// span is local when the sink is this heap's), one virtual-span-list load
// (OffsetOf), the recorder's enable load, and two heap-global adds (live
// bytes and frees).
//
// Go has no hookable thread-local storage, so applications (and the
// workload harness) hold one ThreadHeap per worker goroutine explicitly,
// or borrow one per call from the mesh package's heap pool. A ThreadHeap
// is not safe for concurrent use — that is the point of it — but ownership
// may move between goroutines as long as the hand-off synchronizes (the
// pool's lock-free free-list provides that edge). The refill counter is
// atomic so Refills can be read while the heap sits idle in a pool.
type ThreadHeap struct {
	global *GlobalHeap
	rnd    *rng.RNG
	svs    [sizeclass.NumClasses]*shufflevec.Vector
	// attached[c] lists the spans attached for class c. A span's index in
	// it is the span half of its shuffle-vector entries and the index it
	// publishes with its owner sink (miniheap.SetOwner). The list is sized
	// once, at the class's first refill, for the most spans a refill can
	// gather (maxGather), so refills append without allocating.
	attached [sizeclass.NumClasses][]*miniheap.MiniHeap

	// scratch and ownerScratch back FreeBatch's non-local partition
	// between calls so the batch path stays allocation free: addresses and
	// the page-map owners freeLocal resolved for them, passed to the
	// global heap so batch routing needs no second lookup. offScratch
	// backs queueRemoteBatch's slot-index runs the same way. Owned by
	// whoever owns the heap.
	scratch      []uint64
	ownerScratch []*miniheap.MiniHeap
	offScratch   []int

	// remote is this heap's MPSC remote-free queue (see remote.go): other
	// threads post frees of objects on our attached spans here instead of
	// taking shard locks, and we drain at refill, Done, and pool
	// park/unpark. sink boxes it as a miniheap.RemoteSink once for the
	// heap's lifetime; sink's address is what each attached MiniHeap
	// publishes, so attaching a span allocates nothing.
	remote remoteQueue
	sink   miniheap.RemoteSink

	// phys[c][i] caches the physical byte window of attached[c][i] when
	// that span is hardened (nil otherwise), so the fast-path canary/poison
	// work needs no VM translation — PhysSlice takes the mapping mutex,
	// which the lock-free paths must not. Refill populates it; retirement
	// and release clear it. quar is the delayed-reuse quarantine ring
	// hardened frees park in when harden.quarantine is on (see harden.go).
	phys [sizeclass.NumClasses][][]byte
	quar harden.Ring

	// hardenPasses batches this thread's clean canary/poison verifications
	// (plain field — the heap is single-owner), flushed to the plane at
	// refill and Done so the hardened fast paths pay no atomic counter
	// traffic. Violations never batch; they publish immediately.
	hardenPasses uint64

	// tr is this heap's flight-recorder source (sampled alloc/free and
	// remote-queue events), keyed by the heap id.
	tr *trace.Source

	refills atomic.Uint64
}

// NewThreadHeap creates a thread-local heap bound to g. id distinguishes
// the thread's RNG stream.
func NewThreadHeap(g *GlobalHeap, id uint64) *ThreadHeap {
	t := &ThreadHeap{
		global: g,
		rnd:    rng.New(g.cfg.Seed*0x9e3779b9 + id),
		tr:     g.tracer.NewSource(uint32(id)),
	}
	t.sink = &t.remote
	for c := range t.svs {
		t.svs[c] = shufflevec.New(t.rnd, g.cfg.Randomize)
	}
	return t
}

// Malloc allocates size bytes and returns the object's virtual address.
// Requests above the size-class maximum go to the global heap (§4.4.3);
// everything else is served from the class's shuffle vector, refilling
// from the global heap when exhausted (§3.1).
func (t *ThreadHeap) Malloc(size int) (uint64, error) {
	class, ok := t.allocClassFor(size)
	if !ok {
		if size <= 0 {
			return 0, fmt.Errorf("core: invalid allocation size %d", size)
		}
		return t.global.AllocLarge(size)
	}
	return t.mallocFromClass(class)
}

// refill restocks an exhausted shuffle vector (§3.1). It first drains the
// remote-free queue: frees posted by other threads for still-attached
// spans land straight back on the vector, so a producer–consumer pipeline
// recycles the same spans without ever detaching them — the
// malloc-slow-path drain point of the message-passing free protocol. Only
// if the vector is still exhausted are the class's spans relinquished
// (releaseClass) and replaced: attachSpans gathers several partially full
// spans, or commits a fresh one, and the vector reserves every free slot
// of each and is shuffled as a whole.
func (t *ThreadHeap) refill(class int) error {
	t.flushHardenPasses()
	sv := t.svs[class]
	if t.DrainRemoteFrees() > 0 && !sv.IsExhausted() {
		return nil
	}
	if err := t.releaseClass(class); err != nil {
		return err
	}
	if t.phys[class] == nil {
		n := maxGather(class)
		t.attached[class] = make([]*miniheap.MiniHeap, 0, n)
		t.phys[class] = make([][]byte, n)
	}
	spans, err := t.global.attachSpans(class, t.attached[class])
	if err != nil {
		return err
	}
	t.attached[class] = spans
	for i, mh := range spans {
		// Cache each hardened span's physical window once per attachment:
		// the fast-path checks must not pay the VM translation (or its
		// mutex) per operation. Attached spans are never meshed, so the
		// window is stable until this thread detaches the span.
		var window []byte
		if mh.Hardened() {
			window = t.global.physWindow(mh)
		}
		t.phys[class][i] = window
		sv.Reserve(i, mh.Bitmap())
	}
	sv.Shuffle()
	t.remote.reopen()
	for i, mh := range spans {
		mh.SetOwner(&t.sink, i)
	}
	t.refills.Add(1)
	return nil
}

// detachClass withdraws every attached span of class from this heap: each
// owner sink is withdrawn first — a push that already loaded it either
// lands before our next drain (settled there) or is parked for the
// drain-by-address fallback, never lost — then the span's reserved slots
// go back to its bitmap and its fast-path handles are cleared. It returns
// the spans for the caller to hand to the global heap; the slice aliases
// the class's attached list, so the caller clears it once done.
func (t *ThreadHeap) detachClass(class int) []*miniheap.MiniHeap {
	spans := t.attached[class]
	sv := t.svs[class]
	for i, mh := range spans {
		mh.SetOwner(nil, 0)
		sv.DrainTo(i, mh.Bitmap())
		t.phys[class][i] = nil
	}
	t.attached[class] = spans[:0]
	return spans
}

// releaseClass returns every attached span of class to the global heap,
// all under one shard-lock hold.
func (t *ThreadHeap) releaseClass(class int) error {
	spans := t.detachClass(class)
	if len(spans) == 0 {
		return nil
	}
	err := t.global.releaseSpans(spans)
	clear(spans) // don't pin released MiniHeaps until the next refill
	return err
}

// Free releases the object at addr. Frees of objects in one of this
// thread's attached spans are handled locally by the shuffle vector
// (Figure 4). Frees of objects on spans attached to *another* live heap
// are message-passed: posted to the owner's lock-free queue (remote.go)
// for it to recycle at its next drain point — no shard lock taken.
// Everything else is passed to the global heap (§3.2), reusing the owner
// freeLocal already resolved so a remote free pays one routing lookup,
// not two.
func (t *ThreadHeap) Free(addr uint64) error {
	if t.global.harden.QuarantineEnabled() {
		if handled, qerr := t.quarantineLocal(addr); handled {
			return qerr
		}
	}
	size, ok, owner, err := t.freeLocal(addr)
	if err != nil {
		return err
	}
	if ok {
		t.global.noteLocalFree(size)
		t.tr.Sampled(trace.EvFree, addr, uint64(size))
		return nil
	}
	if t.tryQueueRemote(addr, owner) {
		return nil
	}
	return t.global.freeResolved(addr, owner)
}

// freeLocal attempts the shuffle-vector fast path: if addr lies in one of
// this heap's attached spans, the offset is pushed back onto the class's
// shuffle vector and the object size is returned for accounting. ok is
// false when the address is not local; owner is then the (possibly nil,
// possibly stale) MiniHeap the page map resolved, so the caller can route
// the free to the right shard without a second lookup. err reports an
// interior or out-of-range pointer inside an attached span.
//
// The owner is resolved through the arena's lock-free page map — two
// atomic loads — and recognised as local by its published owner sink —
// one more — instead of probing every attached span (and every virtual
// span of each) per free. The result is trustworthy without a lock: if the
// sink is ours, that MiniHeap cannot change under us (only this thread
// refills or detaches it, and attached spans are never meshed), and the
// index it published names its place in our attached list; any other
// result routes to the global path, which re-resolves under the owning
// shard lock. Large spans never publish a sink.
//
//mesh:lockfree
func (t *ThreadHeap) freeLocal(addr uint64) (objSize int, ok bool, owner *miniheap.MiniHeap, err error) {
	mh := t.global.arena.Lookup(addr)
	if mh == nil || !mh.OwnedBy(&t.sink) {
		return 0, false, mh, nil
	}
	c, i := mh.SizeClass(), mh.OwnerIndex()
	off, err := mh.OffsetOf(addr)
	if err != nil {
		return 0, false, mh, err
	}
	if mh.Hardened() {
		if herr := t.hardenFreeLocal(c, i, mh, off, addr); herr != nil {
			return 0, false, mh, herr
		}
	}
	t.svs[c].Free(i, off)
	return mh.ObjectSize(), true, mh, nil
}

// Done relinquishes every attached span back to the global heap; call it
// when the owning goroutine finishes (thread exit in the paper's model).
// It drains before releasing: the remote-free queue is closed — so no free
// can be parked on a heap that will never drain again; late pushers see
// the closed queue and fall back to the locked path — and the remnant is
// settled while the spans are still attached. The queue reopens if the
// heap attaches a span again (refill).
func (t *ThreadHeap) Done() error {
	// Flush on the way out: the drains below run the hardened free
	// protocol themselves and batch more passes.
	defer t.flushHardenPasses()
	t.drainRemote(t.remote.close())
	// Settle the quarantine after the remote queue (its drain may park
	// more entries) and before the spans release, so parked frees settle
	// on the cheap attached path.
	t.drainQuarantine()
	for c := range t.attached {
		if err := t.releaseClass(c); err != nil {
			return err
		}
	}
	return nil
}

// flushHardenPasses publishes the thread's batched clean-verification
// count to the hardening plane. Called on the refill slow path and at
// Done, so stats.harden.passes lags by at most one attachment's worth of
// operations mid-run and is exact at quiescence.
func (t *ThreadHeap) flushHardenPasses() {
	if t.hardenPasses != 0 {
		t.global.harden.NotePassN(t.hardenPasses)
		t.hardenPasses = 0
	}
}

// Refills reports how many times the heap has attached spans to restock
// an exhausted shuffle vector (one refill may gather several spans). Safe
// to call while the heap is parked in a pool.
func (t *ThreadHeap) Refills() uint64 { return t.refills.Load() }
