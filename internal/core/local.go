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
// class, a reference to the global heap, and a thread-local RNG. All malloc
// and free requests start here, and the common case — a shuffle-vector hit
// — takes no lock and does not touch the span's bitmap (slots are reserved
// in bulk at attach). It is not free of atomics, though. A small malloc
// pays one load of the hardening plane's routing flag, one load of the
// span's published virtual-span list (AddrOf), one load of the flight
// recorder's enable flag, and two adds on heap-global counters (live bytes
// and allocations). A local free pays one load of the quarantine flag,
// arena.Lookup's two page-map loads and one add on a striped lookup
// counter, one virtual-span-list load (OffsetOf), the recorder's enable
// load, and two heap-global adds (live bytes and frees).
//
// Go has no hookable thread-local storage, so applications (and the
// workload harness) hold one ThreadHeap per worker goroutine explicitly,
// or borrow one per call from the mesh package's heap pool. A ThreadHeap
// is not safe for concurrent use — that is the point of it — but ownership
// may move between goroutines as long as the hand-off synchronizes (the
// pool's lock-free free-list provides that edge). The refill counter is
// atomic so Refills can be read while the heap sits idle in a pool.
type ThreadHeap struct {
	global   *GlobalHeap
	rnd      *rng.RNG
	svs      [sizeclass.NumClasses]*shufflevec.Vector
	attached [sizeclass.NumClasses]*miniheap.MiniHeap

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

	// phys caches each attached hardened span's physical byte window (nil
	// for unhardened spans), so the fast-path canary/poison work needs no
	// VM translation — PhysSlice takes the mapping mutex, which the
	// lock-free paths must not. Refill populates it; retirement and
	// release clear it. quar is the delayed-reuse quarantine ring hardened
	// frees park in when harden.quarantine is on (see harden.go).
	phys [sizeclass.NumClasses][]byte
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
// remote-free queue: frees posted by other threads for the still-attached
// span land straight back on the vector, so a producer–consumer pipeline
// recycles the same span without ever detaching it — the malloc-slow-path
// drain point of the message-passing free protocol. Only if the vector is
// still exhausted is the old span relinquished (owner sink withdrawn
// first, unused reserved slots returned to the bitmap) and a partially
// full or fresh span attached in its place.
func (t *ThreadHeap) refill(class int) error {
	t.flushHardenPasses()
	sv := t.svs[class]
	if t.DrainRemoteFrees() > 0 && !sv.IsExhausted() {
		return nil
	}
	if old := t.attached[class]; old != nil {
		// Withdraw the owner sink before detaching: a push that already
		// loaded it either lands before our next drain (settled there) or
		// is parked for the drain-by-address fallback — never lost.
		old.SetOwner(nil)
		sv.DrainTo(old.Bitmap())
		t.attached[class] = nil
		t.phys[class] = nil
		if err := t.global.ReleaseMiniheap(old); err != nil {
			return err
		}
	}
	mh, err := t.global.AllocMiniheap(class)
	if err != nil {
		return err
	}
	t.attached[class] = mh
	// Cache the hardened span's physical window once per attachment: the
	// fast-path checks must not pay the VM translation (or its mutex) per
	// operation. Attached spans are never meshed, so the window is stable
	// until this thread detaches the span.
	t.phys[class] = nil
	if mh.Hardened() {
		t.phys[class] = t.global.physWindow(mh)
	}
	sv.Attach(mh.Bitmap())
	t.remote.reopen()
	mh.SetOwner(&t.sink)
	t.refills.Add(1)
	return nil
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
// atomic loads — instead of probing all NumClasses attached slots (and
// every virtual span of each) per free. The O(1) lookup matters most on
// misses: every non-local free used to pay the full scan before falling
// through to the global heap. The result is trustworthy without a lock:
// if it names one of our attached MiniHeaps, that MiniHeap cannot change
// under us (only this thread refills or detaches it, and attached spans
// are never meshed); any other result routes to the global path, which
// re-resolves under the owning shard lock.
//
//mesh:lockfree
func (t *ThreadHeap) freeLocal(addr uint64) (objSize int, ok bool, owner *miniheap.MiniHeap, err error) {
	mh := t.global.arena.Lookup(addr)
	if mh == nil || mh.IsLarge() {
		return 0, false, mh, nil
	}
	c := mh.SizeClass()
	if t.attached[c] != mh {
		return 0, false, mh, nil
	}
	off, err := mh.OffsetOf(addr)
	if err != nil {
		return 0, false, mh, err
	}
	if mh.Hardened() {
		if herr := t.hardenFreeLocal(c, mh, off, addr); herr != nil {
			return 0, false, mh, herr
		}
	}
	t.svs[c].Free(off)
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
		if t.attached[c] == nil {
			continue
		}
		mh := t.attached[c]
		mh.SetOwner(nil)
		sv := t.svs[c]
		sv.DrainTo(mh.Bitmap())
		t.attached[c] = nil
		t.phys[c] = nil
		if err := t.global.ReleaseMiniheap(mh); err != nil {
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

// Refills reports how many spans the heap has attached to restock an
// exhausted shuffle vector. Safe to call while the heap is parked in a
// pool.
func (t *ThreadHeap) Refills() uint64 { return t.refills.Load() }
