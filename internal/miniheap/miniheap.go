// Package miniheap implements MiniHeaps, the per-span metadata objects at
// the center of Mesh's heap organization (§4.1 of the paper).
//
// A MiniHeap tracks one physical span: its object size, span length, an
// atomic allocation bitmap, and the list of virtual spans currently mapped
// onto the physical span. A freshly allocated MiniHeap has exactly one
// virtual span; each successful mesh adds the source MiniHeap's virtual
// spans to the destination's list. MiniHeaps are either attached (owned by
// one thread-local heap, the only state in which new objects are allocated
// from them) or detached (reachable only from the global heap, the only
// state in which they are meshing candidates — spans have a single owner,
// §4.5.3).
package miniheap

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/sizeclass"
	"repro/internal/vm"
)

// RemoteSink accepts message-passed remote frees on behalf of the thread
// heap that currently has a MiniHeap attached (the lock-free free queues of
// the core package). Implementations must be safe for concurrent use by any
// number of pushers. A false return means the sink is closed (the owner is
// relinquishing its spans); the caller must fall back to the global heap's
// locked free path.
type RemoteSink interface {
	// PushRemote posts one allocated slot of mh for the owning heap to
	// recycle on its own schedule.
	//
	//mesh:lockfree
	PushRemote(mh *MiniHeap, off int) bool
	// PushRemoteBatch posts a batch of allocated slots of mh, returning how
	// many were accepted; slots past the returned count were rejected
	// because the sink closed mid-batch.
	//
	//mesh:lockfree
	PushRemoteBatch(mh *MiniHeap, offs []int) int
}

// MiniHeap is the metadata record for one physical span. Bitmap operations
// are safe for concurrent use (remote frees); the virtual-span list is an
// atomically published immutable snapshot, so geometry queries (OffsetOf,
// AddrOf, Contains, Spans) are likewise safe from any goroutine — a reader
// holding a stale MiniHeap reference sees a consistent (if slightly old)
// snapshot, never a torn slice. Remaining structural fields (physical span
// id, bin membership) are guarded by the owning shard lock during meshing.
type MiniHeap struct {
	id        uint64 // unique, for deterministic ordering and debugging
	sizeClass int    // -1 for large (page-multiple) singleton MiniHeaps
	objSize   int
	spanPages int
	objCount  int

	// objRecip is the precomputed reciprocal of objSize for the
	// multiply-shift division on the free fast path (tcmalloc-style);
	// zero means the span geometry is outside the exactness bound and
	// OffsetOf falls back to hardware division (only very large
	// singleton spans).
	objRecip uint64

	bm   *bitmap.Bitmap
	phys vm.PhysID

	// spans atomically publishes the immutable list of base virtual
	// addresses mapped onto phys. The slice behind the pointer is never
	// mutated: AbsorbSpans installs a fresh copy, so lock-free readers on
	// the remote-free path can keep using an old snapshot (virtual spans
	// are only ever added to a live MiniHeap, never removed). spans[0] is
	// the span new allocations are addressed through.
	spans atomic.Pointer[[]uint64]

	// owner is the remote-free sink of the thread heap this MiniHeap is
	// attached to, atomically published on attach and cleared before
	// detach. A nil owner routes cross-thread frees to the global heap's
	// locked path; the owner itself recognises its spans by it.
	owner atomic.Pointer[RemoteSink]
	// ownerIdx is the span's index in its owner's attached list for the
	// class. Plain: written by SetOwner before the sink is published, and
	// read only by the owner once OwnedBy has confirmed it.
	ownerIdx int

	attached atomic.Bool
	pinned   atomic.Bool

	// retired marks a span the hardening layer found corrupt and
	// contained: its VM translation is unmapped, it sits in no occupancy
	// bin, it is never meshed, and frees routed to it surface a typed
	// heap-corruption error. One-way — a retired span never serves again.
	retired atomic.Bool

	// hardened records whether the span was minted with the hardening
	// protocol (trailing canaries, poison-on-free). Written once before
	// the span is published through the page map, then read-only, so
	// plain loads on the fast paths are race-free.
	hardened bool

	// slots are the MiniHeap's intrusive memberships in the global heap's
	// span sets, indexed by BinSlot and RegSlot. Plain fields: the owning
	// class's shard lock guards them, as it guards the sets themselves.
	slots [numSlots]Slot
}

// Slot records a MiniHeap's membership in one span set of the global
// heap: Tag names the set holding it (0 for none) and Pos is its index in
// that set's slice, so add, remove and membership tests need no lookup.
type Slot struct {
	Tag uint8
	Pos int
}

// Membership slot indexes: each MiniHeap belongs to at most one set of
// each kind at a time.
const (
	BinSlot = iota // an occupancy bin or the full set
	RegSlot        // the class registry
	numSlots
)

var nextID atomic.Uint64

// recipShift is the fixed-point precision of the reciprocal multiply.
const recipShift = 32

// reciprocal returns the fixed-point reciprocal that makes
// (rel * reciprocal) >> recipShift equal rel / objSize for every
// rel < spanBytes, or 0 when the guarantee does not hold.
//
// With m = ceil(2^N / d), m*d = 2^N + r for some 0 <= r < d, so
// rel*m/2^N = rel/d + rel*r/(d*2^N) and the error term stays below 1/d
// whenever rel*d < 2^N — then the floor is exact for every residue. All
// size-classed spans satisfy spanBytes*objSize < 2^32 by construction
// (spanBytes <= 128 KiB, objSize <= 16 KiB); only large singleton spans of
// 16+ pages fall back to division, where the quotient is taken once per
// whole-object free anyway.
func reciprocal(objSize, spanBytes int) uint64 {
	if uint64(spanBytes)*uint64(objSize) >= 1<<recipShift {
		return 0
	}
	return (1<<recipShift + uint64(objSize) - 1) / uint64(objSize)
}

// New creates a MiniHeap for a size-classed span backed by physical span
// phys and mapped at virtual base vbase.
func New(class int, vbase uint64, phys vm.PhysID) *MiniHeap {
	m := &MiniHeap{
		id:        nextID.Add(1),
		sizeClass: class,
		objSize:   sizeclass.Size(class),
		spanPages: sizeclass.SpanPages(class),
		objCount:  sizeclass.ObjectCount(class),
		objRecip:  reciprocal(sizeclass.Size(class), sizeclass.SpanPages(class)*vm.PageSize),
		bm:        bitmap.New(sizeclass.ObjectCount(class)),
		phys:      phys,
	}
	m.spans.Store(&[]uint64{vbase})
	return m
}

// NewLarge creates a singleton MiniHeap accounting for one large object
// occupying pages whole pages (§4.4.3). Large MiniHeaps are never meshed.
func NewLarge(pages int, vbase uint64, phys vm.PhysID) *MiniHeap {
	mh := &MiniHeap{
		id:        nextID.Add(1),
		sizeClass: -1,
		objSize:   pages * vm.PageSize,
		spanPages: pages,
		objCount:  1,
		objRecip:  reciprocal(pages*vm.PageSize, pages*vm.PageSize),
		bm:        bitmap.New(1),
		phys:      phys,
	}
	mh.spans.Store(&[]uint64{vbase})
	mh.bm.TryToSet(0)
	return mh
}

// ID returns the MiniHeap's unique id.
func (m *MiniHeap) ID() uint64 { return m.id }

// Slot returns the membership slot k (BinSlot or RegSlot) for the global
// heap's span sets to maintain. Caller holds the owning shard lock.
func (m *MiniHeap) Slot(k int) *Slot { return &m.slots[k] }

// SizeClass returns the size-class index, or -1 for large objects.
//
//mesh:lockfree
func (m *MiniHeap) SizeClass() int { return m.sizeClass }

// IsLarge reports whether this is a large-object singleton MiniHeap.
//
//mesh:lockfree
func (m *MiniHeap) IsLarge() bool { return m.sizeClass < 0 }

// ObjectSize returns the size in bytes of each object slot.
//
//mesh:lockfree
func (m *MiniHeap) ObjectSize() int { return m.objSize }

// SpanPages returns the span length in pages.
//
//mesh:lockfree
func (m *MiniHeap) SpanPages() int { return m.spanPages }

// SpanBytes returns the span length in bytes.
//
//mesh:lockfree
func (m *MiniHeap) SpanBytes() int { return m.spanPages * vm.PageSize }

// ObjectCount returns the number of object slots in the span.
func (m *MiniHeap) ObjectCount() int { return m.objCount }

// Bitmap exposes the allocation bitmap.
//
//mesh:lockfree
func (m *MiniHeap) Bitmap() *bitmap.Bitmap { return m.bm }

// Phys returns the backing physical span.
func (m *MiniHeap) Phys() vm.PhysID { return m.phys }

// SetPhys repoints the MiniHeap at a new physical span; only meshing (under
// the global lock) uses this.
func (m *MiniHeap) SetPhys(p vm.PhysID) { m.phys = p }

// Spans returns the current snapshot of virtual spans mapped onto the
// physical span. The slice must not be mutated by callers. Safe to call
// from any goroutine; a stale snapshot is still internally consistent.
func (m *MiniHeap) Spans() []uint64 { return *m.spans.Load() }

// SpanStart returns the primary virtual base address — the one used to
// mint addresses for new allocations.
func (m *MiniHeap) SpanStart() uint64 { return (*m.spans.Load())[0] }

// AbsorbSpans appends the virtual spans of a meshed-away source MiniHeap,
// publishing a fresh snapshot so concurrent lock-free readers keep a
// consistent view. Only meshing (under the owning shard lock) calls this,
// so loads below need no CAS loop.
func (m *MiniHeap) AbsorbSpans(src *MiniHeap) {
	cur, add := *m.spans.Load(), *src.spans.Load()
	merged := make([]uint64, 0, len(cur)+len(add))
	merged = append(append(merged, cur...), add...)
	m.spans.Store(&merged)
}

// MeshCount returns the number of virtual spans mapped to this MiniHeap's
// physical span (1 means never meshed).
func (m *MiniHeap) MeshCount() int { return len(*m.spans.Load()) }

// SetOwner publishes (or, with nil, withdraws) the remote-free sink of the
// thread heap this MiniHeap is attached to, together with idx, the span's
// index in that heap's attached list (ignored on withdrawal). The owning
// heap stores the sink after attaching and clears it before detaching, so
// a non-nil load proves the MiniHeap was attached at the moment of the
// load. The sink comes boxed: the owner keeps one interface value for its
// lifetime and passes its address, so publishing on every refill
// allocates nothing.
func (m *MiniHeap) SetOwner(s *RemoteSink, idx int) {
	if s != nil {
		m.ownerIdx = idx
	}
	m.owner.Store(s)
}

// OwnedBy reports whether s is the published owner sink: one atomic load,
// which is how a thread heap recognises a free on its own attached span.
//
//mesh:lockfree
func (m *MiniHeap) OwnedBy(s *RemoteSink) bool { return m.owner.Load() == s }

// OwnerIndex returns the index SetOwner published with the sink. Only the
// owner may call it, after OwnedBy has confirmed ownership.
//
//mesh:lockfree
func (m *MiniHeap) OwnerIndex() int { return m.ownerIdx }

// Owner returns the currently published remote-free sink, or nil when the
// MiniHeap is detached (or its owner does not accept message-passed frees).
//
//mesh:lockfree
func (m *MiniHeap) Owner() RemoteSink {
	p := m.owner.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Attach marks the MiniHeap as owned by a thread-local heap. It panics on
// double attach, which would violate the single-owner invariant (§4.5.3).
func (m *MiniHeap) Attach() {
	if !m.attached.CompareAndSwap(false, true) {
		panic("miniheap: double attach")
	}
}

// Detach releases thread ownership.
func (m *MiniHeap) Detach() {
	if !m.attached.CompareAndSwap(true, false) {
		panic("miniheap: detach of unattached MiniHeap")
	}
}

// IsAttached reports whether a thread-local heap owns this MiniHeap.
func (m *MiniHeap) IsAttached() bool { return m.attached.Load() }

// Pin marks the MiniHeap as claimed by an in-flight concurrent mesh
// (§4.5.2): from write-protect until the page-table remap it sits in no
// occupancy bin, must not be attached or re-filed by frees, and is not a
// candidate for any other mesh. It panics on double pin — a pair is owned
// by exactly one meshing slice.
func (m *MiniHeap) Pin() {
	if !m.pinned.CompareAndSwap(false, true) {
		panic("miniheap: double pin")
	}
}

// Unpin releases the meshing claim.
func (m *MiniHeap) Unpin() {
	if !m.pinned.CompareAndSwap(true, false) {
		panic("miniheap: unpin of unpinned MiniHeap")
	}
}

// IsPinned reports whether an in-flight mesh owns this MiniHeap.
func (m *MiniHeap) IsPinned() bool { return m.pinned.Load() }

// SetHardened marks the span as minted under the hardening protocol. It
// must be called before the span is published through the page map —
// Hardened is read with a plain load on the malloc/free fast paths, and
// the page map's atomic slot store is what orders the write.
func (m *MiniHeap) SetHardened() { m.hardened = true }

// Hardened reports whether the span carries canaries and poison.
//
//mesh:lockfree
func (m *MiniHeap) Hardened() bool { return m.hardened }

// Retire marks the span as corrupt-and-contained. Idempotent: it reports
// whether this call was the one that retired the span, so exactly one
// caller performs the containment bookkeeping.
func (m *MiniHeap) Retire() bool { return m.retired.CompareAndSwap(false, true) }

// IsRetired reports whether the hardening layer has retired this span.
//
//mesh:lockfree
func (m *MiniHeap) IsRetired() bool { return m.retired.Load() }

// Contains reports whether addr falls inside any of the MiniHeap's virtual
// spans.
//
//mesh:lockfree
func (m *MiniHeap) Contains(addr uint64) bool {
	for _, base := range *m.spans.Load() {
		if addr >= base && addr < base+uint64(m.SpanBytes()) {
			return true
		}
	}
	return false
}

// OffsetOf translates a virtual address within any of the MiniHeap's spans
// to an object slot index. The address must point at the start of an object
// slot; interior or foreign pointers return an error (invalid frees are
// "easily discovered and discarded", §4.4.4).
//
// This sits on the Free fast path (one call per free), so the quotient and
// remainder by the object size use a precomputed reciprocal multiply-shift
// instead of hardware division (tcmalloc-style; see reciprocal for the
// exactness argument).
//
//mesh:lockfree
func (m *MiniHeap) OffsetOf(addr uint64) (int, error) {
	for _, base := range *m.spans.Load() {
		if addr >= base && addr < base+uint64(m.SpanBytes()) {
			rel := addr - base
			var off uint64
			if m.objRecip != 0 {
				off = rel * m.objRecip >> recipShift
			} else {
				off = rel / uint64(m.objSize)
			}
			if off*uint64(m.objSize) != rel {
				return 0, fmt.Errorf("miniheap: interior pointer %#x", addr) //mesh:slowpath — invalid-free error exits the fast path
			}
			if off >= uint64(m.objCount) {
				return 0, fmt.Errorf("miniheap: pointer %#x past last object", addr) //mesh:slowpath — invalid-free error exits the fast path
			}
			return int(off), nil
		}
	}
	return 0, fmt.Errorf("miniheap: address %#x not in any span", addr) //mesh:slowpath — invalid-free error exits the fast path
}

// AddrOf returns the virtual address of slot off through the primary span.
func (m *MiniHeap) AddrOf(off int) uint64 {
	if off < 0 || off >= m.objCount {
		panic(fmt.Sprintf("miniheap: offset %d out of range", off))
	}
	return (*m.spans.Load())[0] + uint64(off*m.objSize)
}

// InUse returns the number of allocated objects.
func (m *MiniHeap) InUse() int { return m.bm.InUse() }

// IsEmpty reports whether no objects are allocated.
func (m *MiniHeap) IsEmpty() bool { return m.bm.InUse() == 0 }

// IsFull reports whether every slot is allocated.
func (m *MiniHeap) IsFull() bool { return m.bm.InUse() == m.objCount }

// Occupancy returns the fraction of slots in use, in [0,1].
func (m *MiniHeap) Occupancy() float64 {
	return float64(m.bm.InUse()) / float64(m.objCount)
}

// NumBins is the number of occupancy bins the global heap keeps per size
// class (§3.1: "bins organized by decreasing occupancy (e.g., 75-99% full
// in one bin, 50-74% in the next)").
const NumBins = 4

// Bin returns the occupancy bin index for the MiniHeap's current occupancy:
// 0 for (75%,100%), 1 for (50%,75%], 2 for (25%,50%], 3 for (0%,25%].
// Completely full and completely empty MiniHeaps are not binned (the caller
// handles them separately), but Bin still maps them to 0 and NumBins-1.
func (m *MiniHeap) Bin() int {
	occ := m.Occupancy()
	switch {
	case occ > 0.75:
		return 0
	case occ > 0.50:
		return 1
	case occ > 0.25:
		return 2
	default:
		return 3
	}
}

// Meshable reports whether two MiniHeaps can be meshed: same shape, both
// size-classed (not large), distinct physical spans, and non-overlapping
// allocation bitmaps (Definition 5.1). Attached MiniHeaps are never
// meshable — only the global heap's detached spans are candidates.
func (m *MiniHeap) Meshable(o *MiniHeap) bool {
	if m == o || m.IsLarge() || o.IsLarge() {
		return false
	}
	if m.sizeClass != o.sizeClass || m.phys == o.phys {
		return false
	}
	if m.IsAttached() || o.IsAttached() {
		return false
	}
	if m.IsPinned() || o.IsPinned() {
		return false
	}
	if m.IsRetired() || o.IsRetired() {
		return false
	}
	if m.hardened != o.hardened {
		// Meshing an unhardened span's objects into a hardened one would
		// strand canary-less objects behind a span flag that promises
		// checks (and vice versa wastes the guard bytes); spans minted
		// across a harden.enabled toggle simply never pair.
		return false
	}
	return !m.bm.Overlaps(o.bm)
}

// String renders a compact description for debugging.
func (m *MiniHeap) String() string {
	return fmt.Sprintf("MiniHeap{id=%d class=%d objSize=%d inUse=%d/%d spans=%d}",
		m.id, m.sizeClass, m.objSize, m.InUse(), m.objCount, m.MeshCount())
}
