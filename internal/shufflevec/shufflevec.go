// Package shufflevec implements Mesh's shuffle vectors (§4.2 of the paper):
// a data structure that performs randomized allocation out of a thread's
// attached MiniHeaps in worst-case O(1) time per malloc and free, with two
// bytes of overhead per object and no overprovisioning.
//
// Earlier randomized allocators (DieHard, DieHarder) probe random bitmap
// indices until they hit a free slot; that is O(1) only in expectation and
// requires keeping the heap under ~50% occupancy. A shuffle vector instead
// keeps the free slots in an array maintained in uniformly random order:
// allocation pops from the head (bump-pointer speed), and free pushes the
// slot at the head and swaps it with a uniformly chosen element — one step
// of Knuth–Fisher–Yates, which preserves the all-orders-equally-likely
// invariant.
//
// One vector serves every span a thread has attached for a size class.
// Each entry is a two-byte (span index, offset) pair: the span's index in
// the owner's attached list, and the slot's offset within that span. A
// refill reserves the free slots of several spans in turn and then
// shuffles the vector as a whole, so allocation order is uniform across
// all of them. The spans' summed slot counts may not exceed
// sizeclass.MaxObjectCount, which bounds the vector to 256 entries however
// many spans feed it.
//
// A shuffle vector is owned by exactly one thread and is intentionally NOT
// safe for concurrent use; cross-thread frees go through the MiniHeap's
// atomic bitmap instead (§3.2).
package shufflevec

import (
	"repro/internal/bitmap"
	"repro/internal/rng"
	"repro/internal/sizeclass"
)

// maxSpans bounds the span index an entry can carry (one byte).
const maxSpans = 256

// Vector is a shuffle vector for one size class. Use New to create one.
type Vector struct {
	// list[:n] holds the available entries, span<<8 | offset; list[n-1]
	// is the head Malloc pops next.
	list [sizeclass.MaxObjectCount]uint16
	n    int
	// slots is the summed slot count of the spans reserved since they were
	// last drained — the most entries live and available objects can
	// occupy, which is what keeps Free inside the array.
	slots  int
	rnd    *rng.RNG
	random bool

	// scratch backs Reserve's free-slot scan between calls so a refill
	// allocates nothing in steady state.
	scratch []int
}

// New returns an empty shuffle vector. If randomize is false the vector
// degrades to a deterministic LIFO freelist — the "Mesh (no rand)"
// configuration of §6.3.
func New(r *rng.RNG, randomize bool) *Vector {
	return &Vector{rnd: r, random: randomize}
}

// IsExhausted reports whether no slots remain to allocate.
//
//mesh:lockfree
func (v *Vector) IsExhausted() bool { return v.n == 0 }

// Remaining returns the number of slots still available.
//
//mesh:lockfree
func (v *Vector) Remaining() int { return v.n }

// Reserve adds a span's free slots to the vector: every bit of bm it
// atomically flips from 0 to 1 becomes an available (span, offset) entry,
// reserved for this thread (§4.1). It returns the number of slots
// reserved. span is the caller's index for bm, which Malloc hands back and
// Free and DrainTo take. Reserve panics if span does not fit a byte or if
// bm would raise the summed slot count of the reserved spans past
// sizeclass.MaxObjectCount. Entries go in unshuffled; call Shuffle once
// every span is reserved.
func (v *Vector) Reserve(span int, bm *bitmap.Bitmap) int {
	if span < 0 || span >= maxSpans {
		panic("shufflevec: span index does not fit a byte")
	}
	if v.slots+bm.Len() > sizeclass.MaxObjectCount {
		panic("shufflevec: spans exceed 256 objects")
	}
	v.slots += bm.Len()
	// Scan for free slots word-at-a-time into the reused scratch buffer,
	// then reserve each candidate with one CAS; a candidate lost to a
	// racing remote operation is simply skipped. This replaces n
	// unconditional TryToSet probes (and their CAS traffic on fully set
	// words) with one pass over the bitmap's words plus one CAS per
	// actually free slot, allocating nothing in steady state.
	v.scratch = bm.AppendFreeBits(v.scratch[:0])
	k := 0
	for _, i := range v.scratch {
		if bm.TryToSet(i) {
			v.list[v.n] = uint16(span<<8 | i)
			v.n++
			k++
		}
	}
	return k
}

// Shuffle puts the available entries in uniformly random order; a refill
// calls it once, after reserving from every span it attached. A
// non-randomized vector is left in reservation order.
func (v *Vector) Shuffle() {
	if v.random {
		v.rnd.ShuffleUint16(v.list[:v.n])
	}
}

// DrainTo removes every available entry of span, clearing its bit in bm —
// the span's bitmap — so the span's occupancy again reflects only live
// objects before the MiniHeap is returned to the global heap, and drops
// bm's slots from the vector's capacity. Entries of other spans stay
// available. It returns the number of entries removed and allocates
// nothing.
func (v *Vector) DrainTo(span int, bm *bitmap.Bitmap) int {
	kept := 0
	for _, e := range v.list[:v.n] {
		if int(e>>8) == span {
			bm.Unset(int(e & 0xff))
			continue
		}
		v.list[kept] = e
		kept++
	}
	removed := v.n - kept
	v.n = kept
	v.slots -= bm.Len()
	return removed
}

// Malloc pops the next slot. ok is false when the vector is exhausted.
// This is the entire small-allocation fast path: one load, one decrement.
//
//mesh:lockfree
func (v *Vector) Malloc() (span, offset int, ok bool) {
	if v.n == 0 {
		return 0, 0, false
	}
	v.n--
	e := v.list[v.n]
	return int(e >> 8), int(e & 0xff), true
}

// Free pushes the slot back and re-randomizes its position with a single
// Fisher–Yates step (§4.2, Figure 3c–d). The slot must belong to a span the
// vector reserved from and must currently be allocated; Vector cannot check
// this — the owning thread-local heap does.
//
//mesh:lockfree
func (v *Vector) Free(span, offset int) {
	if v.n >= v.slots {
		panic("shufflevec: Free on full vector")
	}
	v.list[v.n] = uint16(span<<8 | offset)
	v.n++
	if v.random && v.n > 1 {
		swap := v.rnd.InRange(0, v.n-1)
		v.list[v.n-1], v.list[swap] = v.list[swap], v.list[v.n-1]
	}
}
