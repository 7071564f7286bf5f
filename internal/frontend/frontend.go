// Package frontend implements the allocator's per-stripe front end: a
// striped slot array of cached core.ThreadHeaps with per-size-class
// magazine caches on top, so the Allocator-level scalar fast path stops
// paying the shared heap-pool hand-off on every call.
//
// The layers, hot to cold:
//
//	goroutine ──hash──▶ stripe slot ──▶ magazine ──▶ cached ThreadHeap ──▶ heap pool ──▶ global shards
//	            (stack   (one swap on   (array pop/   (shuffle-vector     (Treiber       (per-class
//	             page)    a private      push, no      batch fill/flush)   overflow,      locks)
//	                      cache line)    atomics)                          cold path)
//
// A stripe is a padded single-front slot keyed by a cheap goroutine hint
// — a Fibonacci hash of the caller's stack page, so consecutive calls
// from one goroutine land on the same stripe without runtime hooks.
// Acquire is one atomic swap on that stripe's private cache line; release
// is one CAS back. Distinct goroutines on distinct stripes never touch a
// common write location, which is what keeps the pool's shared Treiber
// stack off the scalar path.
//
// A stripe miss (empty home slot) first steals a front parked on any
// other stripe — a load-then-swap scan over the slots — and only when
// every stripe is empty borrows a heap from the pool. A release that
// finds its home stripe full parks on the first empty stripe instead, and
// retires to the pool only when all are full. Together these keep fronts
// in play when goroutines collide on one stripe: the colliding
// goroutine's front parks elsewhere, and the next miss takes it back
// rather than stranding it (with its attached spans, which are never
// meshing candidates) on a stripe no goroutine hashes to. The pool
// remains the overflow path and the detach target on Flush/Close, and
// every heap still has exactly one owner at a time, so the single-owner
// meshing invariant (§4.5.3) is untouched.
//
// Magazines sit above the cached heap: per size class, a fixed array of
// magazineCap object addresses. A magazine hit — the common case once
// warm — is an array pop or push with zero shared atomic operations;
// misses fill half the capacity through MallocClassBatch and overflows
// flush half through FreeBatch, so shared accounting atomics and
// shard-lock traffic are paid once per half-capacity batch instead of
// once per object. Addresses are stable across meshing (the paper's core
// property), and magazine-held objects are live in their spans' bitmaps,
// so meshing relocates their bytes like any other live object while the
// cached addresses stay valid.
//
// Semantics of the magazine hit path:
//
//   - Frees trust the caller like the paper's local fast path (§4.1): a
//     double free of a magazine-cached object is not detected until the
//     flush reaches the locked path, and may alias in between.
//   - Hardening keeps its checks at the call: while harden.enabled is on,
//     and for any free of a hardened span, Malloc and Free skip the
//     magazines and take the cached heap's checked path.
//   - The heap counts magazine population as allocated (fill) until
//     flushed. Each front keeps plain books of what that hides — cached
//     objects and bytes, and pops minus filled objects — and publishes
//     them before it parks; Skew sums them, so the allocator's Stats are
//     exact whenever no call is in flight.
package frontend

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/sizeclass"
	"repro/internal/trace"
)

const (
	stripeShift = 4
	// NumStripes is the size of the stripe array: up to 16 concurrent
	// callers keep a front each; past that the pool is the overflow path,
	// and more stripes would only pad more cache lines.
	NumStripes = 1 << stripeShift
	// magazineCap is each magazine's capacity in objects. It is a span's
	// minimum slot count, so a half-capacity fill never asks for more
	// than one span of any class holds.
	magazineCap = sizeclass.MinObjectCount
)

// Cache is the front end: NumStripes padded slots of parked Fronts plus
// the magazine counters. Borrow/ret bridge to the heap pool (the cold
// path) without an import cycle.
type Cache struct {
	g      *core.GlobalHeap
	pages  *arena.Arena
	harden *harden.Plane
	tr     *trace.Source
	borrow func() *core.ThreadHeap
	ret    func(*core.ThreadHeap)

	// fills/flushes count magazine batch refills and drains — slow-path
	// events by construction, so plain shared counters cost nothing on
	// the hit path.
	fills   atomic.Uint64
	flushes atomic.Uint64

	// retiredPops is the pops-minus-filled count of every retired front:
	// its magazines are empty, but the heap's totals still count its
	// fills and flushes instead of its pops and pushes.
	retiredPops atomic.Int64

	stripes [NumStripes]stripe
}

// stripe is one padded slot. All per-operation atomics of the fast path
// (the slot swap/CAS, the hit/miss counters) land on this stripe-private
// line, so goroutines on distinct stripes share no write location; the
// padding keeps neighbouring stripes from false-sharing it back.
type stripe struct {
	slot   atomic.Pointer[Front]
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [104]byte
}

// Front is one cached heap plus its magazines. A Front is single-owner
// between Acquire and Release, exactly like a pool-borrowed heap — the
// stripe swap/CAS provides the ownership hand-off edge — so every
// non-atomic field is plain.
type Front struct {
	c  *Cache
	th *core.ThreadHeap
	// The magazine books: objects cached across all magazines, their
	// bytes, and objects popped minus objects filled.
	cached, cachedBytes, pops int64
	// pub is the books as of the last Release, stored before the parking
	// CAS so Skew can read a parked front through its stripe slot.
	pub  struct{ cached, cachedBytes, pops atomic.Int64 }
	mags [sizeclass.NumClasses]magazine
}

// magazine is a fixed array of cached object addresses for one size
// class; n is the population.
type magazine struct {
	n    int
	objs [magazineCap]uint64
}

// NewCache builds the front end over g. borrow and ret bridge pool
// borrows and retirements to the heap pool.
func NewCache(g *core.GlobalHeap, borrow func() *core.ThreadHeap, ret func(*core.ThreadHeap)) *Cache {
	return &Cache{
		g:      g,
		pages:  g.Arena(),
		harden: g.Harden(),
		tr:     g.Tracer().NewSource(trace.SrcFrontend),
		borrow: borrow,
		ret:    ret,
	}
}

// stripeOf returns the calling goroutine's stripe hint: a Fibonacci hash
// of the caller's stack page. Goroutine stacks are page-grained and
// long-lived relative to an allocator call, so consecutive calls from one
// goroutine map to one stripe, while distinct goroutines spread — without
// runtime.procPin or goroutine IDs, neither of which Go exposes. The
// probe variable never escapes (only its uintptr is taken), so the hint
// itself allocates nothing. Collisions are correctness-neutral: two
// goroutines on one stripe share the stripe's front and one parked on
// another stripe (see Acquire).
//
//mesh:lockfree
func stripeOf() int {
	var probe byte
	p := uint64(uintptr(unsafe.Pointer(&probe)))
	return int((p >> 10) * 0x9E3779B97F4A7C15 >> (64 - stripeShift))
}

// Acquire hands the caller a front it owns until Release. The hit is one
// swap on the caller's stripe-private line. A miss (the home stripe is
// empty) steals a front parked on another stripe — loads to skip empty
// slots, one swap to take — and only when every stripe is empty borrows a
// heap from the pool, the one true pool borrow left on the scalar path.
// A steal counts as a miss, not a borrow.
//
//mesh:lockfree
func (c *Cache) Acquire() *Front {
	s := &c.stripes[stripeOf()]
	if f := s.slot.Swap(nil); f != nil {
		s.hits.Add(1)
		return f
	}
	s.misses.Add(1)
	for i := range c.stripes {
		o := &c.stripes[i]
		if o.slot.Load() == nil {
			continue
		}
		if f := o.slot.Swap(nil); f != nil {
			return f
		}
	}
	return c.newFront() //mesh:slowpath — every stripe empty: borrow a heap from the pool
}

// newFront wraps a pool-borrowed heap in a fresh Front.
func (c *Cache) newFront() *Front {
	return &Front{c: c, th: c.borrow()}
}

// Release parks f back on the caller's stripe. Like the pool's park
// point it drains the heap's remote-free queue first, so a front never
// parks carrying message-passed work, and it publishes the magazine
// books for Skew. A full home stripe — another goroutine hashing to it
// parked first — sends f to the first empty stripe, where the next miss
// can steal it back; only on a full stripe array does the front retire:
// magazines flush and the heap returns to the pool. The error is the
// joined magazine flush errors (deferred invalid frees surfacing late);
// nil on every park.
//
//mesh:lockfree
func (c *Cache) Release(f *Front) error {
	f.th.DrainRemoteFrees() //mesh:slowpath — the park drain point; settles queued frees while we still own the heap
	f.pub.cached.Store(f.cached)
	f.pub.cachedBytes.Store(f.cachedBytes)
	f.pub.pops.Store(f.pops)
	if c.stripes[stripeOf()].slot.CompareAndSwap(nil, f) {
		return nil
	}
	for i := range c.stripes {
		if c.stripes[i].slot.Load() == nil && c.stripes[i].slot.CompareAndSwap(nil, f) {
			return nil
		}
	}
	return c.retire(f) //mesh:slowpath — every stripe full: flush magazines, give the heap back
}

// retire flushes f's magazines, banks its pops count and returns its
// heap to the pool.
func (c *Cache) retire(f *Front) error {
	var errs []error
	for class := range f.mags {
		if n := f.mags[class].n; n > 0 {
			if err := f.flushMagazine(class, n); err != nil {
				errs = append(errs, err)
			}
		}
	}
	c.retiredPops.Add(f.pops)
	c.ret(f.th)
	return errors.Join(errs...)
}

// Flush empties every stripe: parked fronts flush their magazines and
// their heaps go back to the pool (whose own flush then relinquishes the
// attached spans — making them meshing candidates — exactly as before
// this layer existed). Fronts held by in-flight calls are unaffected.
func (c *Cache) Flush() error {
	var errs []error
	for i := range c.stripes {
		if f := c.stripes[i].slot.Swap(nil); f != nil {
			if err := c.retire(f); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Hits counts stripe acquisitions served by the front parked on the
// caller's own stripe.
func (c *Cache) Hits() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].hits.Load()
	}
	return n
}

// Misses counts stripe acquisitions that found the caller's stripe
// empty: each was served by a front stolen from another stripe or, when
// every stripe was empty, by a pool borrow.
func (c *Cache) Misses() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].misses.Load()
	}
	return n
}

// Fills counts magazine batch refills (EvMagazineFill events).
func (c *Cache) Fills() uint64 { return c.fills.Load() }

// Flushes counts magazine batch drains (EvMagazineFlush events).
func (c *Cache) Flushes() uint64 { return c.flushes.Load() }

// Skew is what the magazines hide from the heap's totals, which count a
// fill as allocations and a flush as frees: Objects and Bytes cached,
// and Pops, the objects popped minus the objects filled. The
// application's allocations are the heap's plus Pops, its frees the
// heap's plus Pops plus Objects, and its live bytes the heap's minus
// Bytes.
type Skew struct {
	Objects, Bytes, Pops int64
}

// Skew sums the books of every parked and retired front. Fronts held by
// in-flight calls are missed, so it is exact whenever no call is in
// flight.
func (c *Cache) Skew() Skew {
	s := Skew{Pops: c.retiredPops.Load()}
	for i := range c.stripes {
		if f := c.stripes[i].slot.Load(); f != nil {
			s.Objects += f.pub.cached.Load()
			s.Bytes += f.pub.cachedBytes.Load()
			s.Pops += f.pub.pops.Load()
		}
	}
	return s
}

// CachedObjects gauges the objects parked in stripe magazines; 0 after
// Flush.
func (c *Cache) CachedObjects() int64 { return c.Skew().Objects }

// Heap exposes the front's cached heap for calls that bypass magazines
// but still want the stripe-cached heap (batch, calloc/realloc, aligned).
func (f *Front) Heap() *core.ThreadHeap { return f.th }

// Malloc allocates size bytes. The magazine hit — the steady-state case
// once warm — is routing plus an array pop: no locks, no shared atomics,
// not even the accounting pair (it was paid by the batch fill). Misses
// batch-refill; large and invalid requests, and every request while
// hardening is on, take the cached heap's ordinary path.
//
//mesh:lockfree
func (f *Front) Malloc(size int) (uint64, error) {
	class, ok := f.th.AllocClass(size)
	if !ok || f.c.harden.Enabled() {
		return f.th.Malloc(size) //mesh:slowpath — large, invalid or hardened request: the heap's checked path
	}
	m := &f.mags[class]
	if m.n == 0 {
		if err := f.fill(class); err != nil { //mesh:slowpath — magazine empty: batch-refill from the cached heap
			return 0, err
		}
	}
	m.n--
	f.cached--
	f.cachedBytes -= int64(sizeclass.Size(class))
	f.pops++
	return m.objs[m.n], nil
}

// Free releases the object at addr. A magazine-eligible free is an
// array push with zero shared atomics; the object's actual release
// (remote queue or shard lock) is deferred to the flush. See the package
// comment for the trust-the-caller consequences.
//
//mesh:lockfree
func (f *Front) Free(addr uint64) error {
	class, ok := f.classOf(addr)
	if !ok {
		return f.th.Free(addr) //mesh:slowpath — non-magazine free (large, foreign, invalid, hardened): the heap's checked path, which reports errors
	}
	m := &f.mags[class]
	var err error
	if m.n == magazineCap {
		// A flush error — a deferred invalid free discovered at the
		// locked path — surfaces here, while addr itself is still cached.
		err = f.flushMagazine(class, magazineCap/2) //mesh:slowpath — magazine full: flush half, then push
	}
	m.objs[m.n] = addr
	m.n++
	f.cached++
	f.cachedBytes += int64(sizeclass.Size(class))
	return err
}

// classOf decides magazine eligibility for a free: with hardening off, a
// small-object address on an unhardened span that the lock-free page map
// resolves, lands on a valid slot boundary, and is currently allocated.
// Everything else — large objects, retired or hardened spans, interior
// pointers, double frees of already-settled objects — reports false and
// takes the ordinary path, which runs the checks and produces the typed
// errors. The bitmap probe is best-effort (racy by design, like the
// paper's fast path): it routes stale frees to the checked path but
// cannot catch a double free of an object currently parked in a
// magazine.
//
//mesh:lockfree
func (f *Front) classOf(addr uint64) (int, bool) {
	if f.c.harden.Enabled() {
		return 0, false
	}
	mh := f.c.pages.Lookup(addr)
	if mh == nil || mh.IsLarge() || mh.IsRetired() || mh.Hardened() {
		return 0, false
	}
	off, err := mh.OffsetOf(addr)
	if err != nil || !mh.Bitmap().IsSet(off) {
		return 0, false
	}
	return mh.SizeClass(), true
}

// fill restocks an empty magazine with half its capacity through the
// exact-class batch path — one coalesced accounting update, the
// refill/drain protocol — stored reversed, so pops come out in
// shuffle-vector order.
func (f *Front) fill(class int) error {
	m := &f.mags[class]
	out, err := f.th.MallocClassBatch(class, magazineCap/2, m.objs[:0])
	if err != nil {
		return err // all-or-nothing: the magazine stays empty
	}
	slices.Reverse(out)
	m.n = len(out)
	f.cached += int64(m.n)
	f.cachedBytes += int64(m.n * sizeclass.Size(class))
	f.pops -= int64(m.n)
	f.c.fills.Add(1)
	f.c.tr.Event(trace.EvMagazineFill, uint64(class), uint64(m.n))
	return nil
}

// flushMagazine releases the oldest k cached objects of class through
// the batch free path (remote queues and shard locks — the full
// protocol, once per batch).
func (f *Front) flushMagazine(class, k int) error {
	m := &f.mags[class]
	// Magazine-parked objects skipped the scalar free's sampled trace
	// emission; the flush is their only chance to enter the free stream.
	for _, addr := range m.objs[:k] {
		f.c.tr.Sampled(trace.EvFree, addr, 0)
	}
	err := f.th.FreeBatch(m.objs[:k])
	copy(m.objs[:], m.objs[k:m.n])
	m.n -= k
	f.cached -= int64(k)
	f.cachedBytes -= int64(k * sizeclass.Size(class))
	f.c.flushes.Add(1)
	f.c.tr.Event(trace.EvMagazineFlush, uint64(class), uint64(k))
	if err != nil {
		return fmt.Errorf("frontend: magazine flush (class %d): %w", class, err)
	}
	return nil
}
