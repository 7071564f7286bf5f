package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/miniheap"
	"repro/internal/sizeclass"
	"repro/internal/trace"
)

// This file implements message-passing remote frees: instead of climbing
// into the global heap and taking the owning class's shard lock, a
// cross-thread free of an object on a span attached to a live thread heap
// posts the slot to that heap's lock-free MPSC queue. The owner drains the
// queue on its own schedule — at the malloc slow path (refill), at Done,
// and at pool park/unpark — recycling the slots straight into its shuffle
// vectors. A remote free in the common case is two atomic loads (page-map
// lookup), one atomic owner load, and a reserve/commit pair of atomic
// increments on the head segment: zero locks, no shard ping-pong, which is
// what lets producer–consumer pipelines scale past the shard-lock ceiling.
//
// Protocol invariants (see also the lock-hierarchy comment in global.go):
//
//   - A non-nil owner sink proves the span was attached at the moment of
//     the load; attached spans are never meshed, so a queued (MiniHeap,
//     offset) pair stays meaningful at least until the owner detaches.
//   - A push racing a detach resolves without losing the free: either the
//     entry lands before the owner's drain retires its segment (the drain
//     waits for in-flight commits and settles it), or the reservation
//     overflows a retired segment / the queue is already closed, and the
//     caller falls back to the shard-locked path. The Treiber head and
//     the per-segment reservation counter linearize the race.
//   - The owner's drain settles entries for spans it no longer has
//     attached through the shard-locked path *by address*, so entries
//     survive the span being released, re-attached elsewhere, or meshed
//     away in the interim (virtual addresses are stable across all three).
//   - Accounting (live bytes, free counts) happens at enqueue time, so
//     Stats stay exact while entries are in flight; the drain-side
//     fallback therefore skips it (freeSmallLocked's preAccounted flag).
//
// Like the paper's thread-local fast path, the queued path trusts the
// caller: without hardening, a double free of a queued object is not
// reliably detected (the slot may be handed out twice). With hardening
// on, the owner's drain runs the poison precheck on every entry for a
// span it still has attached, drops a duplicate, and counts it in
// InvalidFree (drainHardened); entries settled by address take the
// locked path, whose bitmap catches a duplicate exactly.

// remoteSegCap is the number of slots one queue segment carries. Pushers
// fill the head segment in place (see remoteSeg), so steady traffic to
// one span allocates one segment per remoteSegCap frees. Segments are
// garbage-collected and never re-enter the stack once taken, which is
// what makes the Treiber head ABA-safe — the same reasoning as the mesh
// package's heap pool.
const remoteSegCap = 16

// remoteSegRetired is the reserved-counter value a drain swaps in to
// retire a segment: any later reservation overflows the capacity check
// and falls through to a fresh segment.
const remoteSegRetired = 1 << 30

// remoteSeg is one segment of a remote-free queue: up to remoteSegCap
// allocated slots of a single MiniHeap. Offsets fit in a byte because
// spans hold at most sizeclass.MaxObjectCount (256) objects.
//
// Segments fill in place under multiple producers with a reserve/commit
// protocol — no head pop, so the stack never re-publishes a node and the
// classic Treiber ABA hazard cannot arise: a pusher reserves a slot with
// one atomic increment, writes the offset, then commits; the drain
// retires the segment by swapping the reserved counter past the
// capacity (late reservations overflow and divert to a fresh segment)
// and waits for the in-flight commits before reading the slots. The
// commit counter only reaches the retired reservation count when every
// slot writer has finished, and each commit's seq-cst ordering makes
// the slot write visible to the drain.
type remoteSeg struct {
	next      *remoteSeg
	mh        *miniheap.MiniHeap
	reserved  atomic.Int32
	committed atomic.Int32
	offs      [remoteSegCap]uint8
}

// remoteClosed is the sentinel head marking a closed queue: pushes fail
// and fall back to the locked path. Done closes the queue so no free can
// be parked on a heap that will never drain again; the next attach
// reopens it.
var remoteClosed = &remoteSeg{}

// remoteQueue is a per-thread-heap MPSC queue of remote frees: a Treiber
// stack of segments pushed by any goroutine and taken wholesale by the
// owner. The zero value is an open, empty queue.
type remoteQueue struct {
	head atomic.Pointer[remoteSeg]
	// pending counts queued, not-yet-drained slots (introspection/tests).
	pending atomic.Int64
}

// remoteMaxOff bounds offsets to what a segment byte can carry — the
// repo-wide span-capacity invariant, not a local magic number.
const remoteMaxOff = sizeclass.MaxObjectCount

// Compile-time proof that every valid offset fits the uint8 slot array:
// this line fails to build if MaxObjectCount ever exceeds 256.
const _ = uint8(remoteMaxOff - 1)

// PushRemote implements miniheap.RemoteSink: post one allocated slot.
// The common case — the head segment is for the same span and has room —
// is a single atomic increment to reserve a slot, a plain store, and a
// commit increment: no CAS, no allocation. Only a span change, a full
// segment, or an empty queue allocates and CAS-publishes a fresh
// segment. Reservations that land on a segment the drain has retired (or
// that overflow a full one) inflate its reserved counter harmlessly and
// divert here to the fresh-segment path.
//
//mesh:lockfree
func (q *remoteQueue) PushRemote(mh *miniheap.MiniHeap, off int) bool {
	if off < 0 || off >= remoteMaxOff {
		return false
	}
	// Count the entry before it can become visible: the drain's decrement
	// always follows the pusher's increment, so PendingRemoteFrees never
	// reads negative.
	q.pending.Add(1)
	var s *remoteSeg
	for {
		h := q.head.Load()
		if h == remoteClosed {
			q.pending.Add(-1)
			return false
		}
		if h != nil && h.mh == mh {
			if k := h.reserved.Add(1) - 1; k < remoteSegCap {
				h.offs[k] = uint8(off)
				h.committed.Add(1)
				return true
			}
			// Full or retired: divert to a fresh segment.
		}
		if s == nil {
			s = &remoteSeg{mh: mh} //mesh:slowpath — one segment allocation per remoteSegCap frees, off the per-free path
			s.offs[0] = uint8(off)
			s.reserved.Store(1)
			s.committed.Store(1)
		}
		s.next = h
		if q.head.CompareAndSwap(h, s) {
			return true
		}
	}
}

// PushRemoteBatch implements miniheap.RemoteSink: post a batch of
// allocated slots of one MiniHeap, returning how many were accepted.
// Entries coalesce into the head segment exactly like scalar pushes, so
// a batch fills segments to capacity as it goes.
//
//mesh:lockfree
func (q *remoteQueue) PushRemoteBatch(mh *miniheap.MiniHeap, offs []int) int {
	for i, off := range offs {
		if !q.PushRemote(mh, off) {
			return i
		}
	}
	return len(offs)
}

// take removes and returns every queued segment, leaving the queue open.
// Returns nil when the queue is empty or closed. Only the owner calls it.
func (q *remoteQueue) take() *remoteSeg {
	for {
		h := q.head.Load()
		if h == nil || h == remoteClosed {
			return nil
		}
		if q.head.CompareAndSwap(h, nil) {
			return h
		}
	}
}

// close atomically takes the remaining segments and marks the queue
// closed; subsequent pushes fail until reopen. Idempotent.
func (q *remoteQueue) close() *remoteSeg {
	for {
		h := q.head.Load()
		if h == remoteClosed {
			return nil
		}
		if q.head.CompareAndSwap(h, remoteClosed) {
			return h
		}
	}
}

// reopen makes a closed queue accept pushes again; the owner calls it when
// it next attaches a span (a straggler push accepted right after reopen is
// settled by the normal drain-by-address fallback).
func (q *remoteQueue) reopen() {
	q.head.CompareAndSwap(remoteClosed, nil)
}

var _ miniheap.RemoteSink = (*remoteQueue)(nil)

// DrainRemoteFrees settles every queued remote free and returns how many
// were processed. Frees for spans still attached to this heap are recycled
// into the class's shuffle vector (the common case — no lock, the slot is
// immediately reusable); the rest are completed through the shard-locked
// path by address, which also serializes correctly with meshing fix-ups.
// Only the heap's owner may call it; the pool calls it at park and unpark,
// and the heap itself at refill and Done.
func (t *ThreadHeap) DrainRemoteFrees() int {
	return t.drainRemote(t.remote.take())
}

// PendingRemoteFrees reports the number of queued, not-yet-drained remote
// frees — introspection for tests and stats.
func (t *ThreadHeap) PendingRemoteFrees() int {
	return int(t.remote.pending.Load())
}

// drainRemote settles a taken segment chain. Invalid entries (possible
// only through caller double frees racing span turnover) are counted in
// the heap's invalid-free statistic and dropped (settleStale), not
// returned: the original Free call already succeeded when the entry was
// queued.
func (t *ThreadHeap) drainRemote(segs *remoteSeg) int {
	if segs == nil {
		return 0
	}
	n := 0
	reached := false
	for s := segs; s != nil; s = s.next {
		// Retire the segment: inflate reserved so any pusher that still
		// holds a reference diverts to a fresh segment, then wait out the
		// handful of instructions between an in-flight pusher's reserve
		// and its commit before reading the slots.
		r := s.reserved.Swap(remoteSegRetired)
		if r > remoteSegCap {
			r = remoteSegCap
		}
		for s.committed.Load() < r {
			runtime.Gosched()
		}
		cnt := int(r)
		mh := s.mh
		if mh.OwnedBy(&t.sink) {
			if mh.Hardened() {
				// Hardened spans run the full free protocol per entry —
				// canary, double-free precheck, poison, quarantine — with
				// dropped duplicates excluded from the drained count
				// (drainHardened).
				n += t.drainHardened(mh, s, cnt, &reached)
				t.remote.pending.Add(int64(-cnt))
				continue
			}
			// Attached to us: the slots go straight back onto the shuffle
			// vector, exactly like local frees (accounting happened at
			// enqueue), under the span's current index — which may differ
			// from the one it had when the entry was pushed, if the span
			// was released and gathered again since. Attached spans are
			// never meshed, so mh's geometry is stable under our feet.
			sv, span := t.svs[mh.SizeClass()], mh.OwnerIndex()
			for i := 0; i < cnt; i++ {
				sv.Free(span, int(s.offs[i]))
			}
		} else {
			// The span moved on since the push (we refilled past it, or
			// Done released it). Settle by address through the locked
			// path: the page map re-resolves the authoritative owner even
			// if the span was re-attached elsewhere or meshed away.
			for i := 0; i < cnt; i++ {
				if !t.settleStale(mh, mh.AddrOf(int(s.offs[i])), &reached) {
					n--
				}
			}
		}
		n += cnt
		t.remote.pending.Add(int64(-cnt))
	}
	if n > 0 {
		t.global.remoteDrained.Add(uint64(n))
		t.tr.Event(trace.EvRemoteDrain, uint64(n), 0)
	}
	if reached {
		// Stale entries that re-binned detached spans count as frees
		// reaching the global heap for §4.5's mesh triggering.
		t.global.maybeMesh()
	}
	return n
}

// settleStale settles one queued free of a span no longer attached to
// this heap, by address through the locked path. An entry the locked path
// rejects — a caller double free — is dropped: its enqueue-time accounting
// is unwound and settleStale reports false, so it is not counted as
// drained and queued == drained still holds at quiescence.
func (t *ThreadHeap) settleStale(mh *miniheap.MiniHeap, addr uint64, reached *bool) bool {
	r, rejected := t.global.freeQueuedStale(addr)
	if r {
		*reached = true
	}
	if rejected {
		t.global.noteRemoteUnqueued(int64(mh.ObjectSize()), 1)
		return false
	}
	return true
}

// tryQueueRemote attempts the message-passing remote-free fast path for
// one non-local free: mh is the page-map owner freeLocal resolved (possibly
// nil or stale). It returns true when the free was queued — accounted and
// complete from the caller's perspective. False sends the caller to the
// shard-locked fallback. Zero locks on success: the lookup already
// happened, so this adds one owner load, one offset validation, and one
// CAS.
//
//mesh:lockfree
func (t *ThreadHeap) tryQueueRemote(addr uint64, mh *miniheap.MiniHeap) bool {
	if mh == nil || mh.IsLarge() {
		return false
	}
	sink := mh.Owner()
	if sink == nil {
		return false
	}
	// Validate before committing: interior pointers must surface as errors
	// through the locked path, and AddrOf at drain time needs a slot index.
	// The snapshot geometry is safe to read lock-free, and a span never
	// loses virtual addresses while alive, so a stale owner at worst parks
	// the entry for the drain-by-address fallback.
	off, err := mh.OffsetOf(addr)
	if err != nil {
		return false
	}
	// Injected segment-allocation failure: divert to the shard-locked
	// fallback, exactly the route a real failed segment publish takes.
	if t.global.faults.Should(faultinject.SiteRemoteSegment) {
		t.tr.Event(trace.EvRemoteFallback, addr, 0)
		return false
	}
	// Account before publishing (see noteRemoteQueued): once the push
	// lands the owner may drain — and even recycle — the slot before this
	// function returns.
	t.global.noteRemoteQueued(int64(mh.ObjectSize()), 1)
	if !sink.PushRemote(mh, off) {
		t.global.noteRemoteUnqueued(int64(mh.ObjectSize()), 1)
		t.tr.Event(trace.EvRemoteFallback, addr, 0)
		return false
	}
	t.tr.Event(trace.EvRemotePush, addr, uint64(mh.ObjectSize()))
	return true
}

// queueRemoteBatch queues every batch entry whose span has a live owner
// sink, coalescing runs of addresses that share an owner into segments,
// and returns the remaining (addr, owner) pairs — compacted in place — for
// the shard-locked batch path. Shared scratch with FreeBatch keeps the
// pass allocation-free apart from the queue segments themselves.
func (t *ThreadHeap) queueRemoteBatch(addrs []uint64, owners []*miniheap.MiniHeap) ([]uint64, []*miniheap.MiniHeap) {
	out := 0
	i := 0
	for i < len(addrs) {
		mh := owners[i]
		var sink miniheap.RemoteSink
		if mh != nil && !mh.IsLarge() {
			sink = mh.Owner()
		}
		if sink == nil {
			addrs[out], owners[out] = addrs[i], owners[i]
			out++
			i++
			continue
		}
		// Collect the run of addresses owned by mh with valid slot
		// indices; the first invalid address ends the run and is retried
		// (and rejected with a proper error) by the locked path.
		offs := t.offScratch[:0]
		runStart := i
		for i < len(addrs) && owners[i] == mh {
			off, err := mh.OffsetOf(addrs[i])
			if err != nil {
				break
			}
			offs = append(offs, off)
			i++
		}
		t.offScratch = offs
		if len(offs) == 0 {
			addrs[out], owners[out] = addrs[i], owners[i]
			out++
			i++
			continue
		}
		accepted := 0
		if t.global.faults.Should(faultinject.SiteRemoteSegment) {
			// Injected segment-allocation failure, evaluated once per run
			// and before any pre-accounting: the whole run diverts to the
			// locked batch path, like tryQueueRemote's single free.
			t.tr.Event(trace.EvRemoteFallback, addrs[runStart], 0)
		} else {
			// Pre-account the whole run (see noteRemoteQueued), then unwind
			// whatever the sink rejected; the remainder re-accounts on the
			// locked path.
			t.global.noteRemoteQueued(int64(len(offs)*mh.ObjectSize()), uint64(len(offs)))
			accepted = sink.PushRemoteBatch(mh, offs)
			if rejected := len(offs) - accepted; rejected > 0 {
				t.global.noteRemoteUnqueued(int64(rejected*mh.ObjectSize()), uint64(rejected))
			}
		}
		for k := runStart + accepted; k < runStart+len(offs); k++ {
			addrs[out], owners[out] = addrs[k], owners[k]
			out++
		}
	}
	return addrs[:out], owners[:out]
}
