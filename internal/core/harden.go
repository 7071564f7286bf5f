package core

import (
	"errors"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/harden"
	"repro/internal/miniheap"
	"repro/internal/sizeclass"
	"repro/internal/trace"
)

// This file is the core half of heap hardening (see internal/harden for
// the protocol): the canary/poison verification helpers shared by every
// free and allocation path, the per-heap quarantine plumbing, span
// retirement — the containment action when a verification fails — and the
// background auditor's incremental span walk.
//
// Containment, not crash: a verification failure never panics. The
// corrupt span is retired when the caller's position allows it safely —
// its virtual spans are unmapped (so further data access faults), its
// backing memory is punched, it leaves its bin and is excluded from
// meshing forever, and its live objects are counted lost — and the call
// that found the corruption surfaces ErrHeapCorruption. The allocator
// keeps serving from every other span.
//
// Who may retire what:
//
//   - The owning thread retires its own attached span (retireAttached):
//     it withdraws the owner sinks and the shuffle vector's reservations
//     of every span attached for the class first, so no stale fast-path
//     handle survives, retires the corrupt span, and returns the class's
//     other spans to the bins.
//   - Shard-locked paths retire detached, unpinned spans in place
//     (retireLocked). A violation found on a span that is attached to a
//     live heap or pinned mid-mesh is reported (counted, traced, typed
//     error) but not contained here: the owner's next allocation check or
//     the mesh engine's own copy audit retires it from a safe position.
//   - The mesh engine retires a copy source whose canary sweep failed,
//     after aborting the pair (meshengine.go).

// physWindow returns the span's physical bytes for direct verification
// access, or nil when the backing is gone (mid-teardown, punched). All
// hardening checks degrade to no-ops on a nil window rather than block.
func (g *GlobalHeap) physWindow(mh *miniheap.MiniHeap) []byte {
	data, err := g.os.PhysSlice(mh.Phys())
	if err != nil {
		return nil
	}
	return data
}

// load64 reads a little-endian 64-bit word. encoding/binary's equivalent
// is not annotatable, and these two run on the malloc/free fast path —
// the reslice hoists the bounds check and the byte-shift chain is the
// pattern the compiler fuses into a single word load.
//
//mesh:lockfree
func load64(b []byte, base int) uint64 {
	b = b[base : base+8 : base+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40 |
		uint64(b[6])<<48 | uint64(b[7])<<56
}

// store64 writes a little-endian 64-bit word (single fused store, like
// load64).
//
//mesh:lockfree
func store64(b []byte, base int, v uint64) {
	b = b[base : base+8 : base+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// canaryOK verifies the trailing guard word of slot off against its
// position-keyed value. The harden.canary fault site is evaluated inside
// the check: an injection flips a real byte of the guard word and the
// comparison then runs for real, so every injection is a detected
// violation — the chaos suite's violations == injections invariant.
//
// passes, when non-nil, is the caller's thread-local pass batch (flushed
// to the plane at refill and Done): the single-owner fast paths pay no
// atomic counter traffic per check. Shard-locked and auditor callers pass
// nil and count atomically. Violations always publish immediately.
//
//mesh:lockfree
func (g *GlobalHeap) canaryOK(data []byte, mh *miniheap.MiniHeap, off int, passes *uint64) bool {
	objSize := mh.ObjectSize()
	base := off*objSize + objSize - harden.CanarySize
	if g.faults.Should(faultinject.SiteHardenCanary) {
		data[base] ^= 0xff
	}
	if load64(data, base) == g.harden.Canary(mh.SizeClass(), off) {
		if passes != nil {
			*passes++
		} else {
			g.harden.NotePass()
		}
		return true
	}
	g.harden.NoteViolation()
	g.trHarden.Event(trace.EvHardenViolation, mh.AddrOf(off), uint64(faultinject.SiteHardenCanary)) //mesh:slowpath — violation reporting
	return false
}

// poisonOK verifies that the poisoned prefix of a freed slot still holds
// PoisonByte everywhere — the use-after-free-write check run before a slot
// is handed out again, and by the auditor over every free slot. The
// harden.poison fault site is evaluated inside, and passes batches
// thread-locally, like canaryOK.
//
//mesh:lockfree
func (g *GlobalHeap) poisonOK(data []byte, mh *miniheap.MiniHeap, off int, passes *uint64) bool {
	objSize := mh.ObjectSize()
	base := off * objSize
	if g.faults.Should(faultinject.SiteHardenPoison) {
		data[base] ^= 0xff
	}
	n := harden.PoisonLen(objSize)
	for i := 0; i < n; i += 8 {
		if load64(data, base+i) != harden.PoisonWord {
			g.harden.NoteViolation()
			g.trHarden.Event(trace.EvHardenViolation, mh.AddrOf(off), uint64(faultinject.SiteHardenPoison)) //mesh:slowpath — violation reporting
			return false
		}
	}
	if passes != nil {
		*passes++
	} else {
		g.harden.NotePass()
	}
	return true
}

// poisonSlot fills the slot's poisoned prefix. The trailing guard word is
// left alone: canaries of free slots are don't-care (rewritten at the next
// allocation), and mesh copies overwrite dst trailers with position-valid
// src ones.
//
//mesh:lockfree
func poisonSlot(data []byte, objSize, off int) {
	base := off * objSize
	n := harden.PoisonLen(objSize)
	for i := 0; i < n; i += 8 {
		store64(data, base+i, harden.PoisonWord)
	}
}

// hardenAlloc runs the hardened half of handing out slot off: verify the
// poison fill survived since the slot was freed (or minted), then arm the
// canary and clear the first poison byte — the cleared byte is what lets
// a later free distinguish "freed again" (fully poisoned) from "freshly
// allocated and never written". span is the slot's index in the class's
// attached list. A poison violation means something wrote through a
// dangling pointer; the span is retired and the allocation fails typed,
// so the caller's next attempt refills onto other spans.
//
// The body is poisonOK fused with the canary arming — one base
// computation, no second pass, no non-inlined helper calls — because this
// runs on every hardened allocation.
//
//mesh:lockfree
func (t *ThreadHeap) hardenAlloc(class, span int, mh *miniheap.MiniHeap, off int) error {
	data := t.phys[class][span]
	if data == nil {
		return nil
	}
	g := t.global
	objSize := mh.ObjectSize()
	base := off * objSize
	if g.faults.Should(faultinject.SiteHardenPoison) {
		data[base] ^= 0xff
	}
	n := harden.PoisonLen(objSize)
	for i := 0; i < n; i += 8 {
		if load64(data, base+i) != harden.PoisonWord {
			g.harden.NoteViolation()
			g.trHarden.Event(trace.EvHardenViolation, mh.AddrOf(off), uint64(faultinject.SiteHardenPoison)) //mesh:slowpath — violation reporting
			return t.retireAttached(class, span, off, mh.AddrOf(off))                                       //mesh:slowpath — corruption containment
		}
	}
	t.hardenPasses++
	data[base] = 0
	store64(data, base+objSize-harden.CanarySize, g.harden.Canary(class, off))
	return nil
}

// hardenFreeLocal runs the hardened half of a local free of slot off on the
// class's attached span at index span: canary verification (overflow
// detection), the probabilistic double-free precheck, and the poison fill.
// A canary violation retires the span —
// this thread owns it, so it is the safe retirer — and surfaces
// ErrHeapCorruption; a poisoned payload surfaces ErrDoubleFree without
// touching the shuffle vector, restoring the cross-thread double-free
// detection the remote-free queues gave up.
//
// The body is canaryOK fused with a single-pass poison precheck-and-fill:
// each payload word is read (double-free evidence) and rewritten to
// PoisonWord in the same sweep, so the free path scans the slot once, not
// twice — this runs on every hardened free.
//
//mesh:lockfree
func (t *ThreadHeap) hardenFreeLocal(class, span int, mh *miniheap.MiniHeap, off int, addr uint64) error {
	data := t.phys[class][span]
	if data == nil {
		return nil
	}
	if !mh.Bitmap().IsSet(off) {
		// Wild free of a slot that was never handed out: no armed canary to
		// judge — leave it to the legacy path rather than retire a healthy
		// span over a caller bug.
		return nil
	}
	g := t.global
	objSize := mh.ObjectSize()
	base := off * objSize
	cbase := base + objSize - harden.CanarySize
	if g.faults.Should(faultinject.SiteHardenCanary) {
		data[cbase] ^= 0xff
	}
	if load64(data, cbase) != g.harden.Canary(class, off) {
		g.harden.NoteViolation()
		g.trHarden.Event(trace.EvHardenViolation, mh.AddrOf(off), uint64(faultinject.SiteHardenCanary)) //mesh:slowpath — violation reporting
		return t.retireAttached(class, span, -1, addr)                                                  //mesh:slowpath — corruption containment
	}
	t.hardenPasses++
	n := harden.PoisonLen(objSize)
	poisoned := true
	for i := 0; i < n; i += 8 {
		if load64(data, base+i) != harden.PoisonWord {
			poisoned = false
			store64(data, base+i, harden.PoisonWord)
		}
	}
	if poisoned {
		g.invalidFree.Add(1)
		return fmt.Errorf("%w: %#x (payload fully poisoned)", ErrDoubleFree, addr) //mesh:slowpath — error construction
	}
	return nil
}

// allocClassFor maps a request size to its size class. Once hardening has
// ever been enabled, every small allocation reserves CanarySize trailing
// bytes — keyed on the sticky bit, not the live one, because hardened
// spans outlive a runtime disable and allocations they serve must still
// fit above the guard word. The never-enabled cost is the one atomic
// flags load.
//
//mesh:lockfree
func (t *ThreadHeap) allocClassFor(size int) (int, bool) {
	if size <= 0 {
		return 0, false
	}
	if t.global.harden.EverEnabled() {
		return sizeclass.ClassForSize(size + harden.CanarySize)
	}
	return sizeclass.ClassForSize(size)
}

// retireAttached contains corruption found on this thread's attached span
// at index span of class. Every span attached for the class is detached
// (detachClass): owner sinks withdrawn, the shuffle vector's reserved
// slots returned to their bitmaps (they are not live objects and must not
// count as lost), fast-path handles cleared. The corrupt span is then
// retired under its shard lock and the class's other spans go back to the
// bins, so the next malloc refills. clearOff, when >= 0, is a slot of the
// corrupt span the caller had reserved but never handed out — its bit is
// returned too. The typed error names the object that tripped the check.
func (t *ThreadHeap) retireAttached(class, span int, clearOff int, addr uint64) error {
	spans := t.detachClass(class)
	mh := spans[span]
	if clearOff >= 0 {
		mh.Bitmap().Unset(clearOff)
	}
	t.global.retireDetached(mh)
	last := len(spans) - 1
	spans[span] = spans[last]
	var err error
	if last > 0 {
		err = t.global.releaseSpans(spans[:last])
	}
	clear(spans)
	return errors.Join(fmt.Errorf("%w: span %#x, object %#x", ErrHeapCorruption, mh.SpanStart(), addr), err)
}

// retireDetached detaches and retires a span under its shard lock — the
// thread-side entry to retirement.
func (g *GlobalHeap) retireDetached(mh *miniheap.MiniHeap) {
	cs := &g.classes[mh.SizeClass()]
	cs.lock()
	mh.Detach()
	g.retireLocked(cs, mh)
	cs.unlock()
}

// retireLocked contains a corrupt span: it leaves its bin, its live
// objects are counted lost (and written off the live-byte gauge), its
// bitmap is cleared so integrity census and occupancy logic see an empty
// span, and its virtual spans are unmapped — further data access through
// them faults — with the backing memory punched once the last mapping
// drops. The arena page-map registration is deliberately kept: a later
// free of a lost object routes here and surfaces ErrHeapCorruption
// instead of ErrInvalidFree, and the virtual range is never reused. The
// MiniHeap stays in the class registry forever; Retire is one-way and
// idempotent. Caller holds cs.mu; mh must be detached and unpinned.
func (g *GlobalHeap) retireLocked(cs *classState, mh *miniheap.MiniHeap) {
	if !mh.Retire() {
		return
	}
	g.unbinLocked(cs, mh)
	lost := mh.Bitmap().InUse()
	mh.Bitmap().Reset()
	g.liveBytes.Add(int64(-lost * mh.ObjectSize()))
	g.harden.NoteRetired(uint64(lost))
	g.trHarden.Event(trace.EvSpanRetired, mh.SpanStart(), uint64(lost))
	pages := mh.SpanPages()
	for _, vbase := range mh.Spans() {
		phys, refs, err := g.os.Unmap(vbase, pages)
		if err == nil && refs == 0 {
			_ = g.arena.RetirePhys(phys)
		}
	}
}

// freeRetiredLocked settles a free that routed to a retired span. A
// pre-accounted queue entry was counted lost at retirement after its free
// was already accounted at enqueue — give the object back on both gauges
// and absorb (the originating Free returned long ago). Anything else
// surfaces the containment error to the caller. Caller holds cs.mu.
func (g *GlobalHeap) freeRetiredLocked(mh *miniheap.MiniHeap, addr uint64, preAccounted bool) (bool, error) {
	if preAccounted {
		g.liveBytes.Add(int64(mh.ObjectSize()))
		g.harden.NoteUnretired()
		return false, nil
	}
	return false, fmt.Errorf("%w: object %#x on retired span %#x", ErrHeapCorruption, addr, mh.SpanStart())
}

// repoisonFreeSlotsLocked restores the poison fill over every free slot of
// a hardened span. The mesh engine calls it when a pair finishes or
// aborts: frees that landed while the span was pinned skipped their poison
// write (a poison store into a write-protected copy source would fault
// into the barrier the engine itself holds — deadlock), and a copy may
// have parked dead source bytes in destination slots the merged bitmap
// leaves free. Caller holds cs.mu with the span unpinned or about to be.
func (g *GlobalHeap) repoisonFreeSlotsLocked(mh *miniheap.MiniHeap) {
	if !mh.Hardened() || mh.IsRetired() {
		return
	}
	data := g.physWindow(mh)
	if data == nil {
		return
	}
	objSize := mh.ObjectSize()
	for off := 0; off < mh.ObjectCount(); off++ {
		if !mh.Bitmap().IsSet(off) {
			poisonSlot(data, objSize, off)
		}
	}
}

// Harden returns the heap's hardening plane, for the harden.* control
// surface and stats export.
func (g *GlobalHeap) Harden() *harden.Plane { return g.harden }

// HardenStats returns a snapshot of the hardening counters
// (stats.harden.*).
func (g *GlobalHeap) HardenStats() harden.Stats { return g.harden.Snapshot() }

// AuditSlice is the background corruption auditor: walk up to
// harden.AuditSpans detached, unpinned hardened spans, verifying every
// live slot's canary, every free slot's poison fill, and the span's
// page-map registration. A failed span is retired in place. The walk is
// resumable — a packed (class, registry index) cursor carries position
// between wakes — so coverage is incremental and each wake's shard-lock
// holds stay short. Returns the spans walked and the violations found
// this slice. Called by the meshd daemon; safe (but pointless) to call
// concurrently.
func (g *GlobalHeap) AuditSlice() (audited, violations int) {
	if !g.harden.EverEnabled() {
		return 0, 0
	}
	budget := harden.AuditSpans
	cur := g.auditCursor.Load()
	class := int(cur >> 32)
	idx := int(cur & 0xffffffff)
	if class >= sizeclass.NumClasses {
		class, idx = 0, 0
	}
	// Registry sets mutate between wakes (swap-remove), so the saved index
	// is a position hint, not an identity: the auditor trades exact
	// round-robin fairness for never holding more than one shard lock.
	for visited := 0; budget > 0 && visited <= sizeclass.NumClasses; {
		cs := &g.classes[class]
		cs.lock()
		items := cs.reg.items
		for idx < len(items) && budget > 0 {
			mh := items[idx]
			idx++
			if !mh.Hardened() || mh.IsAttached() || mh.IsPinned() || mh.IsRetired() {
				continue
			}
			audited++
			budget--
			if !g.auditSpanLocked(cs, mh) {
				violations++
			}
		}
		exhausted := idx >= len(items)
		cs.unlock()
		if !exhausted {
			break
		}
		class = (class + 1) % sizeclass.NumClasses
		idx = 0
		visited++
	}
	g.auditCursor.Store(uint64(class)<<32 | uint64(idx))
	g.harden.NoteAudited(uint64(audited))
	return audited, violations
}

// auditSpanLocked validates one detached hardened span: canaries under
// every set bit, poison under every clear bit, and bitmap/page-map
// agreement (each virtual span must resolve back to this MiniHeap).
// Returns false — after retiring the span — when any check fails. Caller
// holds cs.mu.
func (g *GlobalHeap) auditSpanLocked(cs *classState, mh *miniheap.MiniHeap) bool {
	data := g.physWindow(mh)
	if data == nil {
		return true
	}
	ok := true
	for off := 0; ok && off < mh.ObjectCount(); off++ {
		if mh.Bitmap().IsSet(off) {
			ok = g.canaryOK(data, mh, off, nil)
		} else {
			ok = g.poisonOK(data, mh, off, nil)
		}
	}
	if ok {
		for _, vbase := range mh.Spans() {
			if g.arena.Lookup(vbase) != mh {
				g.harden.NoteViolation()
				g.trHarden.Event(trace.EvHardenViolation, vbase, 0)
				ok = false
				break
			}
		}
	}
	if !ok {
		g.retireLocked(cs, mh)
	}
	return ok
}

// drainHardened settles one taken remote-free segment's entries for a
// hardened span still attached to this heap: each entry runs the full
// hardened free protocol — canary verification, double-free precheck,
// poison — before its slot re-enters the shuffle vector (or parks in
// quarantine). Detected duplicates are dropped with their enqueue-time
// accounting unwound and excluded from the returned drained count, so
// queued == drained still holds at quiescence. A canary violation retires
// the span (hardenFreeLocal); the violating entry's object was counted
// lost at retirement after its free was accounted at enqueue, so the
// object is given back on both gauges, and the segment's remaining
// entries settle by address like any stale entry.
func (t *ThreadHeap) drainHardened(mh *miniheap.MiniHeap, s *remoteSeg, cnt int, reached *bool) int {
	g := t.global
	settled := cnt
	quarOn := g.harden.QuarantineEnabled()
	c, span := mh.SizeClass(), mh.OwnerIndex()
	for i := 0; i < cnt; i++ {
		off := int(s.offs[i])
		addr := mh.AddrOf(off)
		if !mh.OwnedBy(&t.sink) {
			if !t.settleStale(mh, addr, reached) {
				settled--
			}
			continue
		}
		herr := t.hardenFreeLocal(c, span, mh, off, addr)
		switch {
		case herr == nil:
			if quarOn {
				t.quarPark(addr, true)
			} else {
				t.svs[c].Free(span, off)
			}
		case errors.Is(herr, ErrDoubleFree):
			g.noteRemoteUnqueued(int64(mh.ObjectSize()), 1)
			settled--
		case errors.Is(herr, ErrHeapCorruption):
			g.liveBytes.Add(int64(mh.ObjectSize()))
			g.harden.NoteUnretired()
		}
	}
	return settled
}

// quarantineLocal diverts a hardened local free into the delayed-reuse
// ring instead of the shuffle vector: the slot is verified and poisoned
// exactly like a direct local free, then parked — bitmap bit still set,
// accounting deferred — until evicted or drained. handled reports whether
// this path consumed the free; false falls through to the normal path
// (non-local address, unhardened span, or no physical window).
func (t *ThreadHeap) quarantineLocal(addr uint64) (handled bool, err error) {
	mh := t.global.arena.Lookup(addr)
	if mh == nil || !mh.Hardened() || !mh.OwnedBy(&t.sink) {
		return false, nil
	}
	c, span := mh.SizeClass(), mh.OwnerIndex()
	if t.phys[c][span] == nil {
		return false, nil
	}
	off, oerr := mh.OffsetOf(addr)
	if oerr != nil {
		return true, oerr
	}
	if herr := t.hardenFreeLocal(c, span, mh, off, addr); herr != nil {
		return true, herr
	}
	t.quarPark(addr, false)
	return true, nil
}

// quarPark parks one poisoned free in the quarantine ring, settling the
// oldest resident first when the ring is full — quarantine delays reuse,
// it never refuses a free.
func (t *ThreadHeap) quarPark(addr uint64, preAccounted bool) {
	e := harden.Pack(addr, preAccounted)
	for !t.quar.Push(e) {
		t.settleOldestQuarantined()
	}
	t.global.harden.NoteQuarantined(1)
}

func (t *ThreadHeap) settleOldestQuarantined() {
	if e, ok := t.quar.Pop(); ok {
		t.settleQuarantined(e)
	}
}

// settleQuarantined completes one parked free through the real free path:
// back onto the shuffle vector while its span is still attached (with the
// deferred accounting, unless the free was pre-accounted at remote-free
// enqueue), or through the shard-locked path for spans that detached or
// meshed while the free was parked. Never through a remote queue — a
// parked free already passed this heap's double-free precheck, and
// re-queueing it would trip another owner's. Retirement while parked is
// absorbed: the originating Free already returned.
func (t *ThreadHeap) settleQuarantined(entry uint64) {
	addr, pre := harden.Unpack(entry)
	g := t.global
	g.harden.NoteUnquarantined(1)
	mh := g.arena.Lookup(addr)
	if mh != nil && !mh.IsRetired() && mh.OwnedBy(&t.sink) {
		if off, err := mh.OffsetOf(addr); err == nil {
			t.svs[mh.SizeClass()].Free(mh.OwnerIndex(), off)
			if !pre {
				g.noteLocalFree(mh.ObjectSize())
			}
			return
		}
	}
	if pre {
		if reached, _ := g.freeQueuedStale(addr); reached {
			g.maybeMesh()
		}
		return
	}
	_ = g.freeResolved(addr, mh)
}

// drainQuarantine settles every parked free; Done calls it after the
// remote queue closes and before the attached spans release, so a heap
// leaves nothing behind.
func (t *ThreadHeap) drainQuarantine() {
	for {
		e, ok := t.quar.Pop()
		if !ok {
			return
		}
		t.settleQuarantined(e)
	}
}

// QuarantineResident reports how many frees are currently parked in this
// heap's quarantine ring. Safe from any goroutine.
func (t *ThreadHeap) QuarantineResident() int { return t.quar.Resident() }

// AuditQuarantine validates the quarantine ring's structural invariants —
// stamps never run backwards, resident count within capacity. Safe from
// any goroutine; the background auditor and the litmus tests call it.
func (t *ThreadHeap) AuditQuarantine() error {
	h, tl := t.quar.Stamps()
	if tl < h {
		return fmt.Errorf("core: quarantine stamps ran backwards (head %d, tail %d)", h, tl)
	}
	if tl-h > harden.RingCap {
		return fmt.Errorf("core: quarantine resident %d exceeds capacity %d", tl-h, harden.RingCap)
	}
	return nil
}
