package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/meshing"
	"repro/internal/miniheap"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file is the meshing engine (§4.5): one per-class procedure,
// meshClass, run over every size class by one pass loop, meshPass. Callers
// differ only in the pause budget. Mesh — explicit compaction, the inline
// free-path trigger and the OOM ladder — passes an unbounded budget, so
// each class's fix-up is a single shard-lock hold; MeshBackground, the
// meshd daemon's unit of work, bounds every hold by mesh.max_pause.
//
// Within a class the work follows the paper's concurrent protocol
// (§4.5.2): candidate selection and write-protection under the class's
// shard lock, the object copy off the lock (racing writers are made to
// wait by the fault handler, §4.5.3), and a remap fix-up back under the
// shard lock, released and re-acquired whenever the budget is spent. The
// mesh barrier encloses each class's protect→remap window so the write
// fault hook has a single wait point (see GlobalHeap's lock-hierarchy
// comment); traffic in other size classes is never stalled.

// unboundedPause is Mesh's pause budget: no fix-up chunk ever ends early.
const unboundedPause = time.Duration(math.MaxInt64)

// Mesh runs a full meshing pass immediately, bypassing rate limiting, with
// an unbounded pause budget. The application-facing knob (the paper
// exposes meshing control through the semi-standard mallctl API), the
// inline free-path trigger, the OOM ladder and the experiment harness all
// use it. It returns the number of spans released.
func (g *GlobalHeap) Mesh() int { return g.meshPass(unboundedPause) }

// MeshBackground runs one meshing pass whose shard-lock holds are each
// bounded by mesh.max_pause plus one pair's fix-up — the meshd daemon's
// unit of work, so allocation and free latency does not grow with pass
// length. It returns the number of spans released.
func (g *GlobalHeap) MeshBackground() int {
	return g.meshPass(time.Duration(g.maxPause.Load()))
}

// maybeMesh applies §4.5's rate limiting after a free (or free batch) has
// reached the global heap. Called with no heap locks held: the freeing
// goroutine has already released its shard lock, so a due inline pass
// acquires the barrier and shard locks fresh, and a background nudge is
// delivered outside any critical section. The whole trigger is lock-free
// — frees in distinct classes must not re-serialize on scheduler state.
func (g *GlobalHeap) maybeMesh() {
	if !g.meshEnabled.Load() {
		return
	}
	// A free through the global heap re-arms a disarmed timer (§4.5).
	g.meshDisarmed.Store(false)
	if g.background.Load() {
		if f := g.meshNotify.Load(); f != nil {
			(*f)()
		}
		return
	}
	if !g.meshPastPeriod() {
		return
	}
	// Collapse concurrent free-path triggers into one inline pass; the
	// losers return immediately rather than queueing up passes that would
	// each find nothing left to mesh.
	if !g.meshInline.CompareAndSwap(false, true) {
		return
	}
	defer g.meshInline.Store(false)
	// Re-check after winning the CAS: a trigger that raced the previous
	// pass's completion would otherwise run a second, surely-empty pass
	// right behind it (the pre-check read lastMesh before that pass
	// updated it).
	if !g.meshPastPeriod() {
		return
	}
	g.Mesh()
}

// meshPastPeriod reports whether a full mesh period has elapsed since the
// last pass on the heap clock.
func (g *GlobalHeap) meshPastPeriod() bool {
	return g.clock.Now()-time.Duration(g.lastMesh.Load()) >= time.Duration(g.meshPeriod.Load())
}

// MeshDue reports whether the rate limiter would allow a pass now: meshing
// enabled, the timer armed, and a full period elapsed since the last pass.
// The daemon consults it on every wake-up.
func (g *GlobalHeap) MeshDue() bool {
	if !g.meshEnabled.Load() || g.meshDisarmed.Load() {
		return false
	}
	return g.meshPastPeriod()
}

// meshPass runs meshClass over every size class and owns the pass
// bookkeeping: pass and span counters, the rate limiter's last-mesh stamp,
// the min-savings disarm (§4.5), and the return of dirty pages to the OS.
// It returns the number of spans released.
func (g *GlobalHeap) meshPass(budget time.Duration) int {
	if !g.meshEnabled.Load() {
		return 0
	}
	released, freedBytes := 0, 0
	for class := range g.classes {
		r, f := g.meshClass(class, budget)
		released += r
		freedBytes += f
	}
	g.meshPasses.Add(1)
	g.spansMeshed.Add(uint64(released))
	g.bytesFreed.Add(uint64(freedBytes))
	g.lastMesh.Store(int64(g.clock.Now()))
	if freedBytes < int(g.minSavings.Load()) {
		g.meshDisarmed.Store(true)
	}
	// "Whenever meshing is invoked, Mesh returns pages to OS" (§4.4.1).
	_ = g.arena.FlushDirty()
	return released
}

// meshClass performs every mesh found for one size class (§4.5.2). The
// mesh barrier is held for the whole protect→remap window so the fault
// handler can make racing writers wait (§4.5.3); the class's shard lock is
// held for candidate selection and for fix-up chunks that end once budget
// is spent, never during the copy.
//
// An injected abort at mesh.protect, mesh.copy or mesh.remap abandons the
// whole class: every planned pair goes through abortPairLocked. A visit
// that claims no pairs records nothing; one that does records its plan
// hold and each fix-up chunk as pauses, and its span as mesh time.
func (g *GlobalHeap) meshClass(class int, budget time.Duration) (released, freedBytes int) {
	g.meshBarrier.Lock()
	defer g.meshBarrier.Unlock()

	cs := &g.classes[class]
	cs.lock()
	// Pauses measure lock holds — what a blocked allocation actually
	// waits — so the timer starts after acquisition, not before (the
	// engine queueing behind a busy shard is not an application pause).
	start := g.clock.Now()
	pairs := g.planClassLocked(cs, class)
	planHold := g.clock.Now() - start
	cs.unlock()
	if len(pairs) == 0 {
		// An empty visit's hold is a bin scan; recording one per class per
		// pass would drown the §4.5 bounded-pause metric in bookkeeping.
		return 0, 0
	}
	g.recordPause(planHold)
	g.trEngine.Event(trace.EvMeshProtect, uint64(class), uint64(len(pairs)))

	// Copy phase, off the lock: the source spans are write-protected, so
	// reads proceed and writers block in the fault handler until the remap
	// below releases the barrier. Frees may still clear source bits under
	// the shard lock — bits only clear, so pair disjointness is preserved
	// and the fix-up merge below sees the freshest bitmap. Copies abandoned
	// by an abort landed in dst slots that dst's bitmap still reports free,
	// so dropping them is a pure metadata no-op.
	abort := g.faults.Should(faultinject.SiteMeshProtect)
	copyErrs := make([]error, len(pairs))
	copied := 0
	for i, p := range pairs {
		if abort || g.faults.Should(faultinject.SiteMeshCopy) {
			abort = true
			break
		}
		if copyErrs[i] = g.copyPair(p); copyErrs[i] == nil {
			copied++
		}
	}
	abort = abort || g.faults.Should(faultinject.SiteMeshRemap)
	g.trEngine.Event(trace.EvMeshCopy, uint64(class), uint64(copied))

	// Fix-up phase: page-table remap and bin fix-up under the shard lock,
	// released and re-acquired whenever the budget is spent so waiting
	// same-class allocations and frees get in between chunks. Pinned pairs
	// are safe across the gap: they are in no bin, unattachable, and
	// unfreeable into a bin.
	cs.lock()
	chunkStart := g.clock.Now()
	for i, p := range pairs {
		if held := g.clock.Now() - chunkStart; held > budget {
			g.recordPause(held)
			cs.unlock()
			cs.lock()
			chunkStart = g.clock.Now()
		}
		if abort || copyErrs[i] != nil {
			g.abortPairLocked(cs, p)
			if errors.Is(copyErrs[i], ErrHeapCorruption) {
				// The copy's canary sweep caught a corrupt source: with the
				// pair aborted (span re-filed, writable, unpinned), this is a
				// safe position to contain it.
				g.retireLocked(cs, p.src)
			}
			continue
		}
		if err := g.finishPairLocked(cs, p); err != nil {
			g.abortPairLocked(cs, p)
			continue
		}
		freedBytes += p.src.SpanBytes()
		released++
		g.chargeStepCost()
	}
	g.recordPause(g.clock.Now() - chunkStart)
	cs.unlock()
	g.trEngine.Event(trace.EvMeshRemap, uint64(class), uint64(released))

	g.meshTime.Add(int64(g.clock.Now() - start))
	return released, freedBytes
}

// meshPair is one planned mesh: src's objects move onto dst's physical
// span. Both are pinned and unbinned from plan until finish/abort.
type meshPair struct {
	dst, src *miniheap.MiniHeap
}

// planClassLocked selects this class's meshable pairs (§3.3) and claims
// them: each pair's spans are removed from their occupancy bins and
// pinned, and the source's virtual spans are write-protected — writers
// never hold shard locks, so the write barrier (§4.5.2) is what keeps them
// out of the copy. Caller holds cs.mu and the mesh barrier.
func (g *GlobalHeap) planClassLocked(cs *classState, class int) []meshPair {
	// Candidates: every detached, partially full span. Full spans cannot
	// mesh with anything non-empty; empty spans are already destroyed on
	// release.
	var cands []*miniheap.MiniHeap
	for b := range cs.bins {
		cands = cs.bins[b].appendAll(cands)
	}
	if len(cands) < 2 {
		return nil
	}
	// SplitMesher expects its input in random order (§3.3).
	cs.rnd.Shuffle(len(cands), func(i, j int) {
		cands[i], cands[j] = cands[j], cands[i]
	})
	res := meshing.SplitMesher(cands, splitMesherT,
		func(a, b *miniheap.MiniHeap) bool { return a.Meshable(b) })
	// Candidate pairs are recorded first, then meshed en masse (§4.5).
	pairs := make([]meshPair, 0, len(res.Pairs))
	for _, pr := range res.Pairs {
		// Copy the emptier span's objects into the fuller span.
		dst, src := pr.Left, pr.Right
		if dst.InUse() < src.InUse() {
			dst, src = src, dst
		}
		if err := g.protectSpans(src, vm.ReadOnly); err != nil {
			// Roll back any partial protection; skip the pair.
			_ = g.protectSpans(src, vm.ReadWrite)
			continue
		}
		g.unbinLocked(cs, src)
		g.unbinLocked(cs, dst)
		src.Pin()
		dst.Pin()
		pairs = append(pairs, meshPair{dst: dst, src: src})
	}
	return pairs
}

// protectSpans sets the protection of every virtual span of mh.
// Protect-to-read-only absorbs transient injected VM faults with a
// bounded retry; a permanent failure surfaces to planClassLocked's
// rollback (unprotect what was protected, skip the pair). The
// read-write direction never fails (see vm.Protect).
func (g *GlobalHeap) protectSpans(mh *miniheap.MiniHeap, p vm.Prot) error {
	pages := mh.SpanPages()
	for _, vbase := range mh.Spans() {
		err := faultinject.RetryTransient(faultinject.DefaultRetryAttempts,
			faultinject.DefaultRetryBackoff, func() error {
				return g.os.Protect(vbase, pages, p)
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// copyPair consolidates src's live objects into dst's physical span at the
// physical layer (§4.5, Figure 1); offsets are preserved, so no pointers
// inside or outside the objects need updating. It runs without the shard
// lock — src is write-protected and both spans pinned, so the only
// concurrent mutation is frees clearing bits, which at worst copies a dead
// object into a slot the fix-up merge will leave unallocated.
func (g *GlobalHeap) copyPair(p meshPair) error {
	objSize := p.src.ObjectSize()
	copied := 0
	// Hardened pairs audit every source canary before its bytes move:
	// compaction doubles as a corruption sweep, and a violation aborts the
	// pair (typed, caller retires the source) so corrupt bytes never
	// propagate into the destination span. Meshable() pairs only
	// like-hardened spans, so the copied trailers stay position-valid.
	var srcData []byte
	if p.src.Hardened() {
		srcData = g.physWindow(p.src)
	}
	// meshScratch is reused across pairs so the copy loop allocates
	// nothing; copyPair only ever runs under the mesh barrier, so the
	// buffer is single-flight.
	g.meshScratch = p.src.Bitmap().AppendSetBits(g.meshScratch[:0])
	for _, off := range g.meshScratch {
		if srcData != nil && !g.canaryOK(srcData, p.src, off, nil) {
			return fmt.Errorf("%w: mesh copy source span %#x, object %#x", ErrHeapCorruption, p.src.SpanStart(), p.src.AddrOf(off))
		}
		if err := g.os.CopyPhys(p.dst.Phys(), off*objSize, p.src.Phys(), off*objSize, objSize); err != nil {
			return err
		}
		if g.cfg.MeshCopyCost > 0 {
			time.Sleep(g.cfg.MeshCopyCost)
		}
		copied += objSize
	}
	g.bytesCopied.Add(uint64(copied))
	return nil
}

// finishPairLocked completes one mesh: merge allocation state, retarget
// src's virtual spans at dst's physical span, release src's physical span
// to the OS, and re-file dst. Remap restores read-write protection, which
// is what lets any write-barrier waiters retry successfully once the
// barrier drops. Caller holds cs.mu (the pair's class); both spans are
// pinned and unbinned. Holding the shard lock across the Reassign is what
// gives shard-locked re-lookups their authoritative answer.
func (g *GlobalHeap) finishPairLocked(cs *classState, p meshPair) error {
	dst, src := p.dst, p.src
	pages := src.SpanPages()

	// Merge allocation state.
	dst.Bitmap().MergeFrom(src.Bitmap())

	srcPhys := src.Phys()
	lastRefs := 0
	for _, vbase := range src.Spans() {
		_, refs, err := g.os.Remap(vbase, pages, dst.Phys())
		if err != nil {
			return err
		}
		lastRefs = refs
		g.arena.Reassign(vbase, pages, dst)
	}
	dst.AbsorbSpans(src)

	// The source physical span has no mappings left; release it
	// immediately so compaction shows up in RSS (§4.4.1).
	if lastRefs == 0 {
		if err := g.arena.RetirePhys(srcPhys); err != nil {
			return err
		}
	}

	// src's metadata is dead: drop it from the class registry; dst may
	// have changed occupancy bin (or emptied entirely) while pinned.
	cs.reg.remove(src)
	src.Unpin()
	dst.Unpin()
	// Restore poison over the merged span's free slots: frees that landed
	// while the pair was pinned skipped their poison writes, and the copy
	// may have parked dead source bytes in slots the merged bitmap leaves
	// free.
	g.repoisonFreeSlotsLocked(dst)
	return g.placeDetachedLocked(cs, dst)
}

// abortPairLocked abandons a planned mesh, restoring both spans to the
// state planClassLocked found them in: writable, unpinned, and filed by
// their current occupancy. Caller holds cs.mu.
func (g *GlobalHeap) abortPairLocked(cs *classState, p meshPair) {
	_ = g.protectSpans(p.src, vm.ReadWrite)
	p.src.Unpin()
	p.dst.Unpin()
	// Frees that landed while the pair was pinned skipped their poison
	// writes, and an aborted copy may have left source bytes in dst slots
	// whose bits are free.
	g.repoisonFreeSlotsLocked(p.src)
	g.repoisonFreeSlotsLocked(p.dst)
	_ = g.placeDetachedLocked(cs, p.src)
	_ = g.placeDetachedLocked(cs, p.dst)
}

// recordPause folds one shard-lock hold by the engine into the pause
// statistics (§4.5's bounded-pause metric).
func (g *GlobalHeap) recordPause(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if budget := time.Duration(g.maxPause.Load()); d > budget {
		// Holds past the mesh.max_pause budget are the engine's failure
		// mode for §4.5's bounded-pause goal; flag each one. (Mesh runs
		// with an unbounded budget by design and simply reports against
		// the same one.)
		g.trEngine.Event(trace.EvPauseOverrun, uint64(d), uint64(budget))
	}
	g.pauseCount.Add(1)
	g.pauseTotal.Add(int64(d))
	for {
		cur := g.longestPause.Load()
		if int64(d) <= cur || g.longestPause.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	g.pauseBuckets[pauseBucket(d)].Add(1)
}

// pauseHistogram snapshots the pause distribution.
func (g *GlobalHeap) pauseHistogram() PauseHistogram {
	h := PauseHistogram{
		Count:   g.pauseCount.Load(),
		Total:   time.Duration(g.pauseTotal.Load()),
		Longest: time.Duration(g.longestPause.Load()),
	}
	for i := range h.Buckets {
		h.Buckets[i] = g.pauseBuckets[i].Load()
	}
	return h
}

// chargeStepCost advances an injected AdvancingClock by the configured
// per-pair meshing cost, making pause durations deterministic under a
// simulated clock. MeshStepCost is immutable after construction, so no
// lock is needed.
func (g *GlobalHeap) chargeStepCost() {
	if g.cfg.MeshStepCost <= 0 {
		return
	}
	if ac, ok := g.clock.(AdvancingClock); ok {
		ac.Advance(g.cfg.MeshStepCost)
	}
}
