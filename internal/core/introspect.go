package core

import (
	"fmt"
	"time"

	"repro/internal/harden"
	"repro/internal/miniheap"
	"repro/internal/sizeclass"
)

// ClassStats describes one size class's spans — the kind of information
// the C++ implementation exposes through the mallctl interface.
type ClassStats struct {
	SizeClass    int
	ObjectSize   int
	SpanPages    int
	Spans        int // live MiniHeaps (attached + detached)
	AttachedSpan int // spans currently owned by thread heaps
	MeshedSpans  int // extra virtual spans created by meshing
	RetiredSpans int // corrupt spans retired by hardening containment
	LiveObjects  int
	Capacity     int // total object slots across spans (retired excluded)
}

// Occupancy returns the class's live fraction in [0,1].
func (c ClassStats) Occupancy() float64 {
	if c.Capacity == 0 {
		return 0
	}
	return float64(c.LiveObjects) / float64(c.Capacity)
}

// ClassStatsSnapshot returns per-class span statistics. Each class is
// snapshotted under its own shard lock, so the rows are internally
// consistent per class but the table as a whole is not an atomic
// cross-class snapshot — the same deal mallctl gives a live allocator.
func (g *GlobalHeap) ClassStatsSnapshot() []ClassStats {
	out := make([]ClassStats, sizeclass.NumClasses)
	for c := range g.classes {
		gcs := &g.classes[c]
		cs := ClassStats{
			SizeClass:  c,
			ObjectSize: sizeclass.Size(c),
			SpanPages:  sizeclass.SpanPages(c),
		}
		gcs.lock()
		for _, mh := range gcs.reg.items {
			cs.Spans++
			if mh.IsRetired() {
				// Retired spans stay registered forever (their addresses
				// must keep resolving to typed errors) but serve nothing.
				cs.RetiredSpans++
				continue
			}
			if mh.IsAttached() {
				cs.AttachedSpan++
			}
			cs.MeshedSpans += mh.MeshCount() - 1
			cs.LiveObjects += mh.InUse()
			cs.Capacity += mh.ObjectCount()
		}
		gcs.unlock()
		out[c] = cs
	}
	return out
}

// LargeStats summarizes large-object allocations.
type LargeStats struct {
	Objects int
	Bytes   int64
}

// LargeStatsSnapshot returns the current large-object census.
func (g *GlobalHeap) LargeStatsSnapshot() LargeStats {
	g.largeMu.Lock()
	defer g.largeMu.Unlock()
	var ls LargeStats
	for _, mh := range g.large {
		ls.Objects++
		ls.Bytes += int64(mh.SpanBytes())
	}
	return ls
}

// UsableSize returns the number of bytes usable at addr — the size class's
// object size, or the whole page-rounded span for large objects (the
// malloc_usable_size of the interposed API). Size-classed spans take the
// owning class's shard lock: a concurrent meshing fix-up mutates detached
// MiniHeaps' span lists under it, and the lookup must not observe one
// mid-remap. Large spans are immutable after allocation and need no lock.
func (g *GlobalHeap) UsableSize(addr uint64) (int, error) {
	mh := g.arena.Lookup(addr)
	if mh == nil {
		return 0, fmt.Errorf("%w: %#x", ErrInvalidFree, addr)
	}
	if mh.IsLarge() {
		return mh.SpanBytes(), nil
	}
	cs := &g.classes[mh.SizeClass()]
	cs.lock()
	defer cs.unlock()
	mh = g.arena.Lookup(addr) // authoritative under the shard lock
	if mh == nil || mh.IsLarge() {
		return 0, fmt.Errorf("%w: %#x", ErrInvalidFree, addr)
	}
	if mh.IsRetired() {
		return 0, fmt.Errorf("%w: object %#x on retired span %#x", ErrHeapCorruption, addr, mh.SpanStart())
	}
	if _, err := mh.OffsetOf(addr); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidFree, err)
	}
	if mh.Hardened() {
		// The trailing guard word is allocator metadata, not payload.
		return mh.ObjectSize() - harden.CanarySize, nil
	}
	return mh.ObjectSize(), nil
}

// SetMeshPeriod adjusts the meshing rate limit at runtime — the paper's
// mallctl control ("settable at program startup and during runtime by the
// application", §4.5).
func (g *GlobalHeap) SetMeshPeriod(d time.Duration) { g.meshPeriod.Store(int64(d)) }

// SetMeshingEnabled toggles the compaction engine at runtime.
func (g *GlobalHeap) SetMeshingEnabled(enabled bool) { g.meshEnabled.Store(enabled) }

// MeshPeriod returns the current rate limit.
func (g *GlobalHeap) MeshPeriod() time.Duration {
	return time.Duration(g.meshPeriod.Load())
}

// MeshingEnabled reports whether the compaction engine is on.
func (g *GlobalHeap) MeshingEnabled() bool { return g.meshEnabled.Load() }

// SetMinMeshSavings adjusts the pass-productivity threshold (§4.5) at
// runtime.
func (g *GlobalHeap) SetMinMeshSavings(bytes int) { g.minSavings.Store(int64(bytes)) }

// MinMeshSavings returns the current pass-productivity threshold.
func (g *GlobalHeap) MinMeshSavings() int { return int(g.minSavings.Load()) }

// SetMaxPause adjusts the pause budget of the daemon's meshing passes at
// runtime; d must be positive.
func (g *GlobalHeap) SetMaxPause(d time.Duration) { g.maxPause.Store(int64(d)) }

// MaxPause returns the current pause budget of the daemon's passes.
func (g *GlobalHeap) MaxPause() time.Duration {
	return time.Duration(g.maxPause.Load())
}

// CheckIntegrity validates the global heap's structural invariants. It is
// meant for tests and debugging: it takes the mesh barrier, every shard
// lock (in ascending class order — the one operation allowed to hold more
// than one), and the large lock, so it pauses the world like no regular
// operation does.
//
// Invariants checked:
//   - every binned MiniHeap is detached, partially full, and in the bin
//     matching its occupancy;
//   - every shard's non-empty bitmask matches its bins' contents;
//   - every MiniHeap in a full set is detached and full;
//   - every member of a bin, full set or registry carries that set's tag
//     and its own index in its membership slot, and every tag a registered
//     MiniHeap carries names a set that holds it at that index;
//   - every registered MiniHeap resolves back to itself through the
//     arena's lock-free page map for each of its virtual spans;
//   - every detached non-empty MiniHeap has a bin slot, and no attached
//     one does;
//   - when no thread heap holds an attached span, the live-byte counter
//     equals the bitmap census. (Attached spans carry shuffle-vector
//     reservations — bits set for slots no one has allocated yet, §4.1 —
//     so the census is only exact at quiescence.)
//
// CheckInvariants is CheckIntegrity under the name the robustness
// surface uses: the debug.check_invariants control and the chaos suite
// call it after every injected fault to prove the abort and recovery
// protocols left the heap structurally sound.
func (g *GlobalHeap) CheckInvariants() error { return g.CheckIntegrity() }

func (g *GlobalHeap) CheckIntegrity() error {
	// Serialize with any in-flight engine class visit (which parks pinned,
	// momentarily bin-less spans between its critical sections): the mesh
	// barrier is held for a visit's whole protect→remap window, so under
	// barrier + shard locks every span is in a steady state.
	g.meshBarrier.Lock()
	defer g.meshBarrier.Unlock()
	for c := range g.classes {
		g.classes[c].lock() //mesh:lockorder-ok — deliberate ascending sweep over all shards; no other path locks two shards at once
	}
	defer func() {
		for c := len(g.classes) - 1; c >= 0; c-- {
			g.classes[c].unlock()
		}
	}()
	g.largeMu.Lock()
	defer g.largeMu.Unlock()

	var census int64
	attachedSpans := 0
	for c := range g.classes {
		cs := &g.classes[c]
		for _, set := range append(cs.bins[:], cs.full, cs.reg) {
			for i, mh := range set.items {
				if s := *mh.Slot(set.slot); s.Tag != set.tag || s.Pos != i {
					return fmt.Errorf("class %d: MiniHeap %d at index %d of the set tagged %d (slot %d) records %+v",
						c, mh.ID(), i, set.tag, set.slot, s)
				}
			}
		}
		for b := range cs.bins {
			if got, want := cs.nonEmpty&(1<<uint(b)) != 0, cs.bins[b].len() > 0; got != want {
				return fmt.Errorf("class %d: non-empty mask bit %d is %v, bin holds %d",
					c, b, got, cs.bins[b].len())
			}
			for _, mh := range cs.bins[b].items {
				if mh.IsAttached() {
					return fmt.Errorf("class %d: attached MiniHeap %d in bin %d", c, mh.ID(), b)
				}
				if mh.IsEmpty() || mh.IsFull() {
					return fmt.Errorf("class %d: bin %d holds %v", c, b, mh)
				}
				if got := mh.Bin(); got != b {
					return fmt.Errorf("class %d: MiniHeap %d occupancy bin %d filed under %d",
						c, mh.ID(), got, b)
				}
				if !cs.reg.contains(mh) {
					return fmt.Errorf("class %d: binned MiniHeap %d not in registry", c, mh.ID())
				}
			}
		}
		for _, mh := range cs.full.items {
			if mh.IsAttached() || !mh.IsFull() {
				return fmt.Errorf("class %d: full set holds %v", c, mh)
			}
			if !cs.reg.contains(mh) {
				return fmt.Errorf("class %d: full MiniHeap %d not in registry", c, mh.ID())
			}
		}
		for _, mh := range cs.reg.items {
			tag := mh.Slot(miniheap.BinSlot).Tag
			switch {
			case mh.IsAttached() && tag != tagNone:
				return fmt.Errorf("class %d: attached MiniHeap %d has bin tag %d", c, mh.ID(), tag)
			case mh.IsAttached():
				attachedSpans++
			case tag == tagNone && !mh.IsEmpty():
				return fmt.Errorf("class %d: detached MiniHeap %d in no bin", c, mh.ID())
			case tag != tagNone && !cs.holdsBinTagged(tag, mh):
				return fmt.Errorf("class %d: MiniHeap %d tagged for set %d it is not in", c, mh.ID(), tag)
			}
			for _, vbase := range mh.Spans() {
				if got := g.arena.Lookup(vbase); got != mh {
					return fmt.Errorf("class %d: span %#x of MiniHeap %d resolves to %v",
						c, vbase, mh.ID(), got)
				}
			}
			census += int64(mh.InUse() * mh.ObjectSize())
		}
	}
	for vbase, mh := range g.large {
		if !mh.IsLarge() {
			return fmt.Errorf("large registry holds non-large %v", mh)
		}
		if got := g.arena.Lookup(vbase); got != mh {
			return fmt.Errorf("large span %#x resolves to %v", vbase, got)
		}
		census += int64(mh.SpanBytes())
	}
	if live := g.liveBytes.Load(); attachedSpans == 0 && live != census {
		return fmt.Errorf("liveBytes %d != bitmap census %d", live, census)
	}
	return nil
}

// holdsBinTagged reports whether the bin or full set that tag names holds
// mh at the index its bin slot records. Caller holds cs.mu.
func (cs *classState) holdsBinTagged(tag uint8, mh *miniheap.MiniHeap) bool {
	switch {
	case tag == tagFull:
		return cs.full.contains(mh)
	case tag >= tagBin0 && tag < tagFull:
		return cs.bins[tag-tagBin0].contains(mh)
	}
	return false
}
