// Package arena implements Mesh's global meshable arena (§4.4.1 of the
// paper): the component that owns all span-granularity memory, bins
// released spans for reuse, batches returning memory to the OS, and keeps
// the constant-time mapping from page offsets to owning MiniHeaps that
// powers non-local frees (§4.4.4).
//
// The paper's arena is a memfd-backed file mapping; here it sits on the
// simulated vm.OS. Two families of spans exist, exactly as in §4.4.1:
// demand-zeroed spans (freshly committed) and used ("dirty") spans, which
// are kept resident in per-length bins because they are likely to be needed
// again soon and reclamation is relatively expensive. Dirty pages are
// returned to the OS (punched) only after DirtyPageThreshold pages
// accumulate, or when meshing is invoked.
//
// The offset-to-MiniHeap table is a two-level radix page map of atomic
// pointers (internal/pagemap), so Lookup on the free path is two atomic
// loads and zero locking; see Lookup for the memory-ordering argument.
package arena

import (
	"fmt"
	"sync"

	"repro/internal/counter"
	"repro/internal/faultinject"
	"repro/internal/miniheap"
	"repro/internal/pagemap"
	"repro/internal/vm"
)

// DefaultDirtyPageThreshold is the dirty-page accumulation limit before the
// arena punches used spans back to the OS: 64 MiB, per §4.4.1.
const DefaultDirtyPageThreshold = 64 << 20 / vm.PageSize

// baseVPN is the first virtual page number the page map covers: the map
// is indexed by page offset from vm.ArenaBase. At ~10 pages consumed per
// span allocation, its pagemap.MaxPages capacity is good for ~400M span
// allocations over an arena's lifetime.
const baseVPN = vm.ArenaBase >> vm.PageShift

// Arena owns span allocation for one heap. All methods are safe for
// concurrent use. The mutex guards only the dirty-span reuse bins; the
// offset-to-MiniHeap page map is lock-free (readers take no lock at all,
// writers publish with atomic stores — the global heap's per-class shard
// locks serialize conflicting ownership updates above us, see
// core.GlobalHeap's lock-hierarchy comment).
type Arena struct {
	os *vm.OS

	mu          sync.Mutex
	dirty       map[int][]vm.PhysID // span length in pages -> reusable dirty spans
	dirtyPages  int
	threshold   int
	spanRelease uint64 // count of spans released (stats)

	// lookups counts Lookup calls (stats.arena.lookups), striped by page
	// number, which distributes by span and therefore by the per-worker
	// size classes that dominate traffic.
	lookups counter.Striped

	// owners maps each page, by offset from vm.ArenaBase, to the
	// MiniHeap that owns it.
	owners pagemap.Map[miniheap.MiniHeap]
}

// New creates an arena on top of os. threshold is the dirty-page punch
// threshold in pages; pass 0 for the paper's 64 MiB default.
func New(os *vm.OS, threshold int) *Arena {
	if threshold <= 0 {
		threshold = DefaultDirtyPageThreshold
	}
	return &Arena{
		os:        os,
		dirty:     make(map[int][]vm.PhysID),
		threshold: threshold,
	}
}

// OS returns the underlying simulated memory subsystem.
func (a *Arena) OS() *vm.OS { return a.os }

// AllocSpan obtains a span of the given page count, preferring a dirty span
// from the reuse bins (cheap, already resident) and falling back to a fresh
// demand-zeroed commit. It returns the virtual base address, the physical
// span id, and whether the span was reused dirty (callers that hand memory
// to applications may want to zero it; Mesh, like malloc, does not).
func (a *Arena) AllocSpan(pages int) (vbase uint64, phys vm.PhysID, reused bool, err error) {
	if pages <= 0 {
		return 0, 0, false, fmt.Errorf("arena: invalid span size %d", pages)
	}
	a.mu.Lock()
	bin := a.dirty[pages]
	if n := len(bin); n > 0 {
		phys = bin[n-1]
		a.dirty[pages] = bin[:n-1]
		a.dirtyPages -= pages
		a.mu.Unlock()
		vbase = a.os.Reserve(pages)
		err := faultinject.RetryTransient(faultinject.DefaultRetryAttempts,
			faultinject.DefaultRetryBackoff, func() error {
				return a.os.MapExisting(vbase, phys)
			})
		if err != nil {
			// Re-park the span: the map failed, but the physical pages are
			// still good — dropping them here would leak RSS on every
			// injected map fault.
			a.mu.Lock()
			a.dirty[pages] = append(a.dirty[pages], phys)
			a.dirtyPages += pages
			a.mu.Unlock()
			return 0, 0, false, err
		}
		return vbase, phys, true, nil
	}
	a.mu.Unlock()
	vbase = a.os.Reserve(pages)
	err = faultinject.RetryTransient(faultinject.DefaultRetryAttempts,
		faultinject.DefaultRetryBackoff, func() error {
			phys, err = a.os.Commit(vbase, pages)
			return err
		})
	if err != nil {
		return 0, 0, false, err
	}
	return vbase, phys, false, nil
}

// Register records mh as the owner of the span at vbase, enabling
// constant-time pointer-to-MiniHeap lookup. Ownership is published with
// atomic stores; callers must ensure the span's address has not been handed
// to the application yet (fresh spans) or that they hold the owning size
// class's shard lock (meshing's Reassign), so lock-free readers never act
// on a half-updated span.
func (a *Arena) Register(vbase uint64, pages int, mh *miniheap.MiniHeap) {
	off := vbase>>vm.PageShift - baseVPN
	for i := uint64(0); i < uint64(pages); i++ {
		a.owners.Slot(off + i).Store(mh)
	}
}

// Unregister removes the owner mapping for the span at vbase. The address
// space is never reused, so a slot cleared here stays nil forever —
// lookups racing a span teardown resolve to nil and are discarded as
// invalid frees, never to a recycled owner.
func (a *Arena) Unregister(vbase uint64, pages int) {
	off := vbase>>vm.PageShift - baseVPN
	for i := uint64(0); i < uint64(pages); i++ {
		a.owners.Slot(off + i).Store(nil)
	}
}

// Lookup resolves a pointer to its owning MiniHeap in constant time
// (§4.4.4) with two atomic loads and no locking — the hot half of every
// non-local free. It returns nil for addresses the arena does not own —
// memory errors like wild frees are thereby "easily discovered and
// discarded".
//
// A lookup racing a concurrent Reassign may return either the old or the
// new owner; both were correct owners at some instant during the call.
// Callers that need the authoritative owner (the free path's bitmap
// update) re-run Lookup under the owning size class's shard lock, which
// serializes with the meshing fix-up that performs reassignments.
//
//mesh:lockfree
func (a *Arena) Lookup(addr uint64) *miniheap.MiniHeap {
	vpn := addr >> vm.PageShift
	a.lookups.Inc(vpn)
	return a.owners.Load(vpn - baseVPN)
}

// Lookups returns the number of Lookup calls served (stats.arena.lookups).
func (a *Arena) Lookups() uint64 { return a.lookups.Load() }

// ReleaseSpan unmaps the virtual span at vbase and, if that drops the last
// mapping of its physical span, parks the physical span in the dirty bins
// for reuse. When accumulated dirty pages exceed the threshold, all dirty
// spans are punched back to the OS (§4.4.1's fallocate batching).
func (a *Arena) ReleaseSpan(vbase uint64, pages int) error {
	phys, refs, err := a.os.Unmap(vbase, pages)
	if err != nil {
		return err
	}
	if refs > 0 {
		return nil // other virtual spans still mesh onto this physical span
	}
	a.mu.Lock()
	a.dirty[pages] = append(a.dirty[pages], phys)
	a.dirtyPages += pages
	a.spanRelease++
	needFlush := a.dirtyPages > a.threshold
	a.mu.Unlock()
	if needFlush {
		return a.FlushDirty()
	}
	return nil
}

// RetirePhys immediately punches a physical span that has already lost all
// its mappings (the span meshing just emptied). Meshing calls this directly:
// "whenever meshing is invoked, Mesh returns pages to OS" (§4.4.1), which is
// what makes compaction visible in RSS right away.
func (a *Arena) RetirePhys(phys vm.PhysID) error {
	return a.os.Punch(phys)
}

// FlushDirty punches every parked dirty span back to the OS.
func (a *Arena) FlushDirty() error {
	a.mu.Lock()
	spans := a.dirty
	a.dirty = make(map[int][]vm.PhysID)
	a.dirtyPages = 0
	a.mu.Unlock()
	for _, bin := range spans {
		for _, phys := range bin {
			if err := a.os.Punch(phys); err != nil {
				return err
			}
		}
	}
	return nil
}

// DirtyPages returns the number of pages currently parked in reuse bins.
func (a *Arena) DirtyPages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dirtyPages
}

// Reassign transfers ownership of the span at vbase to a different MiniHeap
// without touching mappings; meshing uses this when the destination MiniHeap
// absorbs the source's virtual spans. The caller must hold the size class's
// shard lock (see Register).
func (a *Arena) Reassign(vbase uint64, pages int, mh *miniheap.MiniHeap) {
	a.Register(vbase, pages, mh)
}
