// Package pagemap is the two-level radix map from page offsets to
// per-page pointers (tcmalloc-pagemap style) behind both the arena's
// offset-to-MiniHeap owner map and the VM page table.
//
// A page offset's high rootBits select a lazily allocated leaf and its
// low leafBits select the slot inside it. Slots are atomic pointers, so
// Load is two atomic loads and takes no lock; writers publish with atomic
// stores, and whoever owns a slot's value serializes conflicting updates.
// Leaves are never reclaimed: the simulated address space is a bump
// pointer that never reuses addresses, so a leaf stays valid forever once
// published, and a slot cleared to nil stays nil.
package pagemap

import (
	"fmt"
	"sync/atomic"
)

const (
	leafBits = 15
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
	rootBits = 17
	rootSize = 1 << rootBits
	// MaxPages is the number of pages a Map can describe: 2^32 pages =
	// 16 TiB of cumulative reservations. The root array this costs is
	// 1 MiB of lazily faulted pointers per map; since addresses are never
	// recycled, this bounds an address space's lifetime churn, not its
	// live size, and is a hard capacity that Slot enforces.
	MaxPages = 1 << (rootBits + leafBits)
)

// Map maps page offsets in [0, MaxPages) to *T. The zero Map is empty
// and ready to use; all methods are safe for concurrent use.
type Map[T any] struct {
	root [rootSize]atomic.Pointer[leaf[T]]
}

// leaf is one second-level block of slots.
type leaf[T any] [leafSize]atomic.Pointer[T]

// Slot returns the slot for page offset off, allocating its leaf on first
// touch. Concurrent first touches race benignly: the loser's leaf is
// discarded by the CompareAndSwap and the published one is reloaded.
// Slot panics when off is not below MaxPages.
func (m *Map[T]) Slot(off uint64) *atomic.Pointer[T] {
	if off >= MaxPages {
		panic(fmt.Sprintf("pagemap: page offset %#x outside the map's %d-page range", off, MaxPages))
	}
	head := &m.root[off>>leafBits]
	l := head.Load()
	for l == nil {
		fresh := new(leaf[T])
		if head.CompareAndSwap(nil, fresh) {
			l = fresh
		} else {
			l = head.Load()
		}
	}
	return &l[off&leafMask]
}

// Load returns the pointer at page offset off with two atomic loads, or
// nil when the slot is unset or off is out of range. An address below the
// map's base wraps to an offset past MaxPages, so wild pointers resolve to
// nil, not a panic.
//
//mesh:lockfree
func (m *Map[T]) Load(off uint64) *T {
	if off >= MaxPages {
		return nil
	}
	l := m.root[off>>leafBits].Load()
	if l == nil {
		return nil
	}
	return l[off&leafMask].Load()
}
