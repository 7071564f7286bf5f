// Package alloc defines the allocator interfaces shared by the Mesh
// allocator, the baseline allocators it is evaluated against, and the
// workload harness. Everything allocates out of the same simulated
// virtual-memory substrate (internal/vm), so RSS numbers are directly
// comparable across allocators — the property the paper's mstat tool
// provides for real processes (§6.1).
package alloc

import "repro/internal/vm"

// Heap is the per-thread allocation interface: what a worker goroutine in a
// workload uses. Implementations are not required to be safe for concurrent
// use; each worker owns its Heap.
type Heap interface {
	// Malloc allocates size bytes and returns the object's virtual address.
	Malloc(size int) (uint64, error)
	// Free releases the object at addr.
	Free(addr uint64) error
}

// Allocator is a complete allocator under test.
type Allocator interface {
	// Name identifies the allocator in reports (e.g. "mesh", "jemalloc").
	Name() string
	// NewThread returns a heap handle for one worker thread.
	NewThread() Heap
	// RSS returns resident physical memory in bytes.
	RSS() int64
	// Live returns bytes in currently allocated objects (rounded to the
	// allocator's internal granularity).
	Live() int64
	// Memory exposes the simulated address space for data access.
	Memory() *vm.OS
}

// Mesher is implemented by allocators supporting explicit compaction; the
// harness uses it for the "force a mesh now" experiments.
type Mesher interface {
	// Mesh runs one compaction pass and returns the number of spans freed.
	Mesh() int
}

// ThreadCloser is implemented by heaps that must be relinquished on worker
// exit (Mesh detaches its spans so they become meshing candidates).
type ThreadCloser interface {
	Close() error
}
