package core

import (
	"fmt"
	"math/bits"

	"repro/internal/sizeclass"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file implements the rest of the libc allocation surface Mesh
// interposes on (§4: "Mesh interposes on standard libc functions to
// replace all memory allocation functions"): calloc, realloc,
// aligned_alloc/posix_memalign, and malloc_usable_size.

// Calloc allocates n objects of size bytes each, zeroed. Like C calloc it
// guards against multiplication overflow.
func (t *ThreadHeap) Calloc(n, size int) (uint64, error) {
	if n < 0 || size < 0 {
		return 0, fmt.Errorf("core: invalid calloc(%d, %d)", n, size)
	}
	if n != 0 && size != 0 && n > int(^uint(0)>>1)/size {
		return 0, fmt.Errorf("core: calloc(%d, %d) overflows", n, size)
	}
	total := n * size
	if total == 0 {
		total = 1 // C allocators return a unique pointer for zero-size requests
	}
	addr, err := t.Malloc(total)
	if err != nil {
		return 0, err
	}
	// Spans may be reused dirty (§4.4.1), so calloc zeroes explicitly.
	if err := t.global.os.Memset(addr, 0, total); err != nil {
		return 0, err
	}
	return addr, nil
}

// Realloc resizes the object at addr to size bytes, copying contents and
// freeing the old object when it must move. Realloc(0, size) is Malloc;
// Realloc(addr, 0) is Free (returning 0). If the new size still fits the
// object's usable size, the address is returned unchanged — exactly the
// C realloc contract.
func (t *ThreadHeap) Realloc(addr uint64, size int) (uint64, error) {
	if addr == 0 {
		return t.Malloc(size)
	}
	if size <= 0 {
		if err := t.Free(addr); err != nil {
			return 0, err
		}
		return 0, nil
	}
	usable, err := t.global.UsableSize(addr)
	if err != nil {
		return 0, err
	}
	if size <= usable {
		return addr, nil
	}
	newAddr, err := t.Malloc(size)
	if err != nil {
		return 0, err
	}
	// Span-to-span copy through the VM's lock-free data path: no staging
	// buffer, so the growth path allocates nothing beyond the new object.
	if err := t.global.os.Copy(newAddr, addr, usable); err != nil {
		return 0, err
	}
	if err := t.Free(addr); err != nil {
		return 0, err
	}
	return newAddr, nil
}

// AlignedAlloc allocates size bytes whose address is a multiple of align
// (a power of two). Small requests are served from the smallest size class
// whose object size is a multiple of align — spans are page aligned, so
// every object in such a class is aligned. Larger alignments up to the
// page size fall through to the page-aligned large-object path.
func (t *ThreadHeap) AlignedAlloc(align, size int) (uint64, error) {
	if align <= 0 || bits.OnesCount(uint(align)) != 1 {
		return 0, fmt.Errorf("core: alignment %d is not a power of two", align)
	}
	if align > vm.PageSize {
		return 0, fmt.Errorf("core: alignment %d exceeds the page size", align)
	}
	if size <= 0 {
		return 0, fmt.Errorf("core: invalid allocation size %d", size)
	}
	// All size classes are multiples of 16, so small alignments come free.
	if align <= 16 {
		return t.Malloc(size)
	}
	// allocClassFor reserves canary space when hardening has ever been on;
	// the scan only widens the class, so Size(c) keeps covering the
	// request plus the guard word.
	if class, ok := t.allocClassFor(size); ok {
		for c := class; c < sizeclass.NumClasses; c++ {
			if sizeclass.Size(c)%align == 0 {
				return t.mallocFromClass(c)
			}
		}
	}
	// No suitable class: round up to pages (always 4 KiB aligned, §4.4.3).
	return t.global.AllocLarge(size)
}

// mallocFromClass allocates one object from an explicit size class; the
// shuffle-vector fast path shared with Malloc.
func (t *ThreadHeap) mallocFromClass(class int) (uint64, error) {
	addr, err := t.take(class)
	if err != nil {
		return 0, err
	}
	t.global.noteAlloc(sizeclass.Size(class))
	t.tr.Sampled(trace.EvAlloc, addr, uint64(sizeclass.Size(class)))
	return addr, nil
}

// take pops one object of class off its shuffle vector, refilling the
// vector while it is exhausted, and returns the object's address. It is
// the one shuffle-vector take of every small allocation path; callers do
// the accounting. On a hardened span the slot's poison fill is verified
// and its canary armed first; on violation the span is retired (the
// reserved slot returned first) and the take fails typed, so the
// caller's next attempt refills onto other spans.
func (t *ThreadHeap) take(class int) (uint64, error) {
	sv := t.svs[class]
	for sv.IsExhausted() {
		if err := t.refill(class); err != nil {
			return 0, err
		}
	}
	span, off, _ := sv.Malloc()
	mh := t.attached[class][span]
	if mh.Hardened() {
		if err := t.hardenAlloc(class, span, mh, off); err != nil {
			return 0, err
		}
	}
	return mh.AddrOf(off), nil
}

// UsableSize reports the usable bytes of the object at addr
// (malloc_usable_size).
func (t *ThreadHeap) UsableSize(addr uint64) (int, error) {
	return t.global.UsableSize(addr)
}
