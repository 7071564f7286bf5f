// Package sizeclass defines Mesh's segregated-fit size classes (§4 of the
// paper).
//
// Mesh uses jemalloc's size classes for objects of 1024 bytes and smaller and
// power-of-two classes for objects between 1024 bytes and 16 KiB. Allocations
// are fulfilled from the smallest class they fit in; objects larger than
// MaxSize bypass size classes entirely and are served as page-aligned large
// objects from the global arena.
//
// Span geometry follows §4: spans are multiples of the 4 KiB page containing
// between MinObjectCount (8) and MaxObjectCount (256) objects of one size.
// Having at least eight objects per span amortizes the cost of fetching a
// span from the global heap; capping at 256 keeps shuffle-vector offsets in
// one byte.
package sizeclass

import "fmt"

const (
	// PageSize is the hardware page size modeled by the VM substrate.
	PageSize = 4096

	// MaxSize is the largest size served from size-classed spans; larger
	// requests become individually tracked large objects (§4.4.3).
	MaxSize = 16384

	// MinObjectCount is the minimum number of objects per span (§4).
	MinObjectCount = 8

	// MaxObjectCount is the maximum number of objects per span; it bounds
	// shuffle-vector offsets to a single byte (§4.2). It is also the
	// capacity of a shuffle vector, which the spans a refill gathers may
	// not exceed between them.
	MaxObjectCount = 256
)

// classes lists object sizes for every size class in ascending order.
// Classes ≤ 1024 match jemalloc 3.6's spacing (quantum 16 up to 128, then
// four classes per doubling); above 1024 they are powers of two up to 16K.
// This is the "24 size classes" configuration the paper reports (§4.2 notes
// c = 24 in the current implementation for the small classes).
var classes = []int{
	16, 32, 48, 64, 80, 96, 112, 128, // quantum-spaced
	160, 192, 224, 256, // 128..256: spacing 32
	320, 384, 448, 512, // 256..512: spacing 64
	640, 768, 896, 1024, // 512..1024: spacing 128
	2048, 4096, 8192, 16384, // power-of-two classes
}

// NumClasses is the number of size classes (a compile-time constant so
// per-class arrays can be sized statically).
const NumClasses = 24

// smallLookup maps (size+15)/16 for sizes ≤ 1024 to a class index, giving
// O(1) class lookup on the malloc fast path.
var smallLookup [1024/16 + 1]int

func init() {
	if len(classes) != NumClasses {
		panic("sizeclass: expected 24 classes to match the paper")
	}
	ci := 0
	for q := 1; q <= 1024/16; q++ {
		sz := q * 16
		for classes[ci] < sz {
			ci++
		}
		smallLookup[q] = ci
	}
}

// ClassForSize returns the index of the smallest size class that can hold a
// request of size bytes, and true on success. It returns (-1, false) when
// size exceeds MaxSize (a large allocation) or size is not positive. Pure
// table lookups over immutable init-time state: safe on lock-free paths.
//
//mesh:lockfree
func ClassForSize(size int) (int, bool) {
	if size <= 0 {
		return -1, false
	}
	if size <= 1024 {
		return smallLookup[(size+15)/16], true
	}
	if size > MaxSize {
		return -1, false
	}
	// Power-of-two classes: 2048, 4096, 8192, 16384.
	for i := 20; i < len(classes); i++ {
		if size <= classes[i] {
			return i, true
		}
	}
	return -1, false
}

// Size returns the object size of class c: a lookup in immutable
// init-time state, safe on lock-free paths.
//
//mesh:lockfree
func Size(c int) int {
	return classes[c]
}

// SpanPages returns the number of 4 KiB pages per span for class c, chosen
// so spans hold between MinObjectCount and MaxObjectCount objects while
// wasting as little tail space as possible.
func SpanPages(c int) int {
	objSize := classes[c]
	// Smallest page count giving at least MinObjectCount objects.
	pages := (objSize*MinObjectCount + PageSize - 1) / PageSize
	if pages < 1 {
		pages = 1
	}
	// Cap object count at MaxObjectCount by construction: one page of
	// 16-byte objects holds 256, exactly the cap, and larger sizes hold
	// fewer, so no reduction is ever needed; verify in tests.
	return pages
}

// ObjectCount returns the number of objects per span for class c
// (spanSize / objSize, §4.1).
func ObjectCount(c int) int {
	return SpanPages(c) * PageSize / classes[c]
}

// SpanBytes returns the span size in bytes for class c.
func SpanBytes(c int) int {
	return SpanPages(c) * PageSize
}

// InternalFragmentation returns the fraction of a class-c object wasted when
// serving a request of size bytes (rounding loss), used by the evaluation
// harness to keep workloads on the same footing as the paper (§6.2.2 chooses
// 240/492-byte values so allocators use similar classes).
func InternalFragmentation(size int) float64 {
	c, ok := ClassForSize(size)
	if !ok {
		// Large objects round to whole pages.
		pages := (size + PageSize - 1) / PageSize
		return float64(pages*PageSize-size) / float64(pages*PageSize)
	}
	return float64(classes[c]-size) / float64(classes[c])
}

// Validate performs internal-consistency checks and is called from tests.
func Validate() error {
	prev := 0
	for i, sz := range classes {
		if sz <= prev {
			return fmt.Errorf("class %d size %d not increasing", i, sz)
		}
		prev = sz
		n := ObjectCount(i)
		if n < MinObjectCount || n > MaxObjectCount {
			return fmt.Errorf("class %d (size %d) holds %d objects, outside [%d,%d]",
				i, sz, n, MinObjectCount, MaxObjectCount)
		}
	}
	return nil
}
