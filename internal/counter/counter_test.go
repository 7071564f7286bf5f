package counter

import (
	"sync"
	"testing"
	"unsafe"
)

func TestStripeFillsACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(stripe{}); got != 64 {
		t.Fatalf("stripe is %d bytes, want 64", got)
	}
}

// TestIncSumsExactlyAtQuiescence has goroutines add on overlapping
// stripes at once; once they are done, Load is the exact total. Run
// under -race.
func TestIncSumsExactlyAtQuiescence(t *testing.T) {
	const goroutines, perGoroutine = 8, 10_000
	var c Striped
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				c.Inc(uint64(g*7 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perGoroutine {
		t.Fatalf("Load = %d, want %d", got, goroutines*perGoroutine)
	}
}
