package pagemap

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLoadEdges loads the corners of the range: both ends, unset slots in
// touched and untouched leaves, and offsets past the range, including the
// wrapped offset of a page just below the base.
func TestLoadEdges(t *testing.T) {
	m := new(Map[int])
	first, last := 1, 2
	m.Slot(0).Store(&first)
	m.Slot(MaxPages - 1).Store(&last)
	base, below := uint64(1<<20), uint64(1<<20-1)
	cases := []struct {
		name string
		off  uint64
		want *int
	}{
		{"offset 0", 0, &first},
		{"last offset", MaxPages - 1, &last},
		{"unset slot in a touched leaf", 1, nil},
		{"untouched leaf", 3 * leafSize, nil},
		{"MaxPages", MaxPages, nil},
		{"wrapped offset below the base", below - base, nil},
	}
	for _, tc := range cases {
		if got := m.Load(tc.off); got != tc.want {
			t.Errorf("%s: Load(%#x) = %p, want %p", tc.name, tc.off, got, tc.want)
		}
	}
	m.Slot(0).Store(nil)
	if got := m.Load(0); got != nil {
		t.Errorf("cleared slot loads %p, want nil", got)
	}
}

func TestSlotPastRangePanics(t *testing.T) {
	m := new(Map[int])
	for _, off := range []uint64{MaxPages, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slot(%#x) did not panic", off)
				}
			}()
			m.Slot(off)
		}()
	}
}

// TestRacingFirstTouchesGetOneSlot races goroutines on the first touch of
// one leaf after another: every goroutine must get the same slot, so a
// store through it is what Load sees. Run under -race.
func TestRacingFirstTouchesGetOneSlot(t *testing.T) {
	const goroutines, leaves = 8, 16
	m := new(Map[int])
	for l := uint64(0); l < leaves; l++ {
		off := l*leafSize + l
		slots := make([]*atomic.Pointer[int], goroutines)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range slots {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				slots[i] = m.Slot(off)
			}(i)
		}
		start.Done()
		done.Wait()
		for i, s := range slots {
			if s != slots[0] {
				t.Fatalf("leaf %d: goroutine %d got slot %p, goroutine 0 got %p", l, i, s, slots[0])
			}
		}
		v := int(l)
		slots[0].Store(&v)
		if got := m.Load(off); got != &v {
			t.Fatalf("leaf %d: Load after a store through the raced slot = %p, want %p", l, got, &v)
		}
	}
}
