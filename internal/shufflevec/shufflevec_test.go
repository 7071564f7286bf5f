package shufflevec

import (
	"math"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/rng"
	"repro/internal/sizeclass"
)

// Slot names one available object: its span's index and its offset within
// that span.
type Slot struct{ Span, Offset int }

// available returns v's available slots, head first.
func available(v *Vector) []Slot {
	out := make([]Slot, 0, v.n)
	for i := v.n - 1; i >= 0; i-- {
		e := v.list[i]
		out = append(out, Slot{Span: int(e >> 8), Offset: int(e & 0xff)})
	}
	return out
}

func TestAttachReservesAllFreeSlots(t *testing.T) {
	bm := bitmap.New(64)
	bm.TryToSet(3)
	bm.TryToSet(40)
	v := New(rng.New(1), true)
	if n := v.Reserve(0, bm); n != 62 {
		t.Fatalf("Reserve = %d, want 62", n)
	}
	if v.Remaining() != 62 {
		t.Fatalf("Remaining = %d, want 62", v.Remaining())
	}
	// Reserve set every bit (reserved for the owner thread).
	if bm.InUse() != 64 {
		t.Fatalf("bitmap InUse after reserve = %d, want 64", bm.InUse())
	}
	// Offsets 3 and 40 must not be available.
	for _, s := range available(v) {
		if s.Span != 0 || s.Offset == 3 || s.Offset == 40 {
			t.Fatalf("slot %+v handed out", s)
		}
	}
}

func TestMallocDrainsExactlyOnce(t *testing.T) {
	bm := bitmap.New(100)
	v := New(rng.New(2), true)
	v.Reserve(0, bm)
	v.Shuffle()
	seen := make([]bool, 100)
	for i := 0; i < 100; i++ {
		span, off, ok := v.Malloc()
		if !ok {
			t.Fatalf("exhausted after %d allocations", i)
		}
		if span != 0 || seen[off] {
			t.Fatalf("slot (%d, %d) returned twice or from a foreign span", span, off)
		}
		seen[off] = true
	}
	if _, _, ok := v.Malloc(); ok {
		t.Fatal("Malloc succeeded on exhausted vector")
	}
	if !v.IsExhausted() {
		t.Fatal("IsExhausted false after drain")
	}
}

func TestFreeMakesOffsetAvailableAgain(t *testing.T) {
	bm := bitmap.New(16)
	v := New(rng.New(3), true)
	v.Reserve(0, bm)
	v.Shuffle()
	_, off, _ := v.Malloc()
	before := v.Remaining()
	v.Free(0, off)
	if v.Remaining() != before+1 {
		t.Fatal("Free did not grow available region")
	}
	// The freed offset must eventually be returned.
	found := false
	for range [16]int{} {
		_, o, ok := v.Malloc()
		if !ok {
			break
		}
		if o == off {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("freed offset %d never reallocated", off)
	}
}

// TestDetachReturnsRemainingOffsets checks that detaching a span hands back
// exactly the slots it still had available: available lists them, DrainTo
// releases the same number, and the bitmap is left holding only the live
// objects.
func TestDetachReturnsRemainingOffsets(t *testing.T) {
	bm := bitmap.New(8)
	v := New(rng.New(4), true)
	v.Reserve(0, bm)
	v.Shuffle()
	_, a, _ := v.Malloc()
	_, b, _ := v.Malloc()
	rem := available(v)
	if len(rem) != 6 {
		t.Fatalf("available returned %d slots, want 6", len(rem))
	}
	for _, s := range rem {
		if s.Offset == a || s.Offset == b {
			t.Fatalf("allocated offset %d still listed available", s.Offset)
		}
	}
	if n := v.DrainTo(0, bm); n != 6 {
		t.Fatalf("DrainTo released %d offsets, want 6", n)
	}
	if !v.IsExhausted() {
		t.Fatal("vector not empty after DrainTo")
	}
	// Occupancy reflects only the two live objects.
	if bm.InUse() != 2 || !bm.IsSet(a) || !bm.IsSet(b) {
		t.Fatalf("bitmap InUse after detach = %d, want the 2 live objects", bm.InUse())
	}
}

// TestReservePanicsPast256Slots pins the capacity rule: the spans a vector
// reserves from may hold at most sizeclass.MaxObjectCount slots between
// them, because that bound is what keeps every Free inside the array.
func TestReservePanicsPast256Slots(t *testing.T) {
	v := New(rng.New(5), true)
	for span := 0; span < 32; span++ {
		v.Reserve(span, bitmap.New(8)) // 32 spans of 8 slots: exactly 256
	}
	if v.Remaining() != sizeclass.MaxObjectCount {
		t.Fatalf("Remaining = %d, want %d", v.Remaining(), sizeclass.MaxObjectCount)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Reserve(32, bitmap.New(8))
}

func TestNonRandomizedIsLIFO(t *testing.T) {
	bm := bitmap.New(8)
	v := New(rng.New(6), false)
	v.Reserve(0, bm)
	v.Shuffle()
	// Without randomization, reserve yields descending offsets from the
	// construction loop; record the order, then free two and verify LIFO.
	_, a, _ := v.Malloc()
	_, b, _ := v.Malloc()
	v.Free(0, a)
	v.Free(0, b)
	_, x, _ := v.Malloc()
	_, y, _ := v.Malloc()
	if x != b || y != a {
		t.Fatalf("LIFO violated: freed %d,%d got %d,%d", a, b, x, y)
	}
}

func TestRandomizedAllocationIsUniform(t *testing.T) {
	// §2.2 relies on objects being scattered uniformly: the first slot
	// allocated from fresh spans should be uniform over all their slots —
	// over one 16-slot span, and over four 4-slot spans reserved in turn
	// (the vector is shuffled as a whole, not span by span).
	for _, tc := range []struct {
		name         string
		spans, slots int
	}{{"one span", 1, 16}, {"several spans", 4, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(7)
			const trials = 32000
			counts := make([]int, tc.spans*tc.slots)
			for i := 0; i < trials; i++ {
				v := New(r, true)
				for s := 0; s < tc.spans; s++ {
					v.Reserve(s, bitmap.New(tc.slots))
				}
				v.Shuffle()
				span, off, _ := v.Malloc()
				counts[span*tc.slots+off]++
			}
			expect := float64(trials) / float64(len(counts))
			for i, c := range counts {
				if math.Abs(float64(c)-expect) > expect*0.08 {
					t.Fatalf("slot (%d, %d) chosen %d times, expect ~%.0f", i/tc.slots, i%tc.slots, c, expect)
				}
			}
		})
	}
}

func TestFreePlacementIsUniform(t *testing.T) {
	// After a free, the freed offset should be equally likely to come back
	// at any future allocation position (Figure 3c: push + random swap).
	r := rng.New(8)
	const slots = 8
	const trials = 40000
	positions := make([]int, slots)
	for tr := 0; tr < trials; tr++ {
		v := New(r, true)
		v.Reserve(0, bitmap.New(slots))
		v.Shuffle()
		_, off, _ := v.Malloc() // 7 remain
		v.Free(0, off)          // 8 again
		for pos := 0; ; pos++ {
			_, got, ok := v.Malloc()
			if !ok {
				t.Fatal("offset vanished")
			}
			if got == off {
				positions[pos]++
				break
			}
		}
	}
	expect := float64(trials) / slots
	for pos, c := range positions {
		if math.Abs(float64(c)-expect) > expect*0.10 {
			t.Fatalf("freed offset reappeared at position %d %d times, expect ~%.0f", pos, c, expect)
		}
	}
}

func TestMallocFreeChurnNeverDuplicates(t *testing.T) {
	// Property-style churn over three spans: the live slots and the
	// available slots must always partition the spans' slots.
	r := rng.New(9)
	v := New(r, true)
	for s := 0; s < 3; s++ {
		v.Reserve(s, bitmap.New(32))
	}
	v.Shuffle()
	const total = 3 * 32
	live := map[Slot]bool{}
	for step := 0; step < 20000; step++ {
		if r.Bool(0.6) && !v.IsExhausted() {
			span, off, _ := v.Malloc()
			s := Slot{span, off}
			if live[s] {
				t.Fatalf("step %d: double allocation of %+v", step, s)
			}
			live[s] = true
		} else if len(live) > 0 {
			for s := range live {
				delete(live, s)
				v.Free(s.Span, s.Offset)
				break
			}
		}
		if len(live)+v.Remaining() != total {
			t.Fatalf("step %d: live %d + avail %d != %d", step, len(live), v.Remaining(), total)
		}
	}
}

// TestReserveSeveralSpansPopsEachOnce reserves from several partly used
// bitmaps and checks that every reserved (span, offset) pair pops exactly
// once, and that no slot already in use is handed out.
func TestReserveSeveralSpansPopsEachOnce(t *testing.T) {
	const spans, slots = 5, 16
	bms := make([]*bitmap.Bitmap, spans)
	v := New(rng.New(10), true)
	want := map[Slot]bool{}
	for s := range bms {
		bms[s] = bitmap.New(slots)
		for off := 0; off < slots; off++ {
			if (off+s)%3 == 0 {
				bms[s].TryToSet(off) // a live object
			} else {
				want[Slot{s, off}] = true
			}
		}
		free := slots - bms[s].InUse()
		if got := v.Reserve(s, bms[s]); got != free {
			t.Fatalf("span %d: Reserve = %d, want %d", s, got, free)
		}
	}
	v.Shuffle()
	for len(want) > 0 {
		span, off, ok := v.Malloc()
		if !ok {
			t.Fatalf("exhausted with %d reserved slots never popped", len(want))
		}
		if !want[Slot{span, off}] {
			t.Fatalf("slot (%d, %d) popped twice or was never free", span, off)
		}
		delete(want, Slot{span, off})
	}
	if !v.IsExhausted() {
		t.Fatalf("%d slots left after every reserved slot popped", v.Remaining())
	}
}

// TestPushPopRoundTripAcrossSpans frees slots of several spans back onto a
// drained vector: exactly the pushed (span, offset) pairs pop again.
func TestPushPopRoundTripAcrossSpans(t *testing.T) {
	v := New(rng.New(11), true)
	for s := 0; s < 4; s++ {
		v.Reserve(s, bitmap.New(8))
	}
	v.Shuffle()
	var popped []Slot
	for !v.IsExhausted() {
		span, off, _ := v.Malloc()
		popped = append(popped, Slot{span, off})
	}
	pushed := map[Slot]bool{}
	for i, s := range popped {
		if i%3 == 0 {
			v.Free(s.Span, s.Offset)
			pushed[s] = true
		}
	}
	if v.Remaining() != len(pushed) {
		t.Fatalf("Remaining = %d after %d frees", v.Remaining(), len(pushed))
	}
	for !v.IsExhausted() {
		span, off, _ := v.Malloc()
		if !pushed[Slot{span, off}] {
			t.Fatalf("slot (%d, %d) popped but never pushed, or popped twice", span, off)
		}
		delete(pushed, Slot{span, off})
	}
	if len(pushed) != 0 {
		t.Fatalf("%d pushed slots never popped", len(pushed))
	}
}

// TestDrainToSpanBySpan drains a vector built from three spans one span at
// a time: each drain clears exactly the bits of that span's slots still in
// the vector, leaves the spans' live objects set, and keeps the other
// spans' entries available.
func TestDrainToSpanBySpan(t *testing.T) {
	const spans, slots = 3, 16
	bms := make([]*bitmap.Bitmap, spans)
	v := New(rng.New(12), true)
	for s := range bms {
		bms[s] = bitmap.New(slots)
		bms[s].TryToSet(s) // one live object per span before the reserve
		v.Reserve(s, bms[s])
	}
	v.Shuffle()
	live := map[Slot]bool{}
	for s := range bms {
		live[Slot{s, s}] = true
	}
	for i := 0; i < 20; i++ {
		span, off, _ := v.Malloc()
		live[Slot{span, off}] = true
	}
	for s := range bms {
		held := 0
		for _, a := range available(v) {
			if a.Span == s {
				held++
			}
		}
		before := v.Remaining()
		if n := v.DrainTo(s, bms[s]); n != held {
			t.Fatalf("span %d: DrainTo released %d, want the %d it still held", s, n, held)
		}
		if v.Remaining() != before-held {
			t.Fatalf("span %d: Remaining %d -> %d, want %d removed", s, before, v.Remaining(), held)
		}
		for _, a := range available(v) {
			if a.Span == s {
				t.Fatalf("span %d: slot %+v still available after its drain", s, a)
			}
		}
		for off := 0; off < slots; off++ {
			if bms[s].IsSet(off) != live[Slot{s, off}] {
				t.Fatalf("span %d bit %d = %v, live = %v", s, off, bms[s].IsSet(off), live[Slot{s, off}])
			}
		}
		// Spans not yet drained keep every reserved bit.
		for later := s + 1; later < spans; later++ {
			if bms[later].InUse() != slots {
				t.Fatalf("draining span %d touched span %d's bits", s, later)
			}
		}
	}
	if !v.IsExhausted() {
		t.Fatal("vector not empty after every span drained")
	}
}

func BenchmarkMallocFree(b *testing.B) {
	v := New(rng.New(1), true)
	v.Reserve(0, bitmap.New(256))
	v.Shuffle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span, off, ok := v.Malloc()
		if !ok {
			b.Fatal("exhausted")
		}
		v.Free(span, off)
	}
}

// BenchmarkRandomProbingComparison implements the bitmap random-probing
// allocation strategy of DieHard-style allocators (§4.2's comparison) so the
// bench suite can contrast its cost at high occupancy with shuffle vectors.
func BenchmarkRandomProbing90PercentFull(b *testing.B) {
	r := rng.New(1)
	bm := bitmap.New(256)
	for i := 0; i < 230; i++ { // ~90% full
		bm.TryToSet(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			idx := int(r.UintN(256))
			if bm.TryToSet(idx) {
				bm.Unset(idx)
				break
			}
		}
	}
}

// TestDrainToClearsBitmapAndEmpties checks the allocation-free detach:
// remaining offsets have their bitmap bits cleared, live objects stay set,
// and the vector comes back empty and reusable.
func TestDrainToClearsBitmapAndEmpties(t *testing.T) {
	bm := bitmap.New(16)
	v := New(rng.New(3), true)
	v.Reserve(0, bm)
	v.Shuffle()
	live := map[int]bool{}
	for i := 0; i < 5; i++ {
		_, off, ok := v.Malloc()
		if !ok {
			t.Fatal("exhausted early")
		}
		live[off] = true
	}
	if n := v.DrainTo(0, bm); n != 11 {
		t.Fatalf("DrainTo released %d offsets, want 11", n)
	}
	if !v.IsExhausted() {
		t.Fatal("vector not empty after DrainTo")
	}
	for i := 0; i < 16; i++ {
		if bm.IsSet(i) != live[i] {
			t.Fatalf("bit %d = %v, live = %v", i, bm.IsSet(i), live[i])
		}
	}
	// The vector is reusable: a fresh Reserve picks up exactly the free slots.
	v.Reserve(0, bm)
	if v.Remaining() != 11 {
		t.Fatalf("Remaining after reattach = %d, want 11", v.Remaining())
	}
}

// TestAttachSteadyStateDoesNotAllocate pins the refill path's allocation
// behavior: after the first Reserve warms the scratch buffer,
// reserve/shuffle/drain cycles over several spans allocate nothing.
func TestAttachSteadyStateDoesNotAllocate(t *testing.T) {
	bms := []*bitmap.Bitmap{bitmap.New(64), bitmap.New(64), bitmap.New(64)}
	v := New(rng.New(5), true)
	cycle := func() {
		for s, bm := range bms {
			v.Reserve(s, bm)
		}
		v.Shuffle()
		for s, bm := range bms {
			v.DrainTo(s, bm)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("reserve/drain cycle allocated %.1f times per run", allocs)
	}
}
