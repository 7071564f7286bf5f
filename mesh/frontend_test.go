package mesh

import (
	"errors"
	"fmt"
	"testing"
)

func readFrontU64(t *testing.T, a *Allocator, key string) uint64 {
	t.Helper()
	v, err := a.ReadControl(key)
	if err != nil {
		t.Fatalf("ReadControl(%q): %v", key, err)
	}
	return v.(uint64)
}

// TestMagazineAccountingIdentity checks the accounting contract: Stats
// is exact at application-level quiescence even while the magazines
// still hold objects (stats.frontend.cached_objects > 0), and Flush
// empties them without moving the books.
func TestMagazineAccountingIdentity(t *testing.T) {
	a := New(WithSeed(13), WithClock(NewLogicalClock()))
	var live []Ptr
	for i := 0; i < 500; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for _, p := range live {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// App-level quiescent, heap-level not: the magazines hold objects the
	// heap still counts as allocated, and Stats corrects for them.
	cached, err := a.ReadControl("stats.frontend.cached_objects")
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if cached.(int64) <= 0 {
		t.Fatalf("stats.frontend.cached_objects = %d after churn, want > 0", cached)
	}
	if st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("identity open with %d cached objects: allocs=%d frees=%d live=%d",
			cached, st.Allocs, st.Frees, st.Live)
	}
	if fills := readFrontU64(t, a, "stats.frontend.fills"); fills == 0 {
		t.Fatal("magazine traffic recorded no fills")
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	st = a.Stats()
	if st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("identity open after Flush: allocs=%d frees=%d live=%d",
			st.Allocs, st.Frees, st.Live)
	}
	if cached, _ := a.ReadControl("stats.frontend.cached_objects"); cached.(int64) != 0 {
		t.Fatalf("stats.frontend.cached_objects = %d after Flush, want 0", cached)
	}
	if flushes := readFrontU64(t, a, "stats.frontend.flushes"); flushes == 0 {
		t.Fatal("Flush drained no magazines")
	}
	requireCleanInvariants(t, a)
}

// TestMagazineTraceEvents checks the flight recorder captures the
// magazine lifecycle: fill and flush events from the frontend source.
func TestMagazineTraceEvents(t *testing.T) {
	a := New(WithSeed(17), WithClock(NewLogicalClock()),
		writeControl("trace.enabled", true), writeControl("trace.sample_rate", 1))
	var ptrs []Ptr
	for i := 0; i < 64; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	byKind := map[string]uint64{}
	for k, n := range a.TraceSnapshot().CountByKind() {
		byKind[fmt.Sprint(k)] = n
	}
	if byKind["magazine_fill"] == 0 {
		t.Errorf("no magazine_fill events recorded: %v", byKind)
	}
	if byKind["magazine_flush"] == 0 {
		t.Errorf("no magazine_flush events recorded: %v", byKind)
	}
}

// TestMagazineHardenedFreeDetectsCanarySmash pins the hardening rule of
// the front end: while hardening is on, scalar calls skip the magazines,
// so an overflow into an object's guard word is detected at its Free
// call — as a typed error with the counter algebra intact — and nothing
// parks in a magazine.
func TestMagazineHardenedFreeDetectsCanarySmash(t *testing.T) {
	a := New(WithSeed(19), WithClock(NewLogicalClock()), WithMeshing(false),
		WithHardening(true))
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	usable, err := a.UsableSize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Overflow into the guard word while the object is live.
	if err := a.Write(p+Ptr(usable), []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Fatalf("free over a smashed canary = %v, want ErrHeapCorruption", err)
	}
	if fills := readFrontU64(t, a, "stats.frontend.fills"); fills != 0 {
		t.Fatalf("hardened traffic filled %d magazines", fills)
	}
	if cached, _ := a.ReadControl("stats.frontend.cached_objects"); cached.(int64) != 0 {
		t.Fatalf("stats.frontend.cached_objects = %d under hardening, want 0", cached)
	}
	st := a.Stats().Harden
	if st.Violations == 0 {
		t.Fatal("smashed canary recorded no violation")
	}
	if st.Checks != st.Violations+st.Passes {
		t.Fatalf("checks %d != violations %d + passes %d", st.Checks, st.Violations, st.Passes)
	}
	// Containment, not crash: fresh traffic still works.
	q, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	requireCleanInvariants(t, a)
}

// TestMagazineHardenedRoundTripStaysClean drives hardened scalar traffic
// through the front end and checks clean traffic stays clean: the poison
// verifications and canary checks at each call all pass.
func TestMagazineHardenedRoundTripStaysClean(t *testing.T) {
	a := New(WithSeed(23), WithClock(NewLogicalClock()), WithHardening(true))
	for round := 0; round < 3; round++ {
		var ptrs []Ptr
		for i := 0; i < 100; i++ {
			p, err := a.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Write(p, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		for _, p := range ptrs {
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats().Harden
	if st.Checks == 0 {
		t.Fatal("hardened magazine traffic recorded no verifications")
	}
	if st.Violations != 0 {
		t.Fatalf("clean traffic recorded %d violations", st.Violations)
	}
	if st.Checks != st.Violations+st.Passes {
		t.Fatalf("checks %d != violations %d + passes %d", st.Checks, st.Violations, st.Passes)
	}
	s := a.Stats()
	if s.Allocs != s.Frees || s.Live != 0 {
		t.Fatalf("identity open: allocs=%d frees=%d live=%d", s.Allocs, s.Frees, s.Live)
	}
	requireCleanInvariants(t, a)
}

// TestMagazineMeshingKeepsAddressesValid checks the paper's core property
// composed with the cache: meshing relocates physical bytes while virtual
// addresses stay stable, so magazine-held (and soon-to-be-reused)
// addresses survive passes unscathed.
func TestMagazineMeshingKeepsAddressesValid(t *testing.T) {
	a := New(WithSeed(29), WithClock(NewLogicalClock()))
	// Fragment the heap through the magazine path: allocate everything
	// first (interleaving frees would let the magazines recycle a tiny
	// working set and never build fragmentation — by design), then free
	// 15 of 16, keeping survivors with known contents.
	var all, live []Ptr
	for i := 0; i < 16*256; i++ {
		p, err := a.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	for i, p := range all {
		if i%16 == 0 {
			if err := a.Write(p, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		} else if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if released := a.Mesh(); released == 0 {
		t.Fatal("meshing released nothing on a fragmented heap")
	}
	buf := make([]byte, 2)
	for i, p := range live {
		if err := a.Read(p, buf); err != nil {
			t.Fatalf("live object %d unreadable after mesh: %v", i, err)
		}
		want := i * 16
		if buf[0] != byte(want) || buf[1] != byte(want>>8) {
			t.Fatalf("live object %d corrupted across mesh: %v", i, buf)
		}
	}
	for _, p := range live {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	requireCleanInvariants(t, a)
}
