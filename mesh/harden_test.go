package mesh

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func readHardenU64(t *testing.T, a *Allocator, key string) uint64 {
	t.Helper()
	v, err := a.ReadControl("stats.harden." + key)
	if err != nil {
		t.Fatalf("ReadControl(stats.harden.%s): %v", key, err)
	}
	return v.(uint64)
}

// TestHardenedRoundTrip: hardening on, clean traffic — everything verifies,
// nothing trips. Pins the observable side effects of the canary word:
// usable sizes shrink by it, checks accumulate, and the fundamental
// counter relation checks == violations + passes holds.
func TestHardenedRoundTrip(t *testing.T) {
	a := New(WithSeed(1), WithClock(NewLogicalClock()), WithHardening(true))
	var ptrs []Ptr
	for i := 0; i < 200; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Write(p, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if n, err := a.UsableSize(ptrs[0]); err != nil || n != 80-8 {
		// 64 bytes route to the 80-byte class once the canary word is
		// reserved; the guard word itself is not usable payload.
		t.Fatalf("UsableSize = %d, %v; want 72", n, err)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats().Harden
	if st.Checks == 0 {
		t.Fatal("hardened traffic recorded no verifications")
	}
	if st.Violations != 0 {
		t.Fatalf("clean traffic recorded %d violations", st.Violations)
	}
	if st.Checks != st.Violations+st.Passes {
		t.Fatalf("checks %d != violations %d + passes %d", st.Checks, st.Violations, st.Passes)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated: %s", got)
	}
}

// TestHardenOverflowContained: a real buffer overflow — the client writes
// through its object's trailing guard word — is caught at free, the span
// is retired, the error is typed, and the allocator keeps serving.
func TestHardenOverflowContained(t *testing.T) {
	a := New(WithSeed(2), WithClock(NewLogicalClock()), WithHardening(true), WithMeshing(false))
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	usable, err := a.UsableSize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the canary: write one byte past the usable payload.
	if err := a.Write(p+Ptr(usable), []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Fatalf("free of overflowed object = %v, want ErrHeapCorruption", err)
	}
	st := a.Stats().Harden
	if st.Violations == 0 || st.Retired != 1 {
		t.Fatalf("violations %d, retired %d; want >=1, 1", st.Violations, st.Retired)
	}
	// Containment, not crash: the allocator serves fresh traffic, and a
	// second free of a lost object stays a typed error.
	q, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Fatalf("free on retired span = %v, want ErrHeapCorruption", err)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated after retirement: %s", got)
	}
}

// TestHardenUseAfterFreeContained: a write through a dangling pointer is
// caught when the slot is next handed out (the poison verification), the
// span is retired, and allocation recovers on a fresh span.
func TestHardenUseAfterFreeContained(t *testing.T) {
	a := New(WithSeed(3), WithClock(NewLogicalClock()), WithHardening(true), WithMeshing(false))
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	// Use after free: scribble over the poisoned payload.
	if err := a.Write(p, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// The slot re-enters the shuffle vector in random order; keep
	// allocating until its verification trips. Every allocation before it
	// is served normally.
	sawCorruption := false
	for i := 0; i < 1024 && !sawCorruption; i++ {
		_, err := a.Malloc(64)
		switch {
		case err == nil:
		case errors.Is(err, ErrHeapCorruption):
			sawCorruption = true
		default:
			t.Fatal(err)
		}
	}
	if !sawCorruption {
		t.Fatal("use-after-free write never detected")
	}
	if st := a.Stats().Harden; st.Retired != 1 {
		t.Fatalf("retired %d spans, want 1", st.Retired)
	}
	if _, err := a.Malloc(64); err != nil {
		t.Fatalf("allocation after containment failed: %v", err)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated: %s", got)
	}
}

// TestHardenDoubleFreeDetected: with hardening on, a same-thread double
// free — which the trusting fast path historically could not see — is
// caught by the poison precheck and reported typed.
func TestHardenDoubleFreeDetected(t *testing.T) {
	a := New(WithSeed(4), WithClock(NewLogicalClock()), WithHardening(true), WithMeshing(false))
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second free = %v, want ErrDoubleFree", err)
	}
	// The heap is uncorrupted: the slot serves again.
	if _, err := a.Malloc(64); err != nil {
		t.Fatal(err)
	}
}

// TestHardenRemoteDoubleFreeCounted pins the documented way to catch
// cross-thread double frees: with hardening on, both frees of one object
// from another Thread queue on the owner's remote-free queue (the push
// trusts the caller), and the owner's drain drops the duplicate through
// the poison precheck and counts it in InvalidFree. The slot is never
// handed out twice and the books close.
func TestHardenRemoteDoubleFreeCounted(t *testing.T) {
	a := New(WithSeed(4), WithClock(NewLogicalClock()), WithHardening(true), WithMeshing(false))
	owner, other := a.NewThread(), a.NewThread()
	p, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := other.Free(p); err != nil {
			t.Fatalf("queued free %d: %v", i, err)
		}
	}
	// The owner's refills drain its queue while these allocations run.
	seen := make(map[Ptr]bool)
	var ptrs []Ptr
	for i := 0; i < 300; i++ {
		q, err := owner.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[q] {
			t.Fatalf("address %#x handed out twice after a dropped double free", q)
		}
		seen[q] = true
		ptrs = append(ptrs, q)
	}
	if st := a.Stats(); st.InvalidFree != 1 {
		t.Fatalf("InvalidFree = %d, want 1 (the dropped duplicate)", st.InvalidFree)
	}
	for _, q := range ptrs {
		if err := owner.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, th := range []*Thread{owner, other} {
		if err := th.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.InvalidFree != 1 {
		t.Fatalf("InvalidFree = %d at quiescence, want 1", st.InvalidFree)
	}
	if st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("allocs=%d frees=%d live=%d, want closed books", st.Allocs, st.Frees, st.Live)
	}
	if st.Remote.Queued != st.Remote.Drained {
		t.Fatalf("remote queued %d != drained %d", st.Remote.Queued, st.Remote.Drained)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestHardenInjectionChaos is the acceptance pin for the corruption fault
// sites: with harden.canary and harden.poison armed at exact counts, every
// injection becomes a detected violation (violations == injections), every
// detection surfaces a typed error instead of a crash, and the allocator
// keeps serving after each containment.
func TestHardenInjectionChaos(t *testing.T) {
	const wantInjections = 3
	a := New(WithSeed(5), WithClock(NewLogicalClock()), WithHardening(true), WithMeshing(false),
		WithFaultPlan("harden.canary:count=2,harden.poison:count=1"))
	typedErrs := 0
	for i := 0; i < 2000; i++ {
		p, err := a.Malloc(48)
		if err != nil {
			if !errors.Is(err, ErrHeapCorruption) {
				t.Fatalf("op %d: %v", i, err)
			}
			typedErrs++
			continue
		}
		if err := a.Free(p); err != nil {
			if !errors.Is(err, ErrHeapCorruption) {
				t.Fatalf("op %d: %v", i, err)
			}
			typedErrs++
		}
	}
	injected, _ := a.ReadControl("stats.fault.injected")
	st := a.Stats().Harden
	if injected.(uint64) != wantInjections {
		t.Fatalf("injected %d faults, want %d (budget exhausted)", injected, wantInjections)
	}
	if st.Violations != wantInjections {
		t.Fatalf("violations %d != injections %d", st.Violations, wantInjections)
	}
	if typedErrs != wantInjections {
		t.Fatalf("typed corruption errors %d, want %d", typedErrs, wantInjections)
	}
	if st.Retired != wantInjections {
		t.Fatalf("retired %d spans over %d violations", st.Retired, wantInjections)
	}
	// Zero crashes, allocator still serving, structure intact.
	p, err := a.Malloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated: %s", got)
	}
}

// TestQuarantineDelaysReuse: with the quarantine on, a freed slot does not
// re-enter circulation while parked — the delayed-reuse window — and every
// parked free settles by the time its heap closes.
func TestQuarantineDelaysReuse(t *testing.T) {
	a := New(WithSeed(6), WithClock(NewLogicalClock()), WithQuarantine(true), WithMeshing(false))
	th := a.NewThread()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	// The freed address must not come back while quarantined: allocate far
	// more than a span holds, forcing reuse of every unparked slot.
	for i := 0; i < 512; i++ {
		q, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if q == p {
			t.Fatalf("quarantined address %#x handed out again (alloc %d)", p, i)
		}
	}
	st := a.Stats().Harden
	if st.Quarantined == 0 {
		t.Fatal("free never parked in quarantine")
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	st = a.Stats().Harden
	if st.Quarantined != st.Settled {
		t.Fatalf("quarantined %d != settled %d after heap close", st.Quarantined, st.Settled)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated: %s", got)
	}
}

// TestHardenAuditorFindsDetachedCorruption: corruption sitting in a
// detached span — no free or allocation will ever touch it — is found by
// the background auditor slice on the meshing daemon and contained.
func TestHardenAuditorFindsDetachedCorruption(t *testing.T) {
	a := New(WithSeed(7), WithHardening(true), WithMeshing(false))
	th := a.NewThread()
	var live []Ptr
	for i := 0; i < 512; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			live = append(live, p)
		} else if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	usable, err := a.UsableSize(live[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Close(); err != nil { // detach the spans
		t.Fatal(err)
	}
	// Smash a live object's canary in a now-detached span.
	if err := a.Write(live[0]+Ptr(usable), []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := a.Control("mesh.background", true); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.Stats().Harden
		if st.Retired >= 1 && st.Violations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auditor never found the corruption: audited %d, violations %d, retired %d",
				st.Audited, st.Violations, st.Retired)
		}
		time.Sleep(time.Millisecond)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated: %s", got)
	}
}

// TestHardenLitmusStress races hardened+quarantined traffic, client
// writes (the meshing write barrier), and background meshing with its
// auditor slice, then asserts the counter algebra at quiescence: every
// verification is a violation or a pass, no violation occurred (traffic
// is clean), every quarantined free settled, and the heap is intact.
// Run with -race in CI.
func TestHardenLitmusStress(t *testing.T) {
	a := New(WithSeed(8), WithQuarantine(true), WithBackgroundMeshing(true),
		WithMeshPeriod(time.Millisecond))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			defer th.Close()
			buf := []byte("stress-payload")
			var held []Ptr
			for i := 0; i < 3000; i++ {
				p, err := th.Malloc(16 + (i%4)*48)
				if err != nil {
					if errors.Is(err, ErrHeapCorruption) {
						t.Errorf("worker %d: unexpected corruption: %v", w, err)
					}
					continue
				}
				if err := a.Write(p, buf); err != nil {
					t.Errorf("worker %d: write: %v", w, err)
				}
				held = append(held, p)
				if len(held) > 64 {
					// Free an older pointer — frequently one allocated by
					// this worker but drained through quarantine, sometimes
					// raced with the mesh engine's copies.
					victim := held[i%len(held)]
					held[i%len(held)] = held[len(held)-1]
					held = held[:len(held)-1]
					if err := th.Free(victim); err != nil {
						t.Errorf("worker %d: free: %v", w, err)
					}
				}
			}
			for _, p := range held {
				if err := th.Free(p); err != nil {
					t.Errorf("worker %d: drain free: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := a.Close(); err != nil { // stops the daemon, flushes pooled heaps
		t.Fatal(err)
	}
	st := a.Stats().Harden
	if st.Checks != st.Violations+st.Passes {
		t.Fatalf("checks %d != violations %d + passes %d", st.Checks, st.Violations, st.Passes)
	}
	if st.Violations != 0 {
		t.Fatalf("clean stress recorded %d violations", st.Violations)
	}
	if st.Quarantined != st.Settled {
		t.Fatalf("quarantined %d != settled %d at quiescence", st.Quarantined, st.Settled)
	}
	s := a.Stats()
	if s.Remote.Queued != s.Remote.Drained {
		t.Fatalf("remote queued %d != drained %d at quiescence", s.Remote.Queued, s.Remote.Drained)
	}
	if got, _ := a.ReadControl("debug.check_invariants"); got != "" {
		t.Fatalf("invariants violated: %s", got)
	}
}

// BenchmarkHardenScalar measures the hardened scalar malloc/free overhead
// against the baseline — the README's overhead table and the ≤15% budget
// come from here.
func BenchmarkHardenScalar(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"baseline", nil},
		{"hardened", []Option{WithHardening(true)}},
		{"quarantine", []Option{WithQuarantine(true)}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := append([]Option{WithSeed(1), WithMeshing(false)}, cfg.opts...)
			a := New(opts...)
			th := a.NewThread()
			defer th.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := th.Malloc(64)
				if err != nil {
					b.Fatal(err)
				}
				if err := th.Free(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ExampleAllocator_hardening documents the hardened configuration's
// containment semantics in executable form.
func ExampleAllocator_hardening() {
	a := New(WithSeed(1), WithHardening(true), WithMeshing(false))
	p, _ := a.Malloc(64)
	usable, _ := a.UsableSize(p)
	a.Write(p+Ptr(usable), []byte{0xFF}) // overflow into the guard word
	err := a.Free(p)
	fmt.Println(errors.Is(err, ErrHeapCorruption))
	_, err = a.Malloc(64) // the allocator keeps serving
	fmt.Println(err == nil)
	// Output:
	// true
	// true
}
