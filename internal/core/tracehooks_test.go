package core

import (
	"testing"

	"repro/internal/trace"
)

// TestTraceEventsOnCoreOps drives each core fast path once and checks the
// flight recorder saw it: sampled alloc/free from the owning heap, a
// remote push from the freeing heap, and the owner's drain.
func TestTraceEventsOnCoreOps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	g.Tracer().SetEnabled(true)
	g.Tracer().SetSampleRate(1)
	owner := NewThreadHeap(g, 1)
	other := NewThreadHeap(g, 2)

	// Local alloc + free on the owner.
	p1, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Free(p1); err != nil {
		t.Fatal(err)
	}
	// Remote free: other frees an object on owner's attached span — the
	// message-passing push — then owner drains it.
	p2, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Free(p2); err != nil {
		t.Fatal(err)
	}
	if n := owner.DrainRemoteFrees(); n != 1 {
		t.Fatalf("drained %d remote frees, want 1", n)
	}

	snap := g.Tracer().Snapshot()
	if snap.Offered != snap.Dropped+uint64(len(snap.Events)) {
		t.Fatalf("accounting: %+v", snap)
	}
	type key struct {
		kind trace.Kind
		src  uint32
	}
	got := map[key]int{}
	for _, e := range snap.Events {
		got[key{e.Kind, e.Src}]++
	}
	if got[key{trace.EvAlloc, 1}] < 2 {
		t.Errorf("want >=2 alloc events from heap 1, got %v", got)
	}
	if got[key{trace.EvFree, 1}] < 1 {
		t.Errorf("want a local free event from heap 1, got %v", got)
	}
	if got[key{trace.EvRemotePush, 2}] != 1 {
		t.Errorf("want one remote push from heap 2, got %v", got)
	}
	if got[key{trace.EvRemoteDrain, 1}] != 1 {
		t.Errorf("want one drain from heap 1, got %v", got)
	}

	// Every event carries a plausible payload: alloc/free/push A fields
	// are valid arena addresses.
	for _, e := range snap.Events {
		switch e.Kind {
		case trace.EvAlloc, trace.EvFree, trace.EvRemotePush:
			if e.A == 0 {
				t.Errorf("event %+v has zero address payload", e)
			}
			if e.B == 0 {
				t.Errorf("event %+v has zero size payload", e)
			}
		}
	}
}

// TestTraceDisabledByDefault pins the default-off contract: a heap
// without TraceEnabled records nothing anywhere on the hot paths.
func TestTraceDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	th := NewThreadHeap(g, 1)
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	if snap := g.Tracer().Snapshot(); snap.Offered != 0 || len(snap.Events) != 0 {
		t.Fatalf("default-off recorder captured events: %+v", snap)
	}
}
