package trace

import (
	"testing"
	"time"
)

// tick is a deterministic test clock: every reading is one nanosecond
// later than the previous one.
type tick struct{ n int64 }

func (t *tick) Now() time.Duration { t.n++; return time.Duration(t.n) }

func TestDisabledRecordsNothing(t *testing.T) {
	r := NewRecorder(&tick{})
	s := r.NewSource(7)
	for i := 0; i < 100; i++ {
		s.Event(EvAlloc, uint64(i), 0)
		s.Sampled(EvFree, uint64(i), 0)
	}
	snap := r.Snapshot()
	if snap.Offered != 0 || snap.Dropped != 0 || len(snap.Events) != 0 {
		t.Fatalf("disabled recorder captured events: %+v", snap)
	}
}

func TestNilSourceIsSafe(t *testing.T) {
	var s *Source
	s.Event(EvAlloc, 1, 2)
	s.Sampled(EvFree, 3, 4)
}

func TestRecordSnapshotRoundTrip(t *testing.T) {
	r := NewRecorder(&tick{})
	r.SetEnabled(true)
	r.SetSampleRate(1)
	s := r.NewSource(3)
	s.Event(EvRemotePush, 10, 20)
	s.Sampled(EvAlloc, 30, 40)
	snap := r.Snapshot()
	if snap.Offered != 2 || snap.Dropped != 0 || len(snap.Events) != 2 {
		t.Fatalf("want 2 events, 0 dropped; got %+v", snap)
	}
	e0, e1 := snap.Events[0], snap.Events[1]
	if e0.Kind != EvRemotePush || e0.Src != 3 || e0.A != 10 || e0.B != 20 || e0.Seq != 0 {
		t.Fatalf("bad first event %+v", e0)
	}
	if e1.Kind != EvAlloc || e1.A != 30 || e1.B != 40 || e1.Seq != 1 {
		t.Fatalf("bad second event %+v", e1)
	}
	if !(e0.Time < e1.Time) {
		t.Fatalf("events not in clock order: %v, %v", e0.Time, e1.Time)
	}
}

func TestSampling(t *testing.T) {
	r := NewRecorder(&tick{})
	r.SetEnabled(true)
	r.SetSampleRate(10)
	s := r.NewSource(1)
	for i := 0; i < 1000; i++ {
		s.Sampled(EvAlloc, uint64(i), 0)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 100 {
		t.Fatalf("rate 10 over 1000 emissions: want 100 recorded, got %d", len(snap.Events))
	}
	if snap.Offered != 100 {
		t.Fatalf("sampling: offered counts accepted events, want 100, got %d", snap.Offered)
	}
	// Unsampled events ignore the rate entirely.
	for i := 0; i < 5; i++ {
		s.Event(EvMeshRemap, 0, 0)
	}
	if got := len(r.Snapshot().Events); got != 105 {
		t.Fatalf("unsampled events must not be sampled: want 105, got %d", got)
	}
}

func TestSampleRateClamp(t *testing.T) {
	r := NewRecorder(&tick{})
	r.SetBufferEvents(100)
	if r.BufferEvents() != 128 {
		t.Fatalf("buffer 100 should round to 128, got %d", r.BufferEvents())
	}
}

func TestWraparoundDroppedAccounting(t *testing.T) {
	r := NewRecorder(&tick{})
	r.SetEnabled(true)
	cap := 8
	s := r.NewSource(1)
	s.ring.Store(newRing(1, cap)) // small ring to force wraparound
	r.mu.Lock()
	r.rings = append(r.rings, s.ring.Load())
	r.mu.Unlock()

	const n = 100
	for i := 0; i < n; i++ {
		s.Event(EvAlloc, uint64(i), uint64(2*i))
	}
	snap := r.Snapshot()
	if snap.Offered != n {
		t.Fatalf("offered: want %d, got %d", n, snap.Offered)
	}
	if len(snap.Events) != cap {
		t.Fatalf("a full lapped ring retains exactly its capacity: want %d events, got %d", cap, len(snap.Events))
	}
	if snap.Dropped != n-uint64(cap) {
		t.Fatalf("dropped: want %d, got %d", n-cap, snap.Dropped)
	}
	if snap.Offered != snap.Dropped+uint64(len(snap.Events)) {
		t.Fatalf("offered != dropped + collected: %+v", snap)
	}
	if r.Dropped() != snap.Dropped {
		t.Fatalf("Dropped() scan disagrees with Snapshot at quiescence: %d vs %d", r.Dropped(), snap.Dropped)
	}
	// The survivors are the newest cap events, payloads intact.
	for i, e := range snap.Events {
		want := uint64(n - cap + i)
		if e.Seq != want || e.A != want || e.B != 2*want {
			t.Fatalf("survivor %d: want seq/A=%d B=%d, got %+v", i, want, 2*want, e)
		}
	}
}

func TestSnapshotMergesAndOrdersSources(t *testing.T) {
	clk := &tick{}
	r := NewRecorder(clk)
	r.SetEnabled(true)
	s1, s2 := r.NewSource(1), r.NewSource(2)
	s1.Event(EvAlloc, 1, 0)
	s2.Event(EvFree, 2, 0)
	s1.Event(EvAlloc, 3, 0)
	snap := r.Snapshot()
	if len(snap.Events) != 3 {
		t.Fatalf("want 3 events, got %d", len(snap.Events))
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i-1].Time >= snap.Events[i].Time {
			t.Fatalf("events not merged in time order: %+v", snap.Events)
		}
	}
	if snap.Events[1].Src != 2 {
		t.Fatalf("interleaving lost: %+v", snap.Events)
	}
	byKind := snap.CountByKind()
	if byKind[EvAlloc] != 2 || byKind[EvFree] != 1 {
		t.Fatalf("CountByKind: %v", byKind)
	}
	bySrc := snap.CountBySource()
	if bySrc[1] != 2 || bySrc[2] != 1 {
		t.Fatalf("CountBySource: %v", bySrc)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "unknown" || k.String() == "none" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind: %q", Kind(200).String())
	}
	names := map[string]bool{}
	for _, k := range Kinds() {
		if names[k.String()] {
			t.Fatalf("duplicate kind name %q", k.String())
		}
		names[k.String()] = true
	}
}

func TestSourceNames(t *testing.T) {
	for src, want := range map[uint32]string{
		SrcEngine: "engine", SrcDaemon: "daemon", SrcVM: "vm", SrcBarrier: "barrier", 17: "heap-17",
	} {
		if got := SourceName(src); got != want {
			t.Fatalf("SourceName(%d) = %q, want %q", src, got, want)
		}
	}
}
