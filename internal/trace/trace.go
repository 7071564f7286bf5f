// Package trace is the allocator's flight recorder: per-source lock-free
// ring buffers of typed binary events, always compiled in and controlled
// at runtime through the trace.* mallctl keys. The design goals, in
// order:
//
//  1. Disabled cost ≈ zero. Every emission site goes through Source.Event
//     or Source.Sampled, whose disabled path is one atomic load and a
//     branch — annotated //mesh:lockfree and enforced by meshvet, exactly
//     like the allocation fast paths it instruments.
//  2. Never blocks, never grows. A ring overwrites its oldest events
//     under sustained traffic; writers take no locks and allocate nothing
//     (the one-time ring allocation per source is an annotated slow
//     path). Dropped events are accounted exactly, never silently.
//  3. Consistent snapshots under full concurrency. Snapshot may race any
//     number of writers and other snapshots; every event it returns was
//     published whole (no torn payloads), pinned by the -race litmus
//     stress in stress_test.go.
//
// The per-slot publication protocol is a seqlock variant in the spirit of
// the vm package's generation counter, specialized to single-slot
// records; ring.go documents it. Sources are identified by small integer
// IDs: thread heaps use their heap ID, and the allocator singletons
// (mesh engine, daemon, VM, write barrier) use the reserved Src*
// constants from the top of the ID space.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies an event type. Payload fields A and B are
// kind-specific; the comments give the convention each emission site
// follows.
type Kind uint8

const (
	// EvNone is the zero Kind; no event carries it.
	EvNone Kind = iota
	// EvAlloc: sampled small-object allocation. A=address, B=object size.
	EvAlloc
	// EvFree: sampled thread-local free. A=address, B=object size.
	EvFree
	// EvRemotePush: a free message-passed to the owner's queue.
	// A=address, B=object size.
	EvRemotePush
	// EvRemoteDrain: an owner settled its remote-free queue. A=entries
	// drained, B=0.
	EvRemoteDrain
	// EvRemoteFallback: a push raced queue close and diverted to the
	// shard-locked path. A=address, B=0.
	EvRemoteFallback
	// EvMeshProtect: a meshing pass write-protected one class's source
	// spans (§4.5.2 phase 1). A=size class, B=pairs planned.
	EvMeshProtect
	// EvMeshCopy: the off-lock copy phase finished for one class (§4.5.2
	// phase 2). A=size class, B=pairs copied.
	EvMeshCopy
	// EvMeshRemap: the remap fix-up finished and the barrier window
	// closed for one class (§4.5.2 phase 3). A=size class, B=spans
	// released.
	EvMeshRemap
	// EvBarrierWait: a writer faulted on a protected span and waited out
	// the mesh barrier (§4.5.3). A=faulting address, B=wait in
	// clock ns.
	EvBarrierWait
	// EvDaemonWake: the meshd daemon ran a pass. A=trigger reason (one of
	// the Wake* constants), B=spans released by the pass.
	EvDaemonWake
	// EvPauseOverrun: one engine shard-lock hold exceeded the
	// mesh.max_pause budget. A=hold in clock ns, B=budget in clock ns.
	EvPauseOverrun
	// EvVMRetry: a lock-free VM data-path access observed a concurrent
	// page-table update and retried. A=0, B=0.
	EvVMRetry
	// EvVMProtect: the VM changed page protections. A=virtual address,
	// B=pages<<1 | 1 if read-only.
	EvVMProtect
	// EvFaultInjected: the fault-injection plane fired at a site.
	// A=site ID (faultinject.Site), B=the site's evaluation counter at
	// the moment of injection.
	EvFaultInjected
	// EvMeshdRestart: the daemon supervisor recovered a panicked pass
	// and restarted the loop. A=total restarts so far, B=backoff in ns
	// before the restart.
	EvMeshdRestart
	// EvOOMRecover: an allocation hit the memory limit and the
	// backpressure ladder (drain → flush → emergency mesh → retry)
	// recovered it. A=pages requested, B=spans released by the
	// emergency pass.
	EvOOMRecover
	// EvHardenViolation: a hardening check (canary or poison
	// verification) found corruption. A=object address, B=the faultinject
	// site code matching the check (harden.canary or harden.poison).
	EvHardenViolation
	// EvSpanRetired: a corrupt span was retired — unmapped from VM
	// translation, excluded from meshing — and the allocator kept
	// serving. A=span base virtual address, B=live objects lost.
	EvSpanRetired
	// EvMagazineFill: a front-end magazine restocked from its cached
	// heap's shuffle vectors (one MallocClassBatch). A=size class,
	// B=objects filled.
	EvMagazineFill
	// EvMagazineFlush: a front-end magazine released cached objects back
	// through the free path (one FreeBatch). A=size class, B=objects
	// flushed.
	EvMagazineFlush

	numKinds
)

var kindNames = [numKinds]string{
	EvNone:           "none",
	EvAlloc:          "alloc",
	EvFree:           "free",
	EvRemotePush:     "remote_push",
	EvRemoteDrain:    "remote_drain",
	EvRemoteFallback: "remote_fallback",
	EvMeshProtect:    "mesh_protect",
	EvMeshCopy:       "mesh_copy",
	EvMeshRemap:      "mesh_remap",
	EvBarrierWait:    "barrier_wait",
	EvDaemonWake:     "daemon_wake",
	EvPauseOverrun:   "pause_overrun",
	EvVMRetry:        "vm_retry",
	EvVMProtect:      "vm_protect",
	EvFaultInjected:  "fault_injected",
	EvMeshdRestart:   "meshd_restart",
	EvOOMRecover:     "oom_recover",

	EvHardenViolation: "harden_violation",
	EvSpanRetired:     "span_retired",
	EvMagazineFill:    "magazine_fill",
	EvMagazineFlush:   "magazine_flush",
}

// String returns the event kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds returns every real event kind, in declaration order — for
// renderers that want a stable column set.
func Kinds() []Kind {
	ks := make([]Kind, 0, numKinds-1)
	for k := EvNone + 1; k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// Reserved source IDs for the allocator singletons, taken from the top of
// the ID space so they can never collide with pool-assigned heap IDs
// (which count up from 1).
const (
	// SrcEngine is the meshing engine (phase and pause events).
	SrcEngine uint32 = 1<<32 - 1
	// SrcDaemon is the meshd background daemon.
	SrcDaemon uint32 = 1<<32 - 2
	// SrcVM is the simulated virtual-memory layer.
	SrcVM uint32 = 1<<32 - 3
	// SrcBarrier is the write-barrier fault hook.
	SrcBarrier uint32 = 1<<32 - 4
	// SrcFault is the fault-injection plane.
	SrcFault uint32 = 1<<32 - 5
	// SrcHarden is the heap-hardening layer (violations found outside a
	// heap context: the background auditor and the meshing sweep).
	SrcHarden uint32 = 1<<32 - 6
	// SrcFrontend is the per-stripe front-end cache (magazine fill and
	// flush events; the rings are multi-producer, so every stripe shares
	// this one source).
	SrcFrontend uint32 = 1<<32 - 7
)

// SourceName renders a source ID: reserved singletons by name, heap
// sources as "heap-<id>".
func SourceName(src uint32) string {
	switch src {
	case SrcEngine:
		return "engine"
	case SrcDaemon:
		return "daemon"
	case SrcVM:
		return "vm"
	case SrcBarrier:
		return "barrier"
	case SrcFault:
		return "fault"
	case SrcHarden:
		return "harden"
	case SrcFrontend:
		return "frontend"
	default:
		return fmt.Sprintf("heap-%d", src)
	}
}

// EvDaemonWake trigger reasons (payload A).
const (
	// WakeTimer: the period timer found a pass due.
	WakeTimer uint64 = 1
	// WakeNudge: a free-pressure nudge found a pass due.
	WakeNudge uint64 = 2
	// WakePressure: RSS crossed the memory-pressure threshold.
	WakePressure uint64 = 3
)

// Clock supplies event timestamps. It is satisfied structurally by the
// core package's clocks (wall or logical) so trace stays a leaf package.
type Clock interface {
	Now() time.Duration
}

// wallClock is the fallback when no clock is injected.
type wallClock struct{ base time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.base) }

// Defaults and bounds for the trace.* controls.
const (
	// DefaultSampleRate records one in this many alloc/free events.
	DefaultSampleRate = 64
	// DefaultBufferEvents is the per-source ring capacity.
	DefaultBufferEvents = 4096
	// MinBufferEvents is trace.buffer_events' lower bound; tiny rings
	// are only useful to tests, which construct them directly.
	MinBufferEvents = 64
	// MaxBufferEvents is trace.buffer_events' upper bound (16 Mi events
	// ≈ 640 MiB of slots — far past any sane setting).
	MaxBufferEvents = 1 << 24
)

// Event is one recorded event. Seq is the event's per-source sequence
// number (assigned at reservation, so gaps mark dropped events); Time is
// the recorder clock's reading at publication.
type Event struct {
	Seq  uint64
	Src  uint32
	Kind Kind
	Time time.Duration
	A, B uint64
}

// Snapshot is a consistent view of the recorder: every event that was
// published and still resident in its ring at scan time, plus exact
// accounting of everything that was not.
//
// The accounting invariant — checked by the litmus stress — is
//
//	Offered == Dropped + len(Events)
//
// by construction: Dropped is computed as the difference, and at
// quiescence (no writer mid-record) it counts exactly the events
// overwritten by ring wraparound.
type Snapshot struct {
	// Offered counts events accepted for recording (post-sampling) since
	// the recorder was created, across all sources.
	Offered uint64
	// Dropped counts offered events not present in Events: overwritten by
	// wraparound, or mid-publication at scan time.
	Dropped uint64
	// Events holds the surviving events, ordered by (Time, Src, Seq).
	Events []Event
}

// CountByKind tallies the snapshot's events per kind.
func (s Snapshot) CountByKind() map[Kind]uint64 {
	m := make(map[Kind]uint64)
	for _, e := range s.Events {
		m[e.Kind]++
	}
	return m
}

// CountBySource tallies the snapshot's events per source.
func (s Snapshot) CountBySource() map[uint32]uint64 {
	m := make(map[uint32]uint64)
	for _, e := range s.Events {
		m[e.Src]++
	}
	return m
}

// Recorder owns the rings and the runtime controls. One Recorder per
// GlobalHeap; all methods are safe for concurrent use.
type Recorder struct {
	enabled    atomic.Bool
	sampleRate atomic.Int64
	bufEvents  atomic.Int64

	clock Clock

	// mu guards the ring registry (ring creation and registration only —
	// recording and snapshotting never take it while touching slots). It
	// is a leaf: nothing is acquired while holding it, so it slots below
	// every lock in the core hierarchy regardless of what the emitting
	// call stack holds.
	mu    sync.Mutex
	rings []*ring
}

// NewRecorder returns a disabled recorder with default sample rate and
// buffer size. clock may be nil, selecting a wall clock.
func NewRecorder(clock Clock) *Recorder {
	if clock == nil {
		clock = wallClock{base: time.Now()}
	}
	r := &Recorder{clock: clock}
	r.sampleRate.Store(DefaultSampleRate)
	r.bufEvents.Store(DefaultBufferEvents)
	return r
}

// SetEnabled turns recording on or off. Toggling is immediate for every
// source; events already recorded are retained.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether recording is on.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetSampleRate sets the 1-in-n sampling of Sampled emissions (alloc and
// free events); n must be at least 1, and 1 records everything.
// Unsampled events (Source.Event) ignore it.
func (r *Recorder) SetSampleRate(n int64) { r.sampleRate.Store(n) }

// SampleRate returns the current 1-in-n sampling rate.
func (r *Recorder) SampleRate() int64 { return r.sampleRate.Load() }

// SetBufferEvents sets the capacity, in events, of rings created after
// the call (a source allocates its ring on first recording). n must lie
// in [MinBufferEvents, MaxBufferEvents]; it is rounded up to a power of
// two, and existing rings keep their size.
func (r *Recorder) SetBufferEvents(n int64) { r.bufEvents.Store(int64(ringCapacity(int(n)))) }

// BufferEvents returns the capacity applied to newly created rings.
func (r *Recorder) BufferEvents() int64 { return r.bufEvents.Load() }

// NewSource registers an event source. Sources are cheap (three words; the
// ring is allocated lazily on first recording) and never deregistered:
// a heap's events remain snapshottable after the heap is gone.
func (r *Recorder) NewSource(src uint32) *Source {
	return &Source{rec: r, src: src}
}

// snapshotRings copies the registry so scans run off the lock.
func (r *Recorder) snapshotRings() []*ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*ring(nil), r.rings...)
}

// Snapshot scans every ring and returns the surviving events with exact
// offered/dropped accounting. It never blocks writers (and writers never
// block it); see Snapshot's doc for the accounting invariant.
func (r *Recorder) Snapshot() Snapshot {
	var snap Snapshot
	for _, rg := range r.snapshotRings() {
		var offered, collected uint64
		snap.Events, offered, collected = rg.snapshotInto(snap.Events)
		snap.Offered += offered
		snap.Dropped += offered - collected
	}
	sort.Slice(snap.Events, func(i, j int) bool {
		a, b := snap.Events[i], snap.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	return snap
}

// Offered returns the total events accepted for recording
// (post-sampling) across all sources.
func (r *Recorder) Offered() uint64 {
	var n uint64
	for _, rg := range r.snapshotRings() {
		n += rg.pos.Load()
	}
	return n
}

// Dropped counts offered events no longer retrievable, by the same scan
// Snapshot performs (without materializing events), so the two agree at
// quiescence.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, rg := range r.snapshotRings() {
		offered, collected := rg.countValid()
		n += offered - collected
	}
	return n
}

// Source is one emission endpoint. The Event/Sampled wrappers are the
// only trace calls that appear on allocator fast paths; their disabled
// cost is a nil check plus one atomic load.
type Source struct {
	rec   *Recorder
	src   uint32
	ring  atomic.Pointer[ring]
	ticks atomic.Uint64 // Sampled emission counter (advances only while enabled)
}

// Event records one unsampled event if the recorder is enabled. Safe on a
// nil Source (a convenience for components whose tracer is optional,
// like a standalone vm.OS).
//
//mesh:lockfree
func (s *Source) Event(kind Kind, a, b uint64) {
	if s == nil || !s.rec.enabled.Load() {
		return
	}
	s.record(kind, a, b) //mesh:slowpath — tracing enabled: recording is off the disabled fast path by definition
}

// Sampled records one in every trace.sample_rate events while the
// recorder is enabled; alloc/free emission sites use it so full-rate
// traffic cannot swamp the rings. Safe on a nil Source.
//
//mesh:lockfree
func (s *Source) Sampled(kind Kind, a, b uint64) {
	if s == nil || !s.rec.enabled.Load() {
		return
	}
	s.sample(kind, a, b) //mesh:slowpath — tracing enabled: recording is off the disabled fast path by definition
}

func (s *Source) sample(kind Kind, a, b uint64) {
	if n := s.rec.sampleRate.Load(); n > 1 && s.ticks.Add(1)%uint64(n) != 0 {
		return
	}
	s.record(kind, a, b)
}

func (s *Source) record(kind Kind, a, b uint64) {
	r := s.ring.Load()
	if r == nil {
		r = s.attachRing()
	}
	r.record(s.rec.clock.Now(), kind, a, b)
}

// attachRing allocates and registers this source's ring, once. The
// registry lock is a leaf (see Recorder.mu), so this is safe from any
// emission site regardless of the locks its caller holds.
func (s *Source) attachRing() *ring {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if r := s.ring.Load(); r != nil {
		return r
	}
	r := newRing(s.src, int(s.rec.bufEvents.Load()))
	s.rec.rings = append(s.rec.rings, r)
	s.ring.Store(r)
	return r
}
