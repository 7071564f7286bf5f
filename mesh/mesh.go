// Package mesh is the public API of this reproduction of "Mesh: Compacting
// Memory Management for C/C++ Applications" (Powers, Tench, Berger,
// McGregor; PLDI 2019).
//
// Mesh is a memory allocator that performs compaction without relocation:
// it finds pairs of spans whose live objects occupy disjoint offsets,
// copies them onto one physical span, remaps both virtual spans onto it,
// and returns the other physical span to the OS. Object addresses never
// change, so the technique works for address-exposing languages; randomized
// allocation makes meshable pairs plentiful with high probability.
//
// Because a Go library cannot replace the process allocator or edit real
// page tables, this implementation allocates from a simulated
// virtual-memory arena: Malloc returns virtual addresses (type Ptr) whose
// backing bytes are accessed through Read and Write. All of the paper's
// machinery — shuffle vectors, MiniHeaps, occupancy bins, SplitMesher,
// concurrent meshing with a write barrier — operates exactly as described.
//
// # Concurrency
//
// An Allocator is safe for arbitrary concurrent use: like the drop-in
// malloc replacement the paper describes (§4), any goroutine may call any
// method at any time with no external synchronization. Internally each
// call takes a thread-local heap (§4.3) from the per-stripe front end —
// a goroutine-stripe hash picks a padded slot, one uncontended swap
// acquires the cached heap, one CAS parks it again. A miss on an empty
// stripe steals a heap parked on another stripe, and only when every
// stripe is empty borrows from a lock-free heap pool, so concurrent
// Mallocs proceed in parallel on distinct heaps with no shared hand-off
// traffic in steady state (see internal/frontend). Frees of objects owned
// by other heaps are message-passed: posted to the owning heap's
// lock-free remote-free queue (two atomic loads and a CAS, no lock) and
// recycled by the owner at its next drain point — the malloc slow path,
// thread exit, or a stripe or pool park. Only frees of detached spans and
// large objects take the shard-locked global-heap path (§4.4.4). The
// queued path extends the paper's trust-the-caller fast-path semantics
// (§4.1) to remote frees: to catch cross-thread double frees, turn on
// heap hardening (WithHardening, or Control("harden.enabled", true)),
// whose drain-side poison precheck drops a queued duplicate and counts it
// in Stats.InvalidFree. Stats, RSS, ClassStats and the Control surface
// are likewise safe under concurrency.
//
// Basic usage:
//
//	a := mesh.New()
//	p, _ := a.Malloc(100)
//	a.Write(p, []byte("hello"))
//	a.Free(p)
//	fmt.Println(a.Stats().RSS)
//
// Performance-sensitive workers can skip the hand-off entirely by
// holding an explicit Thread (the paper's thread-local heap), which pins
// one heap for its lifetime but must be used from one goroutine at a time:
//
//	th := a.NewThread()
//	defer th.Close()
//	p, _ := th.Malloc(64)
//
// Heavy-traffic callers can additionally amortize per-call overhead with
// the batch API (MallocBatch, FreeBatch), and adjust the allocator at
// runtime through the mallctl-style Control / ReadControl surface
// (ControlKeys lists the keys; control.go's table declares each one
// once). An Option that mirrors a control key is a write of that key:
// options apply in order, like Control calls, once the allocator exists.
//
// # Front-end caches
//
// Scalar Malloc/Free run through per-stripe magazine caches: each
// stripe's cached heap carries one 8-object array of object addresses
// per size class, refilled and drained in half-capacity batches through
// the batch machinery. A magazine hit is a stripe swap plus an array pop
// or push — zero shared atomic operations, no locks — which brings
// scalar per-op cost to batch-path territory. A magazine push trusts the
// caller like the paper's fast path (§4.1): a double free of a cached
// object is detected only when the magazine flushes to the locked path.
// While hardening is on, and for any free of a hardened span, scalar
// calls skip the magazines, so every hardening check runs at the call.
// The heap counts cached objects as allocated until they flush; Stats
// corrects for them, so its Allocs, Frees and Live are exact whenever no
// call is in flight (stats.frontend.cached_objects reports the cached
// objects). See internal/frontend for the layer diagram and
// stats.frontend.* for hit/miss/fill/flush observability.
//
// # Background meshing
//
// There is one meshing engine. It works one size class at a time under
// that class's shard lock, so a pass stalls only same-class traffic, and
// its copies are concurrent (§4.5.2): source spans are write-protected and
// objects copied off-lock; reads proceed throughout, racing writers fault
// and wait until the remap publishes the consolidated span (§4.5.3), then
// retry successfully. Object contents and addresses are never disturbed.
//
// By default the engine runs inline: a free that reaches the global heap
// may run a whole pass on the freeing goroutine, with each class's remap
// fix-up done in one shard-lock hold. With background meshing —
// mesh.New(mesh.WithBackgroundMeshing(true)), or
// Control("mesh.background", true) at runtime — passes move to a daemon
// goroutine (§4.5's dedicated background thread):
//
//   - Triggers: the mesh-period timer, free-pressure nudges from the
//     global heap (non-blocking; the freeing goroutine never meshes), and
//     memory pressure when RSS nears a configured os.memory_limit.
//   - Bounded pauses: the daemon runs the same engine with a pause budget,
//     mesh.max_pause (default 1 ms); the remap fix-up releases the shard
//     lock whenever the budget is spent, so allocation and free latency
//     no longer depends on pass length.
//
// Close stops the daemon (idempotent; the allocator remains usable with
// inline meshing). Pause behaviour is observable through
// Stats().Mesh.Pauses or ReadControl("stats.mesh.pauses"), a fixed-bucket
// histogram of every shard-lock hold by the engine.
//
// # Robustness and fault injection
//
// Failure is a first-class input. The typed sentinels ErrOutOfMemory,
// ErrInvalidFree and ErrDoubleFree are matchable with errors.Is on any
// error the allocator returns. When a resident-memory limit is set
// (os.memory_limit), an allocation that would exceed it walks a
// degradation ladder before failing — drain the calling heap's
// remote-free queue, flush the arena's dirty reuse bins, run an
// emergency synchronous mesh pass, retry once — and only then returns
// ErrOutOfMemory; compaction-as-OOM-escape-hatch is the paper's central
// claim, exercised at the moment it matters. A panic on the background
// meshing daemon's goroutine is recovered and the daemon restarted with
// capped exponential backoff (observable as stats.meshd.restarts).
//
// Every failure path is testable deterministically through the built-in
// fault-injection plane (internal/faultinject): seed-driven fault
// schedules are installed with WithFaultPlan or the fault.* controls,
// and cover simulated VM failures, mesh aborts in each engine phase,
// remote-free segment failures, daemon stalls and panics, and — with
// hardening on — canary and poison corruption. The
// debug.check_invariants control runs the full heap invariant check on
// demand. See README's Robustness section for the fault taxonomy.
//
// # Heap hardening
//
// WithHardening(true) — or Control("harden.enabled", true) — arms the
// corruption-detection plane: every object of a hardened span carries a
// position-keyed trailing canary (checked at free, at mesh-copy time, and
// by a background auditor slice on the meshing daemon), freed payloads
// are poisoned and the fill verified before reuse (catching
// use-after-free writes and probabilistically catching cross-thread
// double frees), and WithQuarantine(true) additionally parks frees in a
// per-heap delayed-reuse ring. Detection is containment, not crash: a
// corrupt span is retired — unmapped, excluded from meshing, its live
// objects counted lost (stats.harden.*) — the detecting call returns
// ErrHeapCorruption, and the allocator keeps serving from every other
// span. When hardening has never been enabled its entire cost is one
// atomic load per operation. See README's Hardening section for the
// threat model and measured overhead.
package mesh

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/harden"
	"repro/internal/meshd"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Ptr is a virtual address in the allocator's simulated address space.
// The zero Ptr is never a valid allocation.
type Ptr = uint64

// Allocation errors, re-exported for errors.Is. Invalid and double frees
// that reach the global heap are detected, counted (Stats.InvalidFree) and
// reported without corrupting the heap (§4.4.4); frees local to a live
// thread heap's attached spans trust the caller, as the paper's fast path
// does. ErrOutOfMemory is returned by allocation paths when a configured
// os.memory_limit is exceeded and the backpressure ladder (drain →
// flush → emergency mesh → retry once) could not recover the request;
// it wraps the VM layer's limit error, so errors.Is matches at either
// level.
var (
	ErrInvalidFree = core.ErrInvalidFree
	ErrDoubleFree  = core.ErrDoubleFree
	ErrOutOfMemory = core.ErrOutOfMemory

	// ErrHeapCorruption is returned by any call whose hardening check
	// (canary, poison, page-map audit) found corruption, after the corrupt
	// span was retired; it also types frees of objects lost to an earlier
	// retirement. The allocator remains fully usable.
	ErrHeapCorruption = core.ErrHeapCorruption
)

// PageSize is the span granularity of the simulated hardware.
const PageSize = vm.PageSize

// MaxSmallSize is the largest size served from size-classed spans; larger
// allocations are page-aligned large objects.
const MaxSmallSize = 16384

// Stats is a point-in-time snapshot of allocator state. RSS is the paper's
// headline metric; Mapped exceeds RSS once meshing has consolidated spans.
type Stats = core.HeapStats

// MeshStats aggregates compaction activity.
type MeshStats = core.MeshStats

// RemoteStats counts message-passing remote frees; read it from
// Stats().Remote or the stats.remote.* controls.
type RemoteStats = core.RemoteStats

// HardenStats counts hardening activity: verifications, violations,
// quarantine traffic, and span retirements. Read it from Stats().Harden
// or the stats.harden.* controls.
type HardenStats = harden.Stats

// PauseHistogram is the distribution of meshing pauses — every interval
// the engine held a size class's shard lock while meshing that class.
// Read it from Stats().Mesh.Pauses or ReadControl("stats.mesh.pauses").
type PauseHistogram = core.PauseHistogram

// NumPauseBuckets is the number of fixed buckets in PauseHistogram.
const NumPauseBuckets = core.NumPauseBuckets

// PauseBucketBound returns the inclusive upper bound of pause-histogram
// bucket i; the last bucket is unbounded and returns a negative duration.
func PauseBucketBound(i int) time.Duration { return core.PauseBucketBound(i) }

// TraceSnapshot is a consistent view of the flight recorder: surviving
// events in merged time order plus exact offered/dropped accounting. Get
// one from Allocator.TraceSnapshot.
type TraceSnapshot = trace.Snapshot

// TraceEvent is one flight-recorder event.
type TraceEvent = trace.Event

// TraceEventKind identifies a flight-recorder event type; see the
// internal/trace Ev* constants for the catalogue.
type TraceEventKind = trace.Kind

// Clock abstracts time for mesh rate limiting; see WithClock.
type Clock = core.Clock

// LogicalClock is a deterministic clock for reproducible experiments.
type LogicalClock = core.LogicalClock

// NewLogicalClock returns a LogicalClock at time zero.
func NewLogicalClock() *LogicalClock { return core.NewLogicalClock() }

// Option configures an Allocator. Options apply in order, like a
// sequence of Control calls, so a later option overrides an earlier one.
// WithSeed, WithRandomization, WithClock and WithDirtyPageThreshold set
// how the heap is built. Every other option writes the control key its
// doc names, through the same table entry Control uses, once the
// allocator exists; New panics if the key rejects the value. The
// background daemon starts last, once every other setting is in place.
type Option func(*settings)

// settings is what the options collect for New: the heap's build-time
// configuration and the control writes to apply once the heap exists.
type settings struct {
	cfg    core.Config
	writes []controlWrite
}

// controlWrite is one deferred Control call.
type controlWrite struct {
	key   string
	value any
}

// writeControl returns the option that writes value to the control key.
func writeControl(key string, value any) Option {
	return func(s *settings) { s.writes = append(s.writes, controlWrite{key, value}) }
}

// WithSeed fixes the seed of every RNG in the allocator, making runs
// reproducible. It is also the fault plane's decision seed, so a fault
// plan replays exactly under the same seed.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithRandomization enables or disables randomized allocation ("Mesh (no
// rand)" in §6.3 when disabled).
func WithRandomization(enabled bool) Option {
	return func(s *settings) { s.cfg.Randomize = enabled }
}

// WithClock injects a Clock (e.g. a LogicalClock) for deterministic mesh
// rate limiting.
func WithClock(clk Clock) Option {
	return func(s *settings) { s.cfg.Clock = clk }
}

// WithDirtyPageThreshold overrides the arena's punch-hole batching
// threshold in pages (default 64 MiB worth).
func WithDirtyPageThreshold(pages int) Option {
	return func(s *settings) { s.cfg.DirtyPageThreshold = pages }
}

// WithMeshing writes mesh.enabled: compaction on or off ("Mesh (no
// meshing)" in §6.3 of the paper when off).
func WithMeshing(enabled bool) Option { return writeControl("mesh.enabled", enabled) }

// WithMeshPeriod writes mesh.period, the minimum interval between
// automatic meshing passes (default 100 ms, the paper's). Explicit Mesh
// calls ignore it.
func WithMeshPeriod(d time.Duration) Option { return writeControl("mesh.period", d) }

// WithMinMeshSavings writes mesh.min_savings, the pass-productivity
// threshold in bytes below which the mesh timer is disarmed until the
// next global free (default 1 MiB).
func WithMinMeshSavings(bytes int) Option { return writeControl("mesh.min_savings", bytes) }

// WithBackgroundMeshing writes mesh.background, starting the allocator
// with the background meshing daemon running (§4.5: compaction on a
// dedicated thread, concurrent with the application): frees nudge the
// daemon instead of running a pass inline, and the daemon's passes bound
// every shard-lock hold by mesh.max_pause instead of pass length. Close
// stops the daemon.
func WithBackgroundMeshing(enabled bool) Option { return writeControl("mesh.background", enabled) }

// WithMaxMeshPause writes mesh.max_pause, the daemon's pause budget: the
// bound on each shard-lock hold of a background meshing pass (positive;
// default 1 ms).
func WithMaxMeshPause(d time.Duration) Option { return writeControl("mesh.max_pause", d) }

// WithFaultPlan writes fault.plan, arming the deterministic
// fault-injection plane with a plan spec and enabling it — chaos
// testing's front door. The grammar is a comma-separated list of site
// clauses, e.g.
//
//	"vm.commit:rate=8:mode=transient,mesh.copy:count=1"
//
// (see internal/faultinject for sites and options). An invalid spec
// panics in New: a typo'd chaos schedule must not silently run the happy
// path. The disabled plane costs one atomic load per site.
func WithFaultPlan(spec string) Option { return writeControl("fault.plan", spec) }

// WithHardening writes harden.enabled, starting the allocator with heap
// hardening on: spans are minted with per-object trailing canaries and
// whole-span poison, frees verify and re-poison, and the background
// daemon audits spans for corruption. Detection contains (span
// retirement + ErrHeapCorruption) rather than crashes. Once enabled,
// small-object usable sizes permanently shrink by the canary word (the
// size-class routing must keep reserving it for spans that outlive a
// disable).
func WithHardening(enabled bool) Option { return writeControl("harden.enabled", enabled) }

// WithQuarantine writes harden.quarantine, starting the allocator with
// the delayed-reuse quarantine on, which also turns hardening on:
// hardened frees park in a per-heap ring and are re-verified before their
// slots return to a shuffle vector, widening the use-after-free and
// double-free detection window.
func WithQuarantine(enabled bool) Option { return writeControl("harden.quarantine", enabled) }

// Allocator is a Mesh heap, safe for concurrent use by any number of
// goroutines. Each call transparently takes a thread heap from the
// front end; see the package comment for the concurrency model and
// NewThread for the explicit fast path.
type Allocator struct {
	g      *core.GlobalHeap
	nextID atomic.Uint64
	pool   *heapPool
	front  *frontend.Cache
	daemon *meshd.Daemon
}

// New constructs an allocator with the paper's default configuration,
// modified by opts. It panics if an option's control key rejects the
// value.
func New(opts ...Option) *Allocator {
	s := settings{cfg: core.DefaultConfig()}
	for _, o := range opts {
		o(&s)
	}
	a := &Allocator{g: core.NewGlobalHeap(s.cfg)}
	a.pool = newHeapPool(a.g, &a.nextID)
	a.front = frontend.NewCache(a.g, a.pool.acquire, a.pool.release)
	a.daemon = meshd.New(a.g, meshd.Config{})
	// Two rounds keep the writes in order while mesh.background, which
	// starts the daemon, goes after every other setting.
	for _, daemon := range []bool{false, true} {
		for _, w := range s.writes {
			if (w.key == "mesh.background") != daemon {
				continue
			}
			if err := a.Control(w.key, w.value); err != nil {
				panic(fmt.Errorf("mesh: New: %w", err))
			}
		}
	}
	return a
}

// Close stops the background meshing daemon (waiting out any in-flight
// pass) and relinquishes every cached heap — front-end stripes first
// (magazines flush, their heaps return to the pool), then every idle
// pooled heap, like Flush. The allocator remains fully usable afterwards
// — meshing simply reverts to inline passes on the free path — so Close
// is the quiesce point, not a destructor. Safe to call multiple times and
// concurrently with allocator traffic.
func (a *Allocator) Close() error {
	a.daemon.Stop()
	return errors.Join(a.front.Flush(), a.pool.flush())
}

// Malloc allocates size bytes.
func (a *Allocator) Malloc(size int) (Ptr, error) {
	f := a.front.Acquire()
	p, err := f.Malloc(size)
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	return p, err
}

// Free releases an object allocated by any goroutine or Thread of this
// allocator.
func (a *Allocator) Free(p Ptr) error {
	f := a.front.Acquire()
	err := f.Free(p)
	if rerr := a.front.Release(f); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Read copies len(buf) bytes at p into buf.
func (a *Allocator) Read(p Ptr, buf []byte) error { return a.g.OS().Read(p, buf) }

// Write copies data to the memory at p. Writes participate in the meshing
// write barrier: a write landing on a span mid-relocation blocks until the
// mesh completes, exactly like the SIGSEGV handler in the paper (§4.5.2).
func (a *Allocator) Write(p Ptr, data []byte) error { return a.g.OS().Write(p, data) }

// Memset fills n bytes at p with v; like Write it participates in the
// meshing write barrier.
func (a *Allocator) Memset(p Ptr, v byte, n int) error { return a.g.OS().Memset(p, v, n) }

// Mesh forces a full compaction pass and returns the number of physical
// spans released. Applications can call this at quiescent points; normally
// meshing also triggers automatically — inline on frees, or on the
// daemon's schedule with background meshing — rate limited by the mesh
// period (§4.5). Without the daemon the pass has no pause budget; while
// the daemon is running, the pass runs with the daemon's mesh.max_pause
// budget, so explicit compaction also honors the bound.
func (a *Allocator) Mesh() int {
	if a.daemon.Running() {
		return a.daemon.RunPass()
	}
	return a.g.Mesh()
}

// Stats returns a snapshot of allocator state. The heap counts objects
// cached in front-end magazines as allocated until they flush; Stats
// corrects Allocs, Frees and Live by the magazines' books, so they are
// exact whenever no call is in flight.
func (a *Allocator) Stats() Stats {
	s := a.g.Stats()
	k := a.front.Skew()
	s.Allocs += uint64(k.Pops)
	s.Frees += uint64(k.Pops + k.Objects)
	s.Live -= k.Bytes
	return s
}

// TraceSnapshot returns a consistent snapshot of the flight recorder:
// every surviving event across all sources in merged time order, with
// exact accounting of events dropped to ring wraparound (Offered ==
// Dropped + len(Events), always). It never blocks recording and is safe
// to call at any time, including with tracing disabled (events recorded
// before disabling are retained). Enable recording with
// Control("trace.enabled", true).
func (a *Allocator) TraceSnapshot() TraceSnapshot { return a.g.Tracer().Snapshot() }

// RSS returns resident physical memory in bytes.
func (a *Allocator) RSS() int64 { return a.g.OS().RSS() }

// Flush relinquishes every cached heap's attached spans to the global
// heap, making them meshing candidates: front-end stripes drain first
// (magazines flush their cached objects) and their heaps join the pool,
// then every idle pooled heap detaches. Heaps held by calls in flight
// are unaffected and the allocator remains fully usable. Call it at
// quiescent points (before a final Mesh, or when a traffic burst ends)
// — the stripes and pool repopulate on demand.
func (a *Allocator) Flush() error { return errors.Join(a.front.Flush(), a.pool.flush()) }

// Thread is a per-worker heap handle (the paper's thread-local heap),
// pinning one internal heap instead of taking a front-end heap per call.
// A Thread must be used from one goroutine at a time; distinct Threads —
// and concurrent Allocator calls — may be used in parallel. Close
// relinquishes its spans to the global heap, making them meshing
// candidates.
type Thread struct {
	th *core.ThreadHeap
}

// NewThread creates a thread-local heap. Safe to call from any goroutine.
func (a *Allocator) NewThread() *Thread {
	return &Thread{th: core.NewThreadHeap(a.g, a.nextID.Add(1))}
}

// Malloc allocates size bytes from this thread's local heap.
func (t *Thread) Malloc(size int) (Ptr, error) { return t.th.Malloc(size) }

// Free releases an object; frees of other threads' objects are routed
// through the global heap automatically.
func (t *Thread) Free(p Ptr) error { return t.th.Free(p) }

// Close returns the thread's attached spans to the global heap.
func (t *Thread) Close() error { return t.th.Done() }

// --- alloc.Allocator adapter, used by the workload harness ---

// Adapter wraps an Allocator behind the harness interfaces.
type Adapter struct {
	*Allocator
	name string
}

// NewAdapter returns a harness adapter with a report name.
func NewAdapter(name string, opts ...Option) *Adapter {
	return &Adapter{Allocator: New(opts...), name: name}
}

// Name implements alloc.Allocator.
func (ad *Adapter) Name() string { return ad.name }

// NewThread implements alloc.Allocator.
func (ad *Adapter) NewThread() alloc.Heap { return ad.Allocator.NewThread() }

// Live implements alloc.Allocator.
func (ad *Adapter) Live() int64 { return ad.Stats().Live }

// Memory implements alloc.Allocator.
func (ad *Adapter) Memory() *vm.OS { return ad.g.OS() }

var (
	_ alloc.Allocator    = (*Adapter)(nil)
	_ alloc.Mesher       = (*Adapter)(nil)
	_ alloc.Heap         = (*Allocator)(nil)
	_ alloc.Heap         = (*Thread)(nil)
	_ alloc.ThreadCloser = (*Thread)(nil)
)
