// Package repro is a from-scratch Go reproduction of "Mesh: Compacting
// Memory Management for C/C++ Applications" (Powers, Tench, Berger,
// McGregor; PLDI 2019).
//
// The public allocator API lives in package repro/mesh: a
// goroutine-safe Allocator backed by pooled thread heaps, explicit
// Thread handles for pinned fast-path workers, batch malloc/free for
// heavy-traffic callers, and a mallctl-style Control/ReadControl
// surface for every runtime knob (see mesh/control.go for the key
// table). The global heap is sharded for scalability: the paper's
// single global-heap lock is split into one lock per size class (plus
// a separate lock for large objects), and the pointer-to-span table
// behind every non-local free is a lock-free two-level radix page map
// (internal/arena) — a lookup is two atomic loads, so frees and refills
// in distinct size classes never contend (see the lock-hierarchy
// comment in internal/core/global.go). A thread heap refills an
// exhausted shuffle vector from several of the fullest partially full
// spans in one hold of the class's shard lock, until it holds as many
// free slots as a fresh span would give; it commits a fresh span only
// when the occupancy bins are empty.
// Cross-thread frees of objects on spans attached to a live heap are
// message-passing: posted to the owning heap's lock-free MPSC queue
// (internal/core/remote.go) with a single CAS and recycled by the
// owner at its next drain point, so producer–consumer pipelines take
// no shard lock at all on the free path (with the harden.enabled
// control on, the owner's drain also catches cross-thread double
// frees). Scalar Allocator calls skip the pool hand-off entirely via
// the per-stripe front end (internal/frontend): a Malloc descends
// stripe → magazine → pool → shard — an atomic swap on a
// stack-page-hashed stripe slot yields a cached thread heap, a per-size-
// class magazine serves the object from a local array, a miss on an
// empty stripe steals a heap parked on another stripe, and only a cold
// magazine (batch refill) or an empty stripe array falls through to the
// pool and the sharded heap below. The simulated kernel's data path (internal/vm) is lock-free the same
// way: object reads, writes, and memsets translate through a radix
// page table of atomic PTEs validated by a seqlock generation, so no
// byte access ever synchronizes with the allocator (§4.5.1).
// Compaction is one engine with two callers: inline on the free path,
// or — with background meshing enabled — a daemon goroutine
// (internal/meshd, the paper's §4.5 background thread). Either way it
// meshes one size class at a time, concurrently with the application,
// stalling only that class's traffic; the daemon also bounds every
// remap fix-up hold by the mesh.max_pause control, so its allocation
// stalls do not grow with pass length. Allocator.Close stops the
// daemon. The root package hosts the repository-level benchmark suite
// (bench_test.go): one benchmark per table/figure of the paper's
// evaluation plus hot-path microbenchmarks of the public API. See
// README.md for the architecture map and how to run the evaluation at
// full scale.
//
// The concurrency invariants above are machine-checked by meshvet
// (internal/analysis, run with `go run ./cmd/meshvet ./...`): the lock
// hierarchy is verified against the spec mirrored from the global.go
// comment, no field may mix sync/atomic and plain access, and functions
// whose doc comment carries a //mesh:lockfree directive — the declared
// fast paths: shuffle-vector Malloc/Free, the remote-free push, the
// page-map Lookup, the VM data path — are proven allocation-free,
// lock-free, and non-blocking, transitively through every static
// callee. Deliberate exceptions are annotated in place
// (//mesh:slowpath, //mesh:lockorder-ok, //mesh:nonatomic); CI runs the
// suite as the meshvet job.
package repro
