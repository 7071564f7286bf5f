package mesh

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/frontend"
)

// This file implements the unified runtime-control surface, modeled on the
// semi-standard mallctl API the paper exposes its knobs through ("settable
// at program startup and during runtime by the application", §4.5).
// Everything tunable or observable at runtime hangs off one pair of
// entry points keyed by dotted strings, so new knobs never grow new
// methods.
//
// Control keys:
//
//	Key               Type            Access    Meaning
//	mesh.period       time.Duration   rw        min interval between meshing passes (§4.5)
//	mesh.enabled      bool            rw        compaction engine on/off (§6.3 "no meshing")
//	mesh.background   bool            rw        background daemon on/off (§4.5 dedicated meshing thread)
//	mesh.max_pause    time.Duration   rw        pause budget: shard-lock-hold bound of the daemon's passes
//	mesh.min_savings  int (bytes)     rw        pass-productivity threshold that disarms the timer (§4.5)
//	mesh.split_t      int             rw        SplitMesher probe budget (§3.3, paper t=64)
//	mesh.compact      (ignored)       w         force a full meshing pass now
//	os.memory_limit   int64 (bytes)   rw        resident-memory cap, 0 = unlimited (§1); rounded down to pages
//	pool.idle         int             r         thread heaps parked in the pool
//	pool.created      int             r         thread heaps ever created by the pool
//	pool.flush        (ignored)       w         relinquish idle pooled heaps (= Flush)
//	frontend.magazine_objects int     rw        per-size-class magazine capacity in objects, 0 = magazines off; max frontend.MaxMagazineObjects; writing flushes cached fronts
//	stats.rss         int64           r         resident physical bytes
//	stats.live        int64           r         live object bytes
//	stats.allocs      uint64          r         total allocations
//	stats.frees       uint64          r         total frees
//	stats.mesh_passes uint64          r         meshing passes run
//	stats.mesh.pauses PauseHistogram  r         distribution of meshing lock holds (§4.5 bounded pauses)
//	stats.arena.lookups uint64        r         lock-free page-map lookups served (free-path traffic)
//	stats.global.shard_acquires uint64 r        per-size-class shard-lock acquisitions, summed (contention proxy)
//	stats.vm.translations uint64      r         lock-free data-path translations served (one per page run)
//	stats.vm.retries  uint64          r         seqlock retries on the data path (health metric: ≈0 is healthy)
//	stats.remote.queued uint64        r         frees message-passed to owner queues (no shard lock taken)
//	stats.remote.drained uint64       r         queued frees settled by owners; equals queued at quiescence
//	stats.pool.borrows uint64         r         thread-heap hand-offs out of the pool (misses that found every stripe empty; a steal is not a borrow)
//	stats.pool.returns uint64         r         thread-heap hand-offs back into the pool
//	stats.frontend.hits uint64        r         Allocator-level calls served by a stripe-cached heap (no pool hand-off)
//	stats.frontend.misses uint64      r         Allocator-level calls that found their stripe empty (served by a steal from another stripe, or by a pool borrow)
//	stats.frontend.fills uint64       r         magazine refills from the heap (one batched alloc each)
//	stats.frontend.flushes uint64     r         magazine flushes back to the heap (one batched free each)
//	stats.frontend.cached_objects int64 r       objects currently parked in stripe magazines (allocs - frees skew; 0 after Flush)
//	trace.enabled     bool            rw        flight recorder on/off (off = one atomic load per emission site)
//	trace.sample_rate int             rw        record 1 in n alloc/free events (min 1; other kinds are unsampled)
//	trace.buffer_events int           rw        per-source ring capacity in events, rounded up to a power of two; applies to rings created after the write
//	trace.offered     uint64          r         trace events accepted for recording (post-sampling)
//	trace.dropped     uint64          r         offered events lost to ring wraparound; offered - dropped events are snapshottable
//	fault.enabled     bool            rw        fault-injection master switch (a disabled plane never injects, whatever the plan says)
//	fault.plan        string          rw        fault plan spec (internal/faultinject grammar); writing a non-empty plan arms and enables the plane, "" disarms and disables it; invalid specs are rejected with ErrControlType
//	fault.seed        int             rw        decision seed of the fault plane (deterministic schedules replay from it)
//	oom.backpressure  bool            rw        memory-limit degradation ladder on/off (flush dirty bins → emergency mesh → retry once → ErrOutOfMemory)
//	harden.enabled    bool            rw        heap hardening on/off: canaries + poison-on-free on spans minted while on (see WithHardening)
//	harden.quarantine bool            rw        delayed-reuse quarantine for hardened frees; enabling also enables harden.enabled
//	harden.audit_spans int            rw        background auditor's span budget per daemon wake (>= 0; 0 disables the auditor slice)
//	debug.check_invariants string     r         runs the full heap invariant check (stop-the-world); returns "" when clean, the violation text otherwise
//	stats.fault.injected uint64       r         faults injected across all sites since construction
//	stats.oom.recoveries uint64       r         memory-limit hits the backpressure ladder recovered
//	stats.meshd.restarts uint64       r         daemon work-loop restarts after recovered panics
//	stats.harden.checks uint64        r         hardening verifications performed (canary + poison)
//	stats.harden.violations uint64    r         verifications that found corruption; checks == violations + passes at quiescence
//	stats.harden.passes uint64        r         verifications that found none
//	stats.harden.quarantined uint64   r         frees parked in quarantine rings; equals settled at quiescence
//	stats.harden.settled uint64       r         quarantined frees settled back into the heap
//	stats.harden.retired uint64       r         corrupt spans retired (containment actions taken)
//	stats.harden.lost_objects uint64  r         live objects lost to retired spans
//	stats.harden.audited uint64       r         spans walked by the background corruption auditor
//
// Integer-typed keys accept int, int32, int64 or uint64 on write;
// mesh.period additionally accepts a time.ParseDuration string.
// String-typed keys (fault.plan, debug.check_invariants) are excluded
// from the Prometheus exposition — WriteMetrics renders numbers.

// Control-surface errors. Errors returned by Control and ReadControl wrap
// one of these, so callers can errors.Is them.
var (
	ErrUnknownControl   = errors.New("mesh: unknown control key")
	ErrControlType      = errors.New("mesh: wrong value type for control key")
	ErrControlReadOnly  = errors.New("mesh: control key is read-only")
	ErrControlWriteOnly = errors.New("mesh: control key is write-only")
)

// control is one entry in the key table; a nil set makes the key
// read-only, a nil get makes it write-only. noExport keeps a readable
// key out of the Prometheus exposition (string-valued keys, and reads
// with side effects like the invariant check).
type control struct {
	set      func(*Allocator, any) error
	get      func(*Allocator) (any, error)
	noExport bool
}

var controls = map[string]control{
	"mesh.period": {
		set: func(a *Allocator, v any) error {
			d, err := asDuration(v)
			if err != nil {
				return err
			}
			a.g.SetMeshPeriod(d)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.MeshPeriod(), nil },
	},
	"mesh.enabled": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			a.g.SetMeshingEnabled(b)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.MeshingEnabled(), nil },
	},
	"mesh.background": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			if b {
				a.daemon.Start()
			} else {
				a.daemon.Stop()
			}
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.daemon.Running(), nil },
	},
	"mesh.max_pause": {
		set: func(a *Allocator, v any) error {
			d, err := asDuration(v)
			if err != nil {
				return err
			}
			if d <= 0 {
				return fmt.Errorf("%w: mesh.max_pause must be positive, got %v", ErrControlType, d)
			}
			a.g.SetMaxPause(d)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.MaxPause(), nil },
	},
	"mesh.min_savings": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			a.g.SetMinMeshSavings(int(n))
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.MinMeshSavings(), nil },
	},
	"mesh.split_t": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n <= 0 {
				return fmt.Errorf("%w: mesh.split_t must be positive, got %d", ErrControlType, n)
			}
			a.g.SetSplitMesherT(int(n))
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.SplitMesherT(), nil },
	},
	"mesh.compact": {
		// Route through Allocator.Mesh so the pass gets the same pause
		// budget as explicit Mesh calls: mesh.max_pause while the daemon
		// runs, unbounded otherwise.
		set: func(a *Allocator, _ any) error { a.Mesh(); return nil },
	},
	"stats.remote.queued": {
		get: func(a *Allocator) (any, error) { return a.g.RemoteQueued(), nil },
	},
	"stats.remote.drained": {
		get: func(a *Allocator) (any, error) { return a.g.RemoteDrained(), nil },
	},
	"os.memory_limit": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < 0 {
				return fmt.Errorf("%w: os.memory_limit must be >= 0, got %d", ErrControlType, n)
			}
			a.g.OS().SetMemoryLimit(n / PageSize)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.OS().MemoryLimit() * PageSize, nil },
	},
	"pool.idle": {
		get: func(a *Allocator) (any, error) { return int(a.pool.idle.Load()), nil },
	},
	"pool.created": {
		get: func(a *Allocator) (any, error) { return int(a.pool.created.Load()), nil },
	},
	"pool.flush": {
		set: func(a *Allocator, _ any) error { return a.pool.flush() },
	},
	"frontend.magazine_objects": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < 0 || n > frontend.MaxMagazineObjects {
				return fmt.Errorf("%w: frontend.magazine_objects must be in [0, %d], got %d",
					ErrControlType, frontend.MaxMagazineObjects, n)
			}
			return a.front.SetMagazineObjects(int(n))
		},
		get: func(a *Allocator) (any, error) { return a.front.MagazineObjects(), nil },
	},
	"stats.frontend.hits": {
		get: func(a *Allocator) (any, error) { return a.front.Hits(), nil },
	},
	"stats.frontend.misses": {
		get: func(a *Allocator) (any, error) { return a.front.Misses(), nil },
	},
	"stats.frontend.fills": {
		get: func(a *Allocator) (any, error) { return a.front.Fills(), nil },
	},
	"stats.frontend.flushes": {
		get: func(a *Allocator) (any, error) { return a.front.Flushes(), nil },
	},
	"stats.frontend.cached_objects": {
		get: func(a *Allocator) (any, error) { return a.front.CachedObjects(), nil },
	},
	"stats.rss": {
		get: func(a *Allocator) (any, error) { return a.RSS(), nil },
	},
	"stats.live": {
		get: func(a *Allocator) (any, error) { return a.Stats().Live, nil },
	},
	"stats.allocs": {
		get: func(a *Allocator) (any, error) { return a.Stats().Allocs, nil },
	},
	"stats.frees": {
		get: func(a *Allocator) (any, error) { return a.Stats().Frees, nil },
	},
	"stats.mesh_passes": {
		get: func(a *Allocator) (any, error) { return a.Stats().Mesh.Passes, nil },
	},
	"stats.mesh.pauses": {
		get: func(a *Allocator) (any, error) { return a.Stats().Mesh.Pauses, nil },
	},
	"stats.arena.lookups": {
		get: func(a *Allocator) (any, error) { return a.g.Arena().Lookups(), nil },
	},
	"stats.vm.translations": {
		get: func(a *Allocator) (any, error) { return a.g.OS().Translations(), nil },
	},
	"stats.vm.retries": {
		get: func(a *Allocator) (any, error) { return a.g.OS().Retries(), nil },
	},
	"stats.global.shard_acquires": {
		get: func(a *Allocator) (any, error) { return a.g.ShardAcquires(), nil },
	},
	"stats.pool.borrows": {
		get: func(a *Allocator) (any, error) { return a.pool.borrows.Load(), nil },
	},
	"stats.pool.returns": {
		get: func(a *Allocator) (any, error) { return a.pool.returns.Load(), nil },
	},
	"trace.enabled": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			a.g.Tracer().SetEnabled(b)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.Tracer().Enabled(), nil },
	},
	"trace.sample_rate": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < 1 {
				return fmt.Errorf("%w: trace.sample_rate must be >= 1, got %d", ErrControlType, n)
			}
			a.g.Tracer().SetSampleRate(n)
			return nil
		},
		get: func(a *Allocator) (any, error) { return int(a.g.Tracer().SampleRate()), nil },
	},
	"trace.buffer_events": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < 1 {
				return fmt.Errorf("%w: trace.buffer_events must be >= 1, got %d", ErrControlType, n)
			}
			a.g.Tracer().SetBufferEvents(n)
			return nil
		},
		get: func(a *Allocator) (any, error) { return int(a.g.Tracer().BufferEvents()), nil },
	},
	"trace.offered": {
		get: func(a *Allocator) (any, error) { return a.g.Tracer().Offered(), nil },
	},
	"trace.dropped": {
		get: func(a *Allocator) (any, error) { return a.g.Tracer().Dropped(), nil },
	},
	"fault.enabled": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			a.g.Faults().SetEnabled(b)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.Faults().Enabled(), nil },
	},
	"fault.plan": {
		set: func(a *Allocator, v any) error {
			spec, ok := v.(string)
			if !ok {
				return fmt.Errorf("%w: need plan spec string, got %T", ErrControlType, v)
			}
			if err := a.g.Faults().SetPlan(spec); err != nil {
				return fmt.Errorf("%w: %v", ErrControlType, err)
			}
			// A plan write is the whole gesture: arming an empty plane or
			// leaving a fresh plan disabled are both foot-guns, so the
			// master switch follows the spec. fault.enabled remains for
			// pausing an armed plan without losing it.
			a.g.Faults().SetEnabled(spec != "")
			return nil
		},
		get:      func(a *Allocator) (any, error) { return a.g.Faults().Plan(), nil },
		noExport: true,
	},
	"fault.seed": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < 0 {
				return fmt.Errorf("%w: fault.seed must be >= 0, got %d", ErrControlType, n)
			}
			a.g.Faults().SetSeed(uint64(n))
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.Faults().Seed(), nil },
	},
	"oom.backpressure": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			a.g.SetOOMBackpressure(b)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.OOMBackpressure(), nil },
	},
	"harden.enabled": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			a.g.Harden().SetEnabled(b)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.Harden().Enabled(), nil },
	},
	"harden.quarantine": {
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: need bool, got %T", ErrControlType, v)
			}
			if b {
				// Quarantine parks hardened frees; without hardening it
				// would never see one. Enabling implies the base plane,
				// like the WithQuarantine option.
				a.g.Harden().SetEnabled(true)
			}
			a.g.Harden().SetQuarantine(b)
			return nil
		},
		get: func(a *Allocator) (any, error) { return a.g.Harden().QuarantineEnabled(), nil },
	},
	"harden.audit_spans": {
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < 0 {
				return fmt.Errorf("%w: harden.audit_spans must be >= 0, got %d", ErrControlType, n)
			}
			a.g.Harden().SetAuditSpans(n)
			return nil
		},
		get: func(a *Allocator) (any, error) { return int(a.g.Harden().AuditSpans()), nil },
	},
	"stats.harden.checks": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Checks, nil },
	},
	"stats.harden.violations": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Violations, nil },
	},
	"stats.harden.passes": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Passes, nil },
	},
	"stats.harden.quarantined": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Quarantined, nil },
	},
	"stats.harden.settled": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Settled, nil },
	},
	"stats.harden.retired": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Retired, nil },
	},
	"stats.harden.lost_objects": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().LostObjects, nil },
	},
	"stats.harden.audited": {
		get: func(a *Allocator) (any, error) { return a.g.HardenStats().Audited, nil },
	},
	"debug.check_invariants": {
		get: func(a *Allocator) (any, error) {
			if err := a.g.CheckInvariants(); err != nil {
				return err.Error(), nil
			}
			return "", nil
		},
		noExport: true,
	},
	"stats.fault.injected": {
		get: func(a *Allocator) (any, error) { return a.g.Faults().Injected(), nil },
	},
	"stats.oom.recoveries": {
		get: func(a *Allocator) (any, error) { return a.g.OOMRecoveries(), nil },
	},
	"stats.meshd.restarts": {
		get: func(a *Allocator) (any, error) { return a.daemon.Restarts(), nil },
	},
}

// Control sets the runtime control named key to value. See the key table
// in this file's comment for types; ErrUnknownControl, ErrControlType and
// ErrControlReadOnly report the failure modes. Safe for concurrent use.
func (a *Allocator) Control(key string, value any) error {
	c, ok := controls[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownControl, key)
	}
	if c.set == nil {
		return fmt.Errorf("%w: %q", ErrControlReadOnly, key)
	}
	return c.set(a, value)
}

// ReadControl returns the current value of the runtime control named key.
// Safe for concurrent use.
func (a *Allocator) ReadControl(key string) (any, error) {
	c, ok := controls[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownControl, key)
	}
	if c.get == nil {
		return nil, fmt.Errorf("%w: %q", ErrControlWriteOnly, key)
	}
	return c.get(a)
}

// ControlKeys lists every control key in sorted order, for tooling and
// documentation.
func ControlKeys() []string {
	keys := make([]string, 0, len(controls))
	for k := range controls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func asInt64(v any) (int64, error) {
	switch n := v.(type) {
	case int:
		return int64(n), nil
	case int32:
		return int64(n), nil
	case int64:
		return n, nil
	case uint64:
		if n > 1<<62 {
			return 0, fmt.Errorf("%w: integer %d out of range", ErrControlType, n)
		}
		return int64(n), nil
	default:
		return 0, fmt.Errorf("%w: need integer, got %T", ErrControlType, v)
	}
}

func asDuration(v any) (time.Duration, error) {
	switch d := v.(type) {
	case time.Duration:
		return d, nil
	case string:
		parsed, err := time.ParseDuration(d)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrControlType, err)
		}
		return parsed, nil
	default:
		return 0, fmt.Errorf("%w: need time.Duration or duration string, got %T", ErrControlType, v)
	}
}
