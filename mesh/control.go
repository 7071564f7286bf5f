package mesh

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/trace"
)

// This file implements the unified runtime-control surface, modeled on the
// semi-standard mallctl API the paper exposes its knobs through ("settable
// at program startup and during runtime by the application", §4.5).
// Everything tunable or observable at runtime hangs off one pair of
// entry points keyed by dotted strings, so new knobs never grow new
// methods.
//
// The controls table below is the one declaration of every key: its
// name, help text, and get/set. Control, ReadControl, ControlKeys,
// WriteMetrics (which prints each entry's help as a # HELP line) and the
// With* options that mirror a key all read it. The constructors check a
// written value's type and bounds once per kind: integer keys accept
// int, int32, int64 or uint64; duration keys accept a time.Duration or a
// time.ParseDuration string; flags accept a bool; actions ignore the
// value. A rejected write returns an error wrapping ErrControlType and
// changes nothing.

// Control-surface errors. Errors returned by Control and ReadControl wrap
// one of these, so callers can errors.Is them.
var (
	ErrUnknownControl   = errors.New("mesh: unknown control key")
	ErrControlType      = errors.New("mesh: wrong value type for control key")
	ErrControlReadOnly  = errors.New("mesh: control key is read-only")
	ErrControlWriteOnly = errors.New("mesh: control key is write-only")
)

// control is one entry of the key table; a nil set makes the key
// read-only, a nil get makes it write-only. noExport keeps a readable
// key out of WriteMetrics (string-valued keys, and reads with side
// effects like the invariant check).
type control struct {
	name     string
	help     string
	get      func(*Allocator) any
	set      func(*Allocator, any) error
	noExport bool
}

// unbounded is the upper bound of integer keys without one.
const unbounded = math.MaxInt64

var controls = []control{
	duration("mesh.period", "Minimum interval between meshing passes (§4.5).", 0,
		func(a *Allocator) time.Duration { return a.g.MeshPeriod() },
		func(a *Allocator, d time.Duration) { a.g.SetMeshPeriod(d) }),
	flag("mesh.enabled", "Compaction engine on (§6.3's \"no meshing\" when off).",
		func(a *Allocator) bool { return a.g.MeshingEnabled() },
		func(a *Allocator, b bool) { a.g.SetMeshingEnabled(b) }),
	flag("mesh.background", "Background meshing daemon running (§4.5's dedicated meshing thread).",
		func(a *Allocator) bool { return a.daemon.Running() },
		func(a *Allocator, b bool) {
			if b {
				a.daemon.Start()
			} else {
				a.daemon.Stop()
			}
		}),
	duration("mesh.max_pause", "Pause budget: bound on each shard-lock hold of the daemon's passes.", 1,
		func(a *Allocator) time.Duration { return a.g.MaxPause() },
		func(a *Allocator, d time.Duration) { a.g.SetMaxPause(d) }),
	integer("mesh.min_savings", "Bytes a pass must free to keep the mesh timer armed (§4.5).", 0, unbounded,
		func(a *Allocator) any { return a.g.MinMeshSavings() },
		func(a *Allocator, n int64) error { a.g.SetMinMeshSavings(int(n)); return nil }),
	// Route through Allocator.Mesh so the pass gets the same pause budget
	// as explicit Mesh calls: mesh.max_pause while the daemon runs,
	// unbounded otherwise.
	action("mesh.compact", "Run a full meshing pass now.",
		func(a *Allocator) error { a.Mesh(); return nil }),
	integer("os.memory_limit", "Resident-memory cap in bytes, rounded down to pages; 0 is unlimited (§1).", 0, unbounded,
		func(a *Allocator) any { return a.g.OS().MemoryLimit() * PageSize },
		func(a *Allocator, n int64) error {
			// A sub-page cap would round down to 0 pages, which means
			// unlimited.
			if n > 0 && n < PageSize {
				return fmt.Errorf("%w: os.memory_limit must be 0 or at least %d bytes, got %d", ErrControlType, PageSize, n)
			}
			a.g.OS().SetMemoryLimit(n / PageSize)
			return nil
		}),
	stat("pool.idle", "Thread heaps parked in the pool.",
		func(a *Allocator) any { return int(a.pool.idle.Load()) }),
	stat("pool.created", "Thread heaps ever created by the pool.",
		func(a *Allocator) any { return int(a.pool.created.Load()) }),
	stat("stats.frontend.hits", "Allocator-level calls served by the heap cached on the caller's stripe.",
		func(a *Allocator) any { return a.front.Hits() }),
	stat("stats.frontend.misses", "Allocator-level calls that found their stripe empty (served by a steal or a pool borrow).",
		func(a *Allocator) any { return a.front.Misses() }),
	stat("stats.frontend.fills", "Magazine refills from the heap, one batched alloc each.",
		func(a *Allocator) any { return a.front.Fills() }),
	stat("stats.frontend.flushes", "Magazine flushes back to the heap, one batched free each.",
		func(a *Allocator) any { return a.front.Flushes() }),
	stat("stats.frontend.cached_objects", "Objects parked in stripe magazines; 0 after Flush.",
		func(a *Allocator) any { return a.front.CachedObjects() }),
	stat("stats.rss", "Resident physical bytes.",
		func(a *Allocator) any { return a.RSS() }),
	stat("stats.live", "Live object bytes.",
		func(a *Allocator) any { return a.Stats().Live }),
	stat("stats.allocs", "Total allocations.",
		func(a *Allocator) any { return a.Stats().Allocs }),
	stat("stats.frees", "Total frees.",
		func(a *Allocator) any { return a.Stats().Frees }),
	stat("stats.mesh_passes", "Meshing passes run.",
		func(a *Allocator) any { return a.Stats().Mesh.Passes }),
	stat("stats.mesh.pauses", "Distribution of meshing shard-lock holds (§4.5 bounded pauses).",
		func(a *Allocator) any { return a.Stats().Mesh.Pauses }),
	stat("stats.arena.lookups", "Lock-free page-map lookups served (free-path traffic).",
		func(a *Allocator) any { return a.g.Arena().Lookups() }),
	stat("stats.vm.translations", "Lock-free data-path translations served, one per page run.",
		func(a *Allocator) any { return a.g.OS().Translations() }),
	stat("stats.vm.retries", "Seqlock retries on the data path; about 0 when healthy.",
		func(a *Allocator) any { return a.g.OS().Retries() }),
	stat("stats.global.shard_acquires", "Per-size-class shard-lock acquisitions, summed (contention proxy).",
		func(a *Allocator) any { return a.g.ShardAcquires() }),
	stat("stats.pool.borrows", "Thread-heap hand-offs out of the pool (misses that found every stripe empty).",
		func(a *Allocator) any { return a.pool.borrows.Load() }),
	stat("stats.pool.returns", "Thread-heap hand-offs back into the pool.",
		func(a *Allocator) any { return a.pool.returns.Load() }),
	stat("stats.remote.queued", "Frees message-passed to owner queues, no shard lock taken.",
		func(a *Allocator) any { return a.g.RemoteQueued() }),
	stat("stats.remote.drained", "Queued frees settled by their owners; equals queued at quiescence.",
		func(a *Allocator) any { return a.g.RemoteDrained() }),
	flag("trace.enabled", "Flight recorder on; off costs one atomic load per emission site.",
		func(a *Allocator) bool { return a.g.Tracer().Enabled() },
		func(a *Allocator, b bool) { a.g.Tracer().SetEnabled(b) }),
	integer("trace.sample_rate", "Record 1 in n alloc/free events; other kinds are unsampled.", 1, unbounded,
		func(a *Allocator) any { return int(a.g.Tracer().SampleRate()) },
		func(a *Allocator, n int64) error { a.g.Tracer().SetSampleRate(n); return nil }),
	integer("trace.buffer_events", "Per-source ring capacity in events, rounded up to a power of two; applies to rings created after the write.", trace.MinBufferEvents, trace.MaxBufferEvents,
		func(a *Allocator) any { return int(a.g.Tracer().BufferEvents()) },
		func(a *Allocator, n int64) error { a.g.Tracer().SetBufferEvents(n); return nil }),
	stat("trace.offered", "Trace events accepted for recording, after sampling.",
		func(a *Allocator) any { return a.g.Tracer().Offered() }),
	stat("trace.dropped", "Offered trace events lost to ring wraparound.",
		func(a *Allocator) any { return a.g.Tracer().Dropped() }),
	{
		name: "fault.plan",
		help: "Fault plan spec (internal/faultinject grammar); a non-empty plan arms and enables the plane, \"\" disarms and disables it.",
		get:  func(a *Allocator) any { return a.g.Faults().Plan() },
		set: func(a *Allocator, v any) error {
			spec, ok := v.(string)
			if !ok {
				return fmt.Errorf("%w: fault.plan needs a plan spec string, got %T", ErrControlType, v)
			}
			if err := a.g.Faults().SetPlan(spec); err != nil {
				return fmt.Errorf("%w: %v", ErrControlType, err)
			}
			// A plan write is the whole gesture: arming an empty plane or
			// leaving a fresh plan disabled are both foot-guns, so the
			// master switch follows the spec.
			a.g.Faults().SetEnabled(spec != "")
			return nil
		},
		noExport: true,
	},
	flag("harden.enabled", "Heap hardening on: canaries and poison-on-free on spans minted while on.",
		func(a *Allocator) bool { return a.g.Harden().Enabled() },
		func(a *Allocator, b bool) { a.g.Harden().SetEnabled(b) }),
	flag("harden.quarantine", "Delayed-reuse quarantine for hardened frees; enabling also enables harden.enabled.",
		func(a *Allocator) bool { return a.g.Harden().QuarantineEnabled() },
		func(a *Allocator, b bool) {
			// Quarantine parks hardened frees; without hardening it would
			// never see one.
			if b {
				a.g.Harden().SetEnabled(true)
			}
			a.g.Harden().SetQuarantine(b)
		}),
	stat("stats.harden.checks", "Hardening verifications performed (canary and poison).",
		func(a *Allocator) any { return a.g.HardenStats().Checks }),
	stat("stats.harden.violations", "Verifications that found corruption.",
		func(a *Allocator) any { return a.g.HardenStats().Violations }),
	stat("stats.harden.passes", "Verifications that found none; checks equals violations plus passes at quiescence.",
		func(a *Allocator) any { return a.g.HardenStats().Passes }),
	stat("stats.harden.quarantined", "Frees parked in quarantine rings; equals settled at quiescence.",
		func(a *Allocator) any { return a.g.HardenStats().Quarantined }),
	stat("stats.harden.settled", "Quarantined frees settled back into the heap.",
		func(a *Allocator) any { return a.g.HardenStats().Settled }),
	stat("stats.harden.retired", "Corrupt spans retired.",
		func(a *Allocator) any { return a.g.HardenStats().Retired }),
	stat("stats.harden.lost_objects", "Live objects lost to retired spans.",
		func(a *Allocator) any { return a.g.HardenStats().LostObjects }),
	stat("stats.harden.audited", "Spans walked by the background corruption auditor.",
		func(a *Allocator) any { return a.g.HardenStats().Audited }),
	{
		name: "debug.check_invariants",
		help: "Runs the full stop-the-world heap invariant check; \"\" when clean, the violation text otherwise.",
		get: func(a *Allocator) any {
			if err := a.g.CheckInvariants(); err != nil {
				return err.Error()
			}
			return ""
		},
		noExport: true,
	},
	stat("stats.fault.injected", "Faults injected across all sites since construction.",
		func(a *Allocator) any { return a.g.Faults().Injected() }),
	stat("stats.oom.recoveries", "Memory-limit hits the backpressure ladder recovered.",
		func(a *Allocator) any { return a.g.OOMRecoveries() }),
	stat("stats.meshd.restarts", "Daemon work-loop restarts after recovered panics.",
		func(a *Allocator) any { return a.daemon.Restarts() }),
}

// controlIndex maps each key to its entry in controls.
var controlIndex = func() map[string]*control {
	m := make(map[string]*control, len(controls))
	for i := range controls {
		m[controls[i].name] = &controls[i]
	}
	return m
}()

// stat declares a read-only key.
func stat(name, help string, get func(*Allocator) any) control {
	return control{name: name, help: help, get: get}
}

// action declares a write-only key whose write runs do; the value is
// ignored.
func action(name, help string, do func(*Allocator) error) control {
	return control{name: name, help: help, set: func(a *Allocator, _ any) error { return do(a) }}
}

// flag declares a read-write bool key.
func flag(name, help string, get func(*Allocator) bool, set func(*Allocator, bool)) control {
	return control{name: name, help: help,
		get: func(a *Allocator) any { return get(a) },
		set: func(a *Allocator, v any) error {
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("%w: %s needs bool, got %T", ErrControlType, name, v)
			}
			set(a, b)
			return nil
		}}
}

// integer declares a read-write integer key whose writes must lie in
// [lo, hi]; get's dynamic type is the key's read-back type.
func integer(name, help string, lo, hi int64, get func(*Allocator) any, set func(*Allocator, int64) error) control {
	return control{name: name, help: help, get: get,
		set: func(a *Allocator, v any) error {
			n, err := asInt64(v)
			if err != nil {
				return err
			}
			if n < lo || n > hi {
				return fmt.Errorf("%w: %s must be in [%d, %d], got %d", ErrControlType, name, lo, hi, n)
			}
			return set(a, n)
		}}
}

// duration declares a read-write time.Duration key whose writes must be
// at least lo.
func duration(name, help string, lo time.Duration, get func(*Allocator) time.Duration, set func(*Allocator, time.Duration)) control {
	return control{name: name, help: help,
		get: func(a *Allocator) any { return get(a) },
		set: func(a *Allocator, v any) error {
			d, err := asDuration(v)
			if err != nil {
				return err
			}
			if d < lo {
				return fmt.Errorf("%w: %s must be at least %v, got %v", ErrControlType, name, lo, d)
			}
			set(a, d)
			return nil
		}}
}

// Control sets the runtime control named key to value. See the controls
// table in control.go for keys and types; ErrUnknownControl,
// ErrControlType and ErrControlReadOnly report the failure modes. Safe
// for concurrent use.
func (a *Allocator) Control(key string, value any) error {
	c, ok := controlIndex[key]
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
	c, ok := controlIndex[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownControl, key)
	}
	if c.get == nil {
		return nil, fmt.Errorf("%w: %q", ErrControlWriteOnly, key)
	}
	return c.get(a), nil
}

// ControlKeys lists every control key in sorted order, for tooling and
// documentation.
func ControlKeys() []string {
	keys := make([]string, 0, len(controls))
	for _, c := range controls {
		keys = append(keys, c.name)
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
