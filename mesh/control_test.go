package mesh

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestControlKeyTable exercises every control key: round-trips for
// read-write keys, reads for read-only keys, triggers for write-only
// keys, and the error for the wrong direction. The cases list must stay
// in sync with ControlKeys, which the test enforces.
func TestControlKeyTable(t *testing.T) {
	cases := []struct {
		key      string
		set      any // nil = read-only key
		want     any // expected ReadControl after set (or current value); nil = write-only key
		readback bool
	}{
		{key: "mesh.period", set: 250 * time.Millisecond, want: 250 * time.Millisecond, readback: true},
		{key: "mesh.enabled", set: false, want: false, readback: true},
		{key: "mesh.background", set: true, want: true, readback: true},
		{key: "mesh.max_pause", set: 2 * time.Millisecond, want: 2 * time.Millisecond, readback: true},
		{key: "mesh.min_savings", set: 4096, want: 4096, readback: true},
		{key: "mesh.compact", set: struct{}{}},
		{key: "os.memory_limit", set: int64(1 << 20), want: int64(1 << 20), readback: true},
		{key: "pool.idle", want: 0, readback: true},
		{key: "pool.created", want: 0, readback: true},
		// No Allocator-level call has run, so the stripes are untouched.
		{key: "stats.frontend.hits", want: uint64(0), readback: true},
		{key: "stats.frontend.misses", want: uint64(0), readback: true},
		{key: "stats.frontend.fills", want: uint64(0), readback: true},
		{key: "stats.frontend.flushes", want: uint64(0), readback: true},
		{key: "stats.frontend.cached_objects", want: int64(0), readback: true},
		{key: "stats.rss", want: int64(0), readback: true},
		{key: "stats.live", want: int64(0), readback: true},
		{key: "stats.allocs", want: uint64(0), readback: true},
		{key: "stats.frees", want: uint64(0), readback: true},
		// mesh.enabled was set false above, so the mesh.compact trigger
		// legitimately ran no pass — and therefore recorded no pauses.
		{key: "stats.mesh_passes", want: uint64(0), readback: true},
		{key: "stats.mesh.pauses", want: PauseHistogram{}, readback: true},
		// No allocation has happened, so the contention introspection
		// counters sit at zero: no page-map lookups, no shard acquisitions,
		// no data-path translations, no seqlock retries.
		{key: "stats.arena.lookups", want: uint64(0), readback: true},
		{key: "stats.global.shard_acquires", want: uint64(0), readback: true},
		{key: "stats.vm.translations", want: uint64(0), readback: true},
		{key: "stats.vm.retries", want: uint64(0), readback: true},
		{key: "stats.remote.queued", want: uint64(0), readback: true},
		{key: "stats.remote.drained", want: uint64(0), readback: true},
		{key: "stats.pool.borrows", want: uint64(0), readback: true},
		{key: "stats.pool.returns", want: uint64(0), readback: true},
		{key: "trace.enabled", set: true, want: true, readback: true},
		{key: "trace.sample_rate", set: 8, want: 8, readback: true},
		// Buffer sizes round up to the next power of two.
		{key: "trace.buffer_events", set: 3000, want: 4096, readback: true},
		{key: "trace.offered", want: uint64(0), readback: true},
		{key: "trace.dropped", want: uint64(0), readback: true},
		// A zero-budget clause arms the site but can never fire, so the
		// plan write (which also enables the plane) is inert here.
		{key: "fault.plan", set: "meshd.stall:count=0", want: "meshd.stall:count=0", readback: true},
		{key: "harden.enabled", set: true, want: true, readback: true},
		{key: "harden.quarantine", set: true, want: true, readback: true},
		{key: "debug.check_invariants", want: "", readback: true},
		{key: "stats.fault.injected", want: uint64(0), readback: true},
		{key: "stats.oom.recoveries", want: uint64(0), readback: true},
		{key: "stats.meshd.restarts", want: uint64(0), readback: true},
		{key: "stats.harden.checks", want: uint64(0), readback: true},
		{key: "stats.harden.violations", want: uint64(0), readback: true},
		{key: "stats.harden.passes", want: uint64(0), readback: true},
		{key: "stats.harden.quarantined", want: uint64(0), readback: true},
		{key: "stats.harden.settled", want: uint64(0), readback: true},
		{key: "stats.harden.retired", want: uint64(0), readback: true},
		{key: "stats.harden.lost_objects", want: uint64(0), readback: true},
		{key: "stats.harden.audited", want: uint64(0), readback: true},
	}

	covered := make(map[string]bool)
	a := New(WithSeed(1), WithClock(NewLogicalClock()))
	for _, tc := range cases {
		covered[tc.key] = true
		if tc.set != nil {
			if err := a.Control(tc.key, tc.set); err != nil {
				t.Fatalf("Control(%q, %v): %v", tc.key, tc.set, err)
			}
		} else if err := a.Control(tc.key, 0); !errors.Is(err, ErrControlReadOnly) {
			t.Fatalf("Control(%q) on read-only key returned %v", tc.key, err)
		}
		if tc.readback {
			got, err := a.ReadControl(tc.key)
			if err != nil {
				t.Fatalf("ReadControl(%q): %v", tc.key, err)
			}
			if got != tc.want {
				t.Fatalf("ReadControl(%q) = %v (%T), want %v (%T)", tc.key, got, got, tc.want, tc.want)
			}
		} else if _, err := a.ReadControl(tc.key); !errors.Is(err, ErrControlWriteOnly) {
			t.Fatalf("ReadControl(%q) on write-only key returned %v", tc.key, err)
		}
	}
	for _, key := range ControlKeys() {
		if !covered[key] {
			t.Errorf("control key %q has no test case", key)
		}
	}
	if len(covered) != len(ControlKeys()) {
		t.Errorf("test covers %d keys, ControlKeys lists %d", len(covered), len(ControlKeys()))
	}
}

func TestControlUnknownKey(t *testing.T) {
	a := New()
	if err := a.Control("mesh.bogus", 1); !errors.Is(err, ErrUnknownControl) {
		t.Fatalf("Control(unknown) = %v", err)
	}
	if _, err := a.ReadControl("bogus.key"); !errors.Is(err, ErrUnknownControl) {
		t.Fatalf("ReadControl(unknown) = %v", err)
	}
}

func TestControlBadTypes(t *testing.T) {
	a := New()
	// Every settable non-action key checks its value's type.
	for _, c := range controls {
		if c.set == nil || c.get == nil {
			continue
		}
		if err := a.Control(c.name, struct{}{}); !errors.Is(err, ErrControlType) {
			t.Errorf("Control(%q, struct{}{}) = %v, want ErrControlType", c.name, err)
		}
	}
	// Out-of-range values and malformed strings.
	bad := []struct {
		key string
		val any
	}{
		{"mesh.period", "not-a-duration"},
		{"mesh.period", -time.Millisecond},
		{"mesh.max_pause", time.Duration(0)},
		{"mesh.min_savings", -1},
		{"os.memory_limit", int64(-1)},
		// A sub-page limit would round down to 0 pages: unlimited.
		{"os.memory_limit", 1},
		{"os.memory_limit", PageSize - 1},
		{"trace.sample_rate", 0},
		{"trace.buffer_events", 0},
		{"trace.buffer_events", trace.MinBufferEvents - 1},
		{"trace.buffer_events", int64(1 << 40)},
		{"fault.plan", "bogus.site:rate=2"},   // unknown site
		{"fault.plan", "vm.commit:rate=0"},    // rate must be >= 1
		{"fault.plan", "vm.commit:bogus=1"},   // unknown clause key
		{"fault.plan", "vm.commit:mode=soft"}, // unknown mode
	}
	for _, tc := range bad {
		if err := a.Control(tc.key, tc.val); !errors.Is(err, ErrControlType) {
			t.Errorf("Control(%q, %v (%T)) = %v, want ErrControlType", tc.key, tc.val, tc.val, err)
		}
	}

	// A rejected sub-page limit leaves the previous limit in force.
	if err := a.Control("os.memory_limit", int64(1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := a.Control("os.memory_limit", PageSize-1); !errors.Is(err, ErrControlType) {
		t.Fatalf("sub-page os.memory_limit = %v, want ErrControlType", err)
	}
	if got, _ := a.ReadControl("os.memory_limit"); got != int64(1<<20) {
		t.Fatalf("rejected os.memory_limit write changed the limit to %v", got)
	}
	if err := a.Control("os.memory_limit", 0); err != nil {
		t.Fatal(err)
	}

	// A rejected plan write must leave the previously armed plan — and the
	// enable switch — untouched.
	if err := a.Control("fault.plan", "meshd.stall:count=0"); err != nil {
		t.Fatal(err)
	}
	if err := a.Control("fault.plan", "bogus.site"); !errors.Is(err, ErrControlType) {
		t.Fatalf("invalid plan write = %v, want ErrControlType", err)
	}
	if got, _ := a.ReadControl("fault.plan"); got != "meshd.stall:count=0" {
		t.Fatalf("rejected plan write clobbered the plan: %q", got)
	}
	if !a.g.Faults().Enabled() {
		t.Fatal("rejected plan write disabled the fault plane")
	}

	// Rejected harden.* writes must leave the plane untouched, like the
	// fault.* surface: the wrong-type writes above never flipped the
	// enable bit.
	if got, _ := a.ReadControl("harden.enabled"); got != false {
		t.Fatalf("rejected harden.enabled writes flipped the switch to %v", got)
	}

	// The out-of-range buffer sizes above were rejected, not clamped.
	if got, _ := a.ReadControl("trace.buffer_events"); got != trace.DefaultBufferEvents {
		t.Fatalf("rejected trace.buffer_events writes changed the capacity to %v", got)
	}
}

// TestOptionsMatchControl pins every option that mirrors a control key
// to that key's table entry: New(WithX(v)) leaves every settable key
// reading what Control(key, v) on a default allocator leaves, and a value
// the key rejects panics in New with ErrControlType.
func TestOptionsMatchControl(t *testing.T) {
	cases := []struct {
		key  string
		good any
		with Option // the option given good
		bad  Option // the option given a rejected value; nil for bools
	}{
		{"mesh.enabled", false, WithMeshing(false), nil},
		{"mesh.period", 5 * time.Millisecond, WithMeshPeriod(5 * time.Millisecond), WithMeshPeriod(-time.Second)},
		{"mesh.min_savings", 4096, WithMinMeshSavings(4096), WithMinMeshSavings(-1)},
		{"mesh.background", true, WithBackgroundMeshing(true), nil},
		{"mesh.max_pause", 2 * time.Millisecond, WithMaxMeshPause(2 * time.Millisecond), WithMaxMeshPause(0)},
		{"fault.plan", "meshd.stall:count=0", WithFaultPlan("meshd.stall:count=0"), WithFaultPlan("bogus.site")},
		{"harden.enabled", true, WithHardening(true), nil},
		{"harden.quarantine", true, WithQuarantine(true), nil},
	}
	settable := func(a *Allocator) map[string]any {
		out := map[string]any{}
		for _, c := range controls {
			if c.get != nil && c.set != nil {
				out[c.name] = c.get(a)
			}
		}
		return out
	}
	listed := map[string]bool{}
	for _, tc := range cases {
		listed[tc.key] = true
		t.Run(tc.key, func(t *testing.T) {
			var s settings
			tc.with(&s)
			if len(s.writes) != 1 || s.writes[0].key != tc.key {
				t.Fatalf("option writes %+v, want one write of %s", s.writes, tc.key)
			}
			viaControl := New(WithSeed(1), WithClock(NewLogicalClock()))
			defer viaControl.Close()
			if controlIndex[tc.key].get(viaControl) == tc.good {
				t.Fatalf("%s already reads %v by default", tc.key, tc.good)
			}
			if err := viaControl.Control(tc.key, tc.good); err != nil {
				t.Fatal(err)
			}
			viaOption := New(WithSeed(1), WithClock(NewLogicalClock()), tc.with)
			defer viaOption.Close()
			want, got := settable(viaControl), settable(viaOption)
			for key := range want {
				if got[key] != want[key] {
					t.Errorf("%s after the option = %v, after Control = %v", key, got[key], want[key])
				}
			}
			if tc.bad == nil {
				return
			}
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, ErrControlType) {
					t.Errorf("New with a rejected %s value: panic %v, want ErrControlType", tc.key, err)
				}
			}()
			New(tc.bad).Close()
		})
	}

	// The cases cover every option that writes a key.
	f, err := parser.ParseFile(token.NewFileSet(), "mesh.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name.Name, "With") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "writeControl" {
				key, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
				if !listed[key] {
					t.Errorf("%s writes %s, which no case covers", fn.Name.Name, key)
				}
			}
			return true
		})
	}
}

// TestControlValuesTakeEffect checks the knobs actually steer the
// allocator, not just a settings map.
func TestControlValuesTakeEffect(t *testing.T) {
	clock := NewLogicalClock()
	a := New(WithSeed(9), WithClock(clock))

	// Build a meshable heap: many sparse spans.
	var live []Ptr
	for i := 0; i < 16*256; i++ {
		p, err := a.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			live = append(live, p)
		} else if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	// With meshing disabled, mesh.compact and Mesh() are no-ops.
	if err := a.Control("mesh.enabled", false); err != nil {
		t.Fatal(err)
	}
	if released := a.Mesh(); released != 0 {
		t.Fatalf("Mesh released %d spans while disabled", released)
	}
	if err := a.Control("mesh.enabled", true); err != nil {
		t.Fatal(err)
	}
	if err := a.Control("mesh.compact", nil); err != nil {
		t.Fatal(err)
	}
	passes, err := a.ReadControl("stats.mesh_passes")
	if err != nil {
		t.Fatal(err)
	}
	if passes.(uint64) == 0 {
		t.Fatal("mesh.compact ran no pass")
	}

	// os.memory_limit must make further allocation fail, and lifting it
	// must make allocation succeed again.
	if err := a.Control("os.memory_limit", int64(PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Malloc(MaxSmallSize * 4); err == nil {
		t.Fatal("allocation under a 1-page memory limit succeeded")
	}
	if err := a.Control("os.memory_limit", 0); err != nil {
		t.Fatal(err)
	}
	p, err := a.Malloc(MaxSmallSize * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	_ = live
}

// TestContentionIntrospection drives traffic shapes with known lock
// behaviour through the allocator and checks the contention counters move
// accordingly: local frees bump only the lock-free lookup counter;
// cross-thread frees of a closed owner's objects (detached spans, so
// nothing can queue) acquire exactly one shard per free, and batch frees
// one shard per class; while the owner is live, remote frees queue on its
// heap and take no shard lock at all beyond refill setup; and pooled churn
// in 64-object batches takes fewer than half the shard locks of the same
// churn in scalar calls.
func TestContentionIntrospection(t *testing.T) {
	readU64 := func(t *testing.T, a *Allocator, key string) uint64 {
		t.Helper()
		v, err := a.ReadControl(key)
		if err != nil {
			t.Fatalf("ReadControl(%q): %v", key, err)
		}
		return v.(uint64)
	}
	cases := []struct {
		name string
		run  func(t *testing.T, a *Allocator)
		// counter deltas: lookups must grow by at least minLookups, shard
		// acquisitions by at least minShards and at most maxShards, and
		// queued message-passed frees by exactly wantQueued.
		minLookups, minShards, maxShards uint64
		wantQueued                       uint64
	}{
		{
			name: "local-free-lookup-only",
			run: func(t *testing.T, a *Allocator) {
				th := a.NewThread()
				defer th.Close()
				p, err := th.Malloc(64)
				if err != nil {
					t.Fatal(err)
				}
				if err := th.Free(p); err != nil {
					t.Fatal(err)
				}
			},
			// One local free: one lock-free lookup; shard locks only for
			// the initial refill (alloc + registry), never for the free.
			minLookups: 1,
			minShards:  1,
			maxShards:  4,
		},
		{
			name: "remote-frees-take-shards",
			run: func(t *testing.T, a *Allocator) {
				th := a.NewThread()
				other := a.NewThread()
				defer other.Close()
				var ptrs []Ptr
				for i := 0; i < 8; i++ {
					p, err := th.Malloc(64)
					if err != nil {
						t.Fatal(err)
					}
					ptrs = append(ptrs, p)
				}
				if err := th.Close(); err != nil {
					t.Fatal(err)
				}
				for _, p := range ptrs {
					if err := other.Free(p); err != nil {
						t.Fatal(err)
					}
				}
			},
			// Each free of a detached span's object: one lock-free miss
			// on the freeing thread, then one shard acquisition (plus a
			// re-lookup) on the global path.
			minLookups: 16,
			minShards:  8,
			maxShards:  64,
		},
		{
			name: "remote-frees-queue-without-shards",
			run: func(t *testing.T, a *Allocator) {
				th := a.NewThread()
				defer th.Close()
				other := a.NewThread()
				defer other.Close()
				for i := 0; i < 8; i++ {
					p, err := th.Malloc(64)
					if err != nil {
						t.Fatal(err)
					}
					if err := other.Free(p); err != nil {
						t.Fatal(err)
					}
				}
			},
			// Each remote free to a live owner: one lock-free miss, one
			// CAS onto the owner's queue — the only shard acquisitions
			// left are th's single refill (span alloc + registry).
			minLookups: 8,
			minShards:  1,
			maxShards:  4,
			wantQueued: 8,
		},
		{
			name: "batch-free-one-shard-per-class",
			run: func(t *testing.T, a *Allocator) {
				th := a.NewThread()
				other := a.NewThread()
				defer other.Close()
				var ptrs []Ptr
				for _, size := range []int{16, 16, 16, 256, 256, 256} {
					p, err := th.Malloc(size)
					if err != nil {
						t.Fatal(err)
					}
					ptrs = append(ptrs, p)
				}
				if err := th.Close(); err != nil {
					t.Fatal(err)
				}
				if err := other.FreeBatch(ptrs); err != nil {
					t.Fatal(err)
				}
			},
			// Six frees of a closed owner's objects in two classes: the
			// batch partition takes each of the two shard locks once, not
			// six times. Setup refills take a few more, so bound loosely
			// from above but well under one-acquisition-per-free (6) plus
			// setup.
			minLookups: 12,
			minShards:  2,
			maxShards:  10,
		},
		{
			name: "batch-free-queues-without-shards",
			run: func(t *testing.T, a *Allocator) {
				th := a.NewThread()
				defer th.Close()
				other := a.NewThread()
				defer other.Close()
				var ptrs []Ptr
				for _, size := range []int{16, 16, 16, 256, 256, 256} {
					p, err := th.Malloc(size)
					if err != nil {
						t.Fatal(err)
					}
					ptrs = append(ptrs, p)
				}
				if err := other.FreeBatch(ptrs); err != nil {
					t.Fatal(err)
				}
			},
			// The whole remote batch coalesces onto th's queue: the only
			// shard acquisitions are th's two refills.
			minLookups: 6,
			minShards:  2,
			maxShards:  8,
			wantQueued: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(WithSeed(1), WithClock(NewLogicalClock()), WithMeshing(false))
			look0 := readU64(t, a, "stats.arena.lookups")
			shard0 := readU64(t, a, "stats.global.shard_acquires")
			tc.run(t, a)
			dLook := readU64(t, a, "stats.arena.lookups") - look0
			dShard := readU64(t, a, "stats.global.shard_acquires") - shard0
			if dLook < tc.minLookups {
				t.Errorf("arena lookups grew %d, want >= %d", dLook, tc.minLookups)
			}
			if dShard < tc.minShards || dShard > tc.maxShards {
				t.Errorf("shard acquisitions grew %d, want in [%d, %d]",
					dShard, tc.minShards, tc.maxShards)
			}
			if got := readU64(t, a, "stats.remote.queued"); got != tc.wantQueued {
				t.Errorf("stats.remote.queued = %d, want %d", got, tc.wantQueued)
			}
			if drained := readU64(t, a, "stats.remote.drained"); drained != tc.wantQueued {
				t.Errorf("stats.remote.drained = %d, want %d (all heaps closed)", drained, tc.wantQueued)
			}
		})
	}

	// The same pooled churn on one goroutine, once through scalar calls
	// and once through 64-object batches: allocate until 4096 objects are
	// live, free the older half, 16,000 calls in all. Batch frees take
	// each class's shard lock once per batch, so batches must take fewer
	// than half the shard locks scalar calls take.
	t.Run("pooled-batch-halves-scalar-shards", func(t *testing.T) {
		sizes := []int{16, 16, 16, 16, 16, 16, 16, 16, 64, 64, 64, 64, 64, 64, 256, 256, 256, 256, 1024, 1024, 2048}
		churn := func(batch int) uint64 {
			a := New(WithSeed(1), WithClock(NewLogicalClock()), WithMeshing(false))
			rnd := rand.New(rand.NewSource(1))
			free := func(ptrs []Ptr) {
				if batch > 1 {
					if err := a.FreeBatch(ptrs); err != nil {
						t.Fatal(err)
					}
					return
				}
				for _, p := range ptrs {
					if err := a.Free(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			shard0 := readU64(t, a, "stats.global.shard_acquires")
			var live []Ptr
			for calls := 0; calls < 16_000; {
				want := make([]int, batch)
				for i := range want {
					want[i] = sizes[rnd.Intn(len(sizes))]
				}
				if batch == 1 {
					p, err := a.Malloc(want[0])
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				} else {
					ptrs, err := a.MallocBatch(want)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, ptrs...)
				}
				calls += batch
				if len(live) >= 4096 {
					n := len(live) / 2
					free(live[:n])
					live = append(live[:0], live[n:]...)
					calls += n
				}
			}
			free(live)
			return readU64(t, a, "stats.global.shard_acquires") - shard0
		}
		scalar, batch := churn(1), churn(64)
		t.Logf("shard acquisitions: scalar %d, batch-64 %d", scalar, batch)
		if batch*2 >= scalar {
			t.Errorf("batch-64 took %d shard locks, scalar %d: want fewer than half", batch, scalar)
		}
	})
}

// TestVMCounterShapes pins the translation/retry counters to traffic
// shapes: a multi-page access through one span costs one translation, each
// additional access costs one more, and an uncontended allocator never
// retries. Then a meshing pass racing live readers must leave the data
// readable with retries still observable (usually 0, but any value is
// legal — the test asserts the counter reads, not the schedule).
func TestVMCounterShapes(t *testing.T) {
	readU64 := func(t *testing.T, a *Allocator, key string) uint64 {
		t.Helper()
		v, err := a.ReadControl(key)
		if err != nil {
			t.Fatalf("ReadControl(%q): %v", key, err)
		}
		return v.(uint64)
	}
	a := New(WithSeed(1), WithClock(NewLogicalClock()))
	p, err := a.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Memset(p, 0xDD, 8192); err != nil {
		t.Fatal(err)
	}
	tr0 := readU64(t, a, "stats.vm.translations")
	buf := make([]byte, 8192)
	if err := a.Read(p, buf); err != nil {
		t.Fatal(err)
	}
	if d := readU64(t, a, "stats.vm.translations") - tr0; d != 1 {
		t.Errorf("whole-object read cost %d translations, want 1 (single span run)", d)
	}
	for i := 0; i < 64; i++ {
		if err := a.Write(p+uint64(i)*64, buf[:64]); err != nil {
			t.Fatal(err)
		}
	}
	if d := readU64(t, a, "stats.vm.translations") - tr0; d < 65 {
		t.Errorf("translations grew %d over 1 read + 64 writes, want >= 65", d)
	}
	if r := readU64(t, a, "stats.vm.retries"); r != 0 {
		t.Errorf("uncontended allocator recorded %d retries", r)
	}
	// Build meshable garbage and run a pass while rereading the object:
	// contents must hold (§4.5.2) and the counters must stay readable.
	var junk []Ptr
	for i := 0; i < 4*256; i++ {
		q, err := a.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		junk = append(junk, q)
	}
	for i, q := range junk {
		if i%4 != 0 {
			if err := a.Free(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Mesh()
	if err := a.Read(p, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0xDD {
			t.Fatalf("byte %d corrupted across mesh: %#x", i, b)
		}
	}
	_ = readU64(t, a, "stats.vm.retries")
}
