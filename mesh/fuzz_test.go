package mesh

import (
	"fmt"
	"testing"
	"time"
)

// FuzzSetControl hardens the mallctl surface against hostile key/value
// pairs: no input may panic, every failure must be a typed control error,
// and a rejected write must leave the readable state of its key untouched
// (reject-without-mutation). Values arrive as the fuzzer's primitive
// types plus a selector that maps them onto the any-typed Control call.
func FuzzSetControl(f *testing.F) {
	keys := ControlKeys()
	f.Add("mesh.period", "250ms", int64(0), false, uint8(0))
	f.Add("mesh.enabled", "", int64(0), true, uint8(3))
	f.Add("mesh.max_pause", "0s", int64(0), false, uint8(0))
	f.Add("harden.enabled", "yes", int64(1), false, uint8(0))
	f.Add("fault.plan", "harden.canary:count=1", int64(0), false, uint8(0))
	f.Add("fault.plan", "bogus.site:rate=2", int64(0), false, uint8(0))
	f.Add("os.memory_limit", "", int64(-5), false, uint8(1))
	f.Add("os.memory_limit", "", int64(4095), false, uint8(1))
	f.Add("trace.buffer_events", "", int64(1<<40), false, uint8(2))
	f.Add("unknown.key", "x", int64(7), true, uint8(4))
	f.Fuzz(func(t *testing.T, key, sval string, ival int64, bval bool, pick uint8) {
		// Steer most executions onto real keys so the table gets coverage;
		// raw fuzzed keys still exercise the unknown-key path.
		if int(pick)%2 == 0 && len(keys) > 0 {
			key = keys[int(ival%int64(len(keys))+int64(len(keys)))%len(keys)]
		}
		var val any
		switch pick % 5 {
		case 0:
			val = sval
		case 1:
			val = ival
		case 2:
			val = int(ival)
		case 3:
			val = bval
		case 4:
			val = time.Duration(ival)
		}
		a := New(WithSeed(1), WithClock(NewLogicalClock()))
		before := snapshotControls(t, a)
		if err := a.Control(key, val); err != nil {
			// A rejected write must not have mutated anything readable.
			after := snapshotControls(t, a)
			for k, b := range before {
				if after[k] != b {
					t.Fatalf("rejected Control(%q, %#v) mutated %q: %q -> %q", key, val, k, b, after[k])
				}
			}
		}
		// The allocator must still function whatever happened.
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatalf("Malloc after Control(%q, %#v): %v", key, val, err)
		}
		if err := a.Free(p); err != nil {
			t.Fatalf("Free after Control(%q, %#v): %v", key, val, err)
		}
	})
}

// snapshotControls renders every readable, side-effect-free control value
// to a comparable string form.
func snapshotControls(t *testing.T, a *Allocator) map[string]string {
	t.Helper()
	out := make(map[string]string, len(controls))
	for _, c := range controls {
		if c.get == nil || c.name == "debug.check_invariants" {
			continue
		}
		out[c.name] = fmt.Sprintf("%v", c.get(a))
	}
	return out
}
