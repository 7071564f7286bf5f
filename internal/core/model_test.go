package core

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// modelObj is the reference model's view of one live allocation: its
// address, requested size, and the content pattern written into it.
type modelObj struct {
	addr uint64
	size int
	seed byte
}

// TestModelBasedChurn drives the allocator with a long random operation
// sequence while maintaining a reference model, and checks after every
// phase that:
//
//   - no two live objects overlap (addresses + usable sizes are disjoint),
//   - every object still contains exactly the bytes the model wrote,
//     even as meshing relocates physical storage underneath it,
//   - usable sizes never shrink below requested sizes,
//   - the heap's structural invariants hold (CheckIntegrity).
//
// This is the repository's deepest end-to-end correctness check: any
// mis-merge of bitmaps, bad remap, lost write, or bad reuse after meshing
// shows up as a content mismatch here.
func TestModelBasedChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	g.SetMeshPeriod(0)
	th := NewThreadHeap(g, 1)
	rnd := rng.New(2025)

	var live []modelObj
	pattern := func(seed byte, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = seed + byte(i*31)
		}
		return b
	}

	verifyAll := func(step int) {
		// Contents intact?
		for _, o := range live {
			want := pattern(o.seed, o.size)
			got := make([]byte, o.size)
			if err := g.OS().Read(o.addr, got); err != nil {
				t.Fatalf("step %d: read %#x: %v", step, o.addr, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: object %#x corrupted at byte %d (got %#x want %#x)",
						step, o.addr, i, got[i], want[i])
				}
			}
		}
		// Disjointness (by usable size)?
		type iv struct{ lo, hi uint64 }
		ivs := make([]iv, 0, len(live))
		for _, o := range live {
			usable, err := g.UsableSize(o.addr)
			if err != nil {
				t.Fatalf("step %d: usable(%#x): %v", step, o.addr, err)
			}
			if usable < o.size {
				t.Fatalf("step %d: usable %d < size %d", step, usable, o.size)
			}
			ivs = append(ivs, iv{o.addr, o.addr + uint64(usable)})
		}
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					t.Fatalf("step %d: objects overlap: [%#x,%#x) and [%#x,%#x)",
						step, ivs[i].lo, ivs[i].hi, ivs[j].lo, ivs[j].hi)
				}
			}
		}
		if err := g.CheckIntegrity(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	const steps = 12000
	for step := 0; step < steps; step++ {
		switch {
		case rnd.Bool(0.55) || len(live) == 0:
			size := rnd.InRange(1, 4096)
			if rnd.Bool(0.02) {
				size = rnd.InRange(16385, 80000) // occasional large object
			}
			addr, err := th.Malloc(size)
			if err != nil {
				t.Fatalf("step %d: malloc(%d): %v", step, size, err)
			}
			seed := byte(rnd.UintN(256))
			if err := g.OS().Write(addr, pattern(seed, size)); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			live = append(live, modelObj{addr: addr, size: size, seed: seed})
		default:
			idx := int(rnd.UintN(uint64(len(live))))
			o := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := th.Free(o.addr); err != nil {
				t.Fatalf("step %d: free(%#x): %v", step, o.addr, err)
			}
		}
		if step%1500 == 1499 {
			g.Mesh()
			verifyAll(step)
		}
	}
	g.Mesh()
	verifyAll(steps)

	for _, o := range live {
		if err := th.Free(o.addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Live != 0 {
		t.Fatalf("live = %d after teardown", g.Stats().Live)
	}
}

// TestModelBasedMultiThread runs the model check with several thread heaps
// and cross-thread frees, sequentially interleaved for determinism (true
// concurrency is covered by TestConcurrentThreadsWithMeshing).
func TestModelBasedMultiThread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	const nThreads = 3
	var ths [nThreads]*ThreadHeap
	for i := range ths {
		ths[i] = NewThreadHeap(g, uint64(i+1))
	}
	rnd := rng.New(99)

	type obj struct {
		addr  uint64
		owner int
		val   byte
	}
	var live []obj
	for step := 0; step < 9000; step++ {
		tid := int(rnd.UintN(nThreads))
		if rnd.Bool(0.55) || len(live) == 0 {
			size := rnd.InRange(1, 1024)
			addr, err := ths[tid].Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			val := byte(step)
			if err := g.OS().SetByte(addr, val); err != nil {
				t.Fatal(err)
			}
			live = append(live, obj{addr: addr, owner: tid, val: val})
		} else {
			idx := int(rnd.UintN(uint64(len(live))))
			o := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			// Half the frees come from a different thread than the owner.
			freer := o.owner
			if rnd.Bool(0.5) {
				freer = int(rnd.UintN(nThreads))
			}
			if err := ths[freer].Free(o.addr); err != nil {
				t.Fatalf("step %d: cross-thread free: %v", step, err)
			}
		}
		if step%2000 == 1999 {
			g.Mesh()
			for _, o := range live {
				b, err := g.OS().ByteAt(o.addr)
				if err != nil || b != o.val {
					t.Fatalf("step %d: object %#x = %d (%v), want %d", step, o.addr, b, err, o.val)
				}
			}
		}
	}
	for _, o := range live {
		if err := ths[o.owner].Free(o.addr); err != nil {
			t.Fatal(err)
		}
	}
	for _, th := range ths {
		if err := th.Done(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestAddressesNeverChangeAcrossMeshes pins the paper's core compatibility
// property: a pointer handed to the application remains the same pointer —
// bit for bit — regardless of how many times its physical backing moves.
func TestAddressesNeverChangeAcrossMeshes(t *testing.T) {
	g, th := testHeap(t, nil)
	keep := buildMeshableSpans(t, g, th)
	before := make(map[uint64]byte, len(keep))
	for a, v := range keep {
		before[a] = v
	}
	for i := 0; i < 5; i++ {
		g.Mesh()
	}
	if len(before) != len(keep) {
		t.Fatal("address set changed size")
	}
	for a, v := range before {
		got, err := g.OS().ByteAt(a)
		if err != nil {
			t.Fatalf("address %#x became invalid: %v", a, err)
		}
		if got != v {
			t.Fatalf("address %#x content changed", a)
		}
	}
	// The allocator reports multiple virtual spans per physical span.
	cs := g.ClassStatsSnapshot()
	meshed := 0
	for _, c := range cs {
		meshed += c.MeshedSpans
	}
	if meshed == 0 {
		t.Fatal("no meshed spans visible in stats")
	}
	_ = fmt.Sprintf("%d", meshed)
}
