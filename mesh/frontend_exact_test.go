package mesh

import "testing"

// frontEndScript is the fixed single-goroutine script
// TestFrontEndScriptCountersExact runs: scalar traffic through the front
// end over four size classes, two Threads freeing each other's objects,
// and Flush and Mesh at fixed points. It returns the Allocator-level
// calls it made (each one stripe acquisition) and the remote frees
// drained right after a scalar call parked its front.
func frontEndScript(t *testing.T, a *Allocator) (calls, drainedAtPark uint64) {
	t.Helper()
	sizes := []int{16, 64, 256, 1024}
	malloc := func(size int) Ptr {
		t.Helper()
		calls++
		p, err := a.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	free := func(p Ptr) {
		t.Helper()
		calls++
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}

	// Scalar churn: allocate 400 objects, free every third, allocate 100
	// more, so magazines fill, pop, push and overflow-flush in each class.
	var held []Ptr
	for i := 0; i < 400; i++ {
		held = append(held, malloc(sizes[i%len(sizes)]))
	}
	var kept []Ptr
	for i, p := range held {
		if i%3 == 0 {
			free(p)
		} else {
			kept = append(kept, p)
		}
	}
	for i := 0; i < 100; i++ {
		kept = append(kept, malloc(sizes[(i*3)%len(sizes)]))
	}

	// Two Threads: each frees half of the other's objects (queued on the
	// owner's remote-free queue while its spans are attached), and the
	// scalar path frees a share of both (pushed into the magazines and
	// flushed to the owners' queues or the shard locks).
	t1, t2 := a.NewThread(), a.NewThread()
	var own1, own2 []Ptr
	for i := 0; i < 200; i++ {
		p1, err := t1.Malloc(sizes[i%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := t2.Malloc(sizes[(i+1)%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		own1, own2 = append(own1, p1), append(own2, p2)
	}
	for i := 0; i < 200; i++ {
		var err error
		switch i % 4 {
		case 0:
			err = t2.Free(own1[i])
			kept = append(kept, own2[i])
		case 1:
			err = t1.Free(own2[i])
			kept = append(kept, own1[i])
		case 2:
			free(own1[i])
			free(own2[i])
		default:
			kept = append(kept, own1[i], own2[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// t2 frees scalar-path objects: those on spans attached to the front's
	// heap queue there, and the next scalar call drains them when it parks
	// the front.
	for _, p := range kept[:40] {
		if err := t2.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	kept = kept[40:]
	free(malloc(64))
	drainedAtPark = a.g.RemoteDrained()

	// A refill on t1 drains its queue; t2 drains when it closes.
	for i := 0; i < 300; i++ {
		p, err := t1.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := t1.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Close(); err != nil {
		t.Fatal(err)
	}

	// First quiesce point: flush the front end and the pool, then mesh.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Mesh()

	// Free the kept objects through the scalar path, in an order that
	// scatters survivors, and mesh again at the final quiesce point.
	for i := 1; i < len(kept); i += 2 {
		free(kept[i])
	}
	for i := 0; i < len(kept); i += 2 {
		if i%8 != 0 {
			free(kept[i])
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Mesh()
	for i := 0; i < len(kept); i += 8 {
		free(kept[i])
	}
	return calls, drainedAtPark
}

// TestFrontEndScriptCountersExact pins the scalar front end and the
// layers below it to exact counts on a fixed script: one goroutine, seed
// 1, a LogicalClock, and no background work. The stripe hit/miss split
// follows the goroutine's stack page, which can move when the stack
// grows, so only their sum is pinned; every other value must repeat at
// any GOMAXPROCS and under the race detector.
func TestFrontEndScriptCountersExact(t *testing.T) {
	a := New(WithSeed(1), WithClock(NewLogicalClock()))
	calls, drainedAtPark := frontEndScript(t, a)
	count := func(key string) int64 {
		t.Helper()
		v, err := a.ReadControl(key)
		if err != nil {
			t.Fatal(err)
		}
		switch n := v.(type) {
		case uint64:
			return int64(n)
		case int64:
			return n
		}
		t.Fatalf("%s: unexpected type %T", key, v)
		return 0
	}
	want := map[string]int64{
		"stats.frontend.fills":          121,
		"stats.frontend.flushes":        179,
		"stats.frontend.cached_objects": 18,
		"stats.pool.borrows":            3,
		"stats.pool.returns":            2,
		"stats.remote.queued":           73,
		"stats.remote.drained":          73,
		"stats.global.shard_acquires":   439,
		"stats.arena.lookups":           2679,
		"stats.rss":                     61440,
	}
	for key, w := range want {
		if got := count(key); got != w {
			t.Errorf("%s = %d, want %d", key, got, w)
		}
	}
	if got := count("stats.frontend.hits") + count("stats.frontend.misses"); got != int64(calls) || calls != 1262 {
		t.Errorf("stats.frontend hits+misses = %d over %d calls, want 1262", got, calls)
	}
	if drainedAtPark != 15 {
		t.Errorf("stats.remote.drained after a park = %d, want 15", drainedAtPark)
	}
	// Every object was freed, so Stats must balance while the magazines
	// still hold objects.
	st := a.Stats()
	if st.Allocs != 1201 || st.Frees != 1201 || st.Live != 0 {
		t.Errorf("allocs=%d frees=%d live=%d, want 1201/1201/0", st.Allocs, st.Frees, st.Live)
	}
	if st.Mesh.SpansMeshed != 6 {
		t.Errorf("spans meshed = %d, want 6", st.Mesh.SpansMeshed)
	}
	requireCleanInvariants(t, a)
}
