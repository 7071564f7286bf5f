// Repository-level benchmarks, in two groups. The first has one benchmark
// per table/figure of the paper's evaluation (§6) and per analytical
// validation (§2.2, §5): each runs the corresponding experiment end to end
// at a reduced scale (the full-scale numbers come from
// `go run ./cmd/meshbench -scale 1 all`) and reports the experiment's
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation in miniature. The second times the
// public API's hot paths: scalar vs batch, pooled vs Thread, the VM data
// path, shard-lock contention and remote frees. Their ns/op are for
// comparing two builds on one machine; CI runs every benchmark once as a
// smoke test, and end-to-end perf claims come from the benchmark/ module.
package repro

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/mesh"
)

// BenchmarkFig6Firefox regenerates Figure 6 (browser workload, Mesh vs
// jemalloc). Metric: mesh mean-RSS change vs baseline in percent (paper:
// −16 at full scale; small scales pay a constant per-class overhead).
func BenchmarkFig6Firefox(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(8)
		if err != nil {
			b.Fatal(err)
		}
		delta = res.DeltaPercent
	}
	b.ReportMetric(delta, "Δmean-rss-%")
}

// BenchmarkFig7Redis regenerates Figure 7 (Redis LRU cache). Metric: final
// RSS savings of Mesh vs Mesh-without-meshing in percent (paper: 39).
func BenchmarkFig7Redis(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(50)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.SavingsPercent
	}
	b.ReportMetric(savings, "savings-%")
}

// BenchmarkFig8Ruby regenerates Figure 8 (Ruby regular-pattern
// microbenchmark). Metric: mean-RSS savings of randomized Mesh vs Mesh
// without randomization in percent (paper: ~16 points).
func BenchmarkFig8Ruby(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(64)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.RandSavingsPercent
	}
	b.ReportMetric(savings, "rand-savings-%")
}

// BenchmarkSpecSuite regenerates the §6.2.3 SPECint-like table. Metric:
// geomean peak-RSS ratio mesh/glibc (paper: 0.976).
func BenchmarkSpecSuite(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Spec(60)
		if err != nil {
			b.Fatal(err)
		}
		geo = res.GeomeanMemRatio
	}
	b.ReportMetric(geo, "geomean-ratio")
}

// BenchmarkMeshProbability validates the §2.2/§5.2 closed forms by Monte
// Carlo. Metric: worst absolute theory-vs-empirical gap across occupancies.
func BenchmarkMeshProbability(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := experiments.Prob(4000)
		worst = 0
		for _, r := range res.Rows {
			gap := r.TheoryQ - r.EmpiricalQ
			if gap < 0 {
				gap = -gap
			}
			if gap > worst {
				worst = gap
			}
		}
	}
	b.ReportMetric(worst, "max-q-gap")
}

// BenchmarkLemma53 validates the SplitMesher guarantee sweep. Metric:
// minimum found/bound ratio across the sweep (must stay ≥ 1 w.h.p.).
func BenchmarkLemma53(b *testing.B) {
	var minRatio float64
	for i := 0; i < b.N; i++ {
		res := experiments.Lemma53(200)
		minRatio = 1e9
		for _, r := range res.Rows {
			// Lemma 5.3 applies for t = k/q with k > 1 and n ≥ 2k/q = 2t;
			// rows outside its precondition carry no information.
			if r.Bound < 1 || float64(r.T)*r.Q <= 1 || r.Spans < 2*r.T {
				continue
			}
			ratio := float64(r.Found) / r.Bound
			if ratio < minRatio {
				minRatio = ratio
			}
		}
	}
	b.ReportMetric(minRatio, "min-found/bound")
}

// BenchmarkTriangle reproduces the §5.2 triangle-scarcity computation.
// Metric: empirical triangle count on the sampled graph (paper expects <2
// in expectation under the true model vs ≈167 under independence).
func BenchmarkTriangle(b *testing.B) {
	var tri int
	for i := 0; i < b.N; i++ {
		tri = experiments.Triangle().EmpiricalTriangles
	}
	b.ReportMetric(float64(tri), "triangles")
}

// BenchmarkAblation regenerates the §6.3 meshing×randomization table.
// Metric: mean RSS of full Mesh relative to Mesh-no-meshing (lower is
// better compaction).
func BenchmarkAblation(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(64)
		if err != nil {
			b.Fatal(err)
		}
		var full, noMesh float64
		for _, r := range res.Rows {
			switch r.Allocator {
			case "mesh":
				full = r.MeanRSS
			case "mesh (no meshing)":
				noMesh = r.MeanRSS
			}
		}
		rel = full / noMesh
	}
	b.ReportMetric(rel, "mesh/no-mesh-rss")
}

// BenchmarkRobson regenerates the §1 motivation experiment: OOM survival
// under a physical memory budget. Metric: rounds completed by Mesh divided
// by rounds completed by the non-compacting baseline before it OOMs.
func BenchmarkRobson(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Robson(1024, 24, []string{"mesh", "jemalloc"})
		if err != nil {
			b.Fatal(err)
		}
		baseRounds := res.Rows[1].RoundsCompleted
		if baseRounds == 0 {
			baseRounds = 1
		}
		advantage = float64(res.Rows[0].RoundsCompleted) / float64(baseRounds)
	}
	b.ReportMetric(advantage, "survival-x")
}

// --- Public-API hot-path benchmarks: scalar vs batch, pooled vs thread ---
//
// Each iteration allocates and frees batchLen 64-byte objects, so ns/op is
// directly comparable across the scalar and batch variants: the batch ones
// amortize the pooled-heap hand-off, the accounting atomics, and (for
// non-local frees) the global lock over the whole batch.

const batchLen = 64

var benchSizes = func() []int {
	s := make([]int, batchLen)
	for i := range s {
		s[i] = 64
	}
	return s
}()

// BenchmarkScalarMallocFree drives the goroutine-safe pooled API one
// object at a time — the front-end stripe path: a stripe swap plus a
// magazine pop or push.
func BenchmarkScalarMallocFree(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	ptrs := make([]mesh.Ptr, batchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ptrs {
			p, err := a.Malloc(64)
			if err != nil {
				b.Fatal(err)
			}
			ptrs[j] = p
		}
		for _, p := range ptrs {
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchMallocFree drives the same traffic through MallocBatch /
// FreeBatch. The acceptance bar: at or below the scalar ns/op.
func BenchmarkBatchMallocFree(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptrs, err := a.MallocBatch(benchSizes)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.FreeBatch(ptrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThreadScalarMallocFree is the explicit-Thread fast path, one
// object at a time — the pre-redesign programming model.
func BenchmarkThreadScalarMallocFree(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	th := a.NewThread()
	defer th.Close()
	ptrs := make([]mesh.Ptr, batchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ptrs {
			p, err := th.Malloc(64)
			if err != nil {
				b.Fatal(err)
			}
			ptrs[j] = p
		}
		for _, p := range ptrs {
			if err := th.Free(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkThreadBatchMallocFree batches on an explicit Thread.
func BenchmarkThreadBatchMallocFree(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	th := a.NewThread()
	defer th.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptrs, err := th.MallocBatch(benchSizes)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.FreeBatch(ptrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentPooledScalar hammers one shared Allocator from
// GOMAXPROCS goroutines through the pooled scalar API.
func BenchmarkConcurrentPooledScalar(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// b.Fatal must not be called off the benchmark goroutine; report
		// with b.Error and bail out of this worker instead.
		ptrs := make([]mesh.Ptr, batchLen)
		for pb.Next() {
			for j := range ptrs {
				p, err := a.Malloc(64)
				if err != nil {
					b.Error(err)
					return
				}
				ptrs[j] = p
			}
			for _, p := range ptrs {
				if err := a.Free(p); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkConcurrentPooledBatch is the same traffic batched.
func BenchmarkConcurrentPooledBatch(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ptrs, err := a.MallocBatch(benchSizes)
			if err != nil {
				b.Error(err)
				return
			}
			if err := a.FreeBatch(ptrs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkConcurrentThreads gives each goroutine its own explicit Thread
// — the ceiling the pooled API is measured against.
func BenchmarkConcurrentThreads(b *testing.B) {
	a := mesh.New(mesh.WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th := a.NewThread()
		defer th.Close()
		ptrs := make([]mesh.Ptr, batchLen)
		for pb.Next() {
			for j := range ptrs {
				p, err := th.Malloc(64)
				if err != nil {
					b.Error(err)
					return
				}
				ptrs[j] = p
			}
			for _, p := range ptrs {
				if err := th.Free(p); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// Data-path access kernel geometry: each worker owns dataPathObjs objects
// of dataPathObjSize bytes and touches dataPathAccessLen bytes per access.
const (
	dataPathObjSize   = 8192
	dataPathAccessLen = 64
	dataPathObjs      = 8
)

// dataPathObjects allocates dataPathObjs objects for each of workers
// goroutines, so no two workers share an object.
func dataPathObjects(a *mesh.Allocator, workers int) ([][]mesh.Ptr, error) {
	ptrs := make([][]mesh.Ptr, workers)
	for w := range ptrs {
		ptrs[w] = make([]mesh.Ptr, dataPathObjs)
		for j := range ptrs[w] {
			p, err := a.Malloc(dataPathObjSize)
			if err != nil {
				return nil, err
			}
			ptrs[w][j] = p
		}
	}
	return ptrs, nil
}

// dataPathWorker is the access kernel: ops accesses of the given mode
// ("read", "write", or "memset") over one worker's objects, at rotating
// offsets so accesses periodically cross the objects' interior page
// boundaries. No allocator traffic happens here — the loop isolates
// pointer translation.
func dataPathWorker(a *mesh.Allocator, ptrs []mesh.Ptr, mode string, ops int) error {
	buf := make([]byte, dataPathAccessLen)
	for i := 0; i < ops; i++ {
		off := uint64(i*511) % (dataPathObjSize - dataPathAccessLen)
		p := ptrs[i%len(ptrs)] + off
		var err error
		switch mode {
		case "read":
			err = a.Read(p, buf)
		case "write":
			err = a.Write(p, buf)
		case "memset":
			err = a.Memset(p, byte(i), dataPathAccessLen)
		default:
			err = fmt.Errorf("datapath: unknown access mode %q", mode)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runDataPath runs dataPathWorker on every worker's objects at once, one
// goroutine per worker, and returns the first error.
func runDataPath(a *mesh.Allocator, ptrs [][]mesh.Ptr, mode string, ops int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ptrs))
	for w := range ptrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = dataPathWorker(a, ptrs[w], mode, ops)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestDataPathDisjointNoRetries pins the data path's counters under
// concurrent access: with 8 and 16 goroutines on disjoint objects and no
// meshing, every access translates at least once (a page-crossing access
// more), and with no page-table churn the seqlock never retries.
func TestDataPathDisjointNoRetries(t *testing.T) {
	readU64 := func(t *testing.T, a *mesh.Allocator, key string) uint64 {
		t.Helper()
		v, err := a.ReadControl(key)
		if err != nil {
			t.Fatal(err)
		}
		return v.(uint64)
	}
	const totalOps = 64_000
	for _, workers := range []int{8, 16} {
		for _, mode := range []string{"read", "write", "memset"} {
			t.Run(fmt.Sprintf("%s/goroutines=%d", mode, workers), func(t *testing.T) {
				a := mesh.New(mesh.WithSeed(1), mesh.WithMeshing(false))
				defer a.Close()
				ptrs, err := dataPathObjects(a, workers)
				if err != nil {
					t.Fatal(err)
				}
				tr0 := readU64(t, a, "stats.vm.translations")
				re0 := readU64(t, a, "stats.vm.retries")
				perWorker := totalOps / workers
				if err := runDataPath(a, ptrs, mode, perWorker); err != nil {
					t.Fatal(err)
				}
				ops := uint64(perWorker * workers)
				if tr := readU64(t, a, "stats.vm.translations") - tr0; tr < ops {
					t.Errorf("%d translations for %d accesses", tr, ops)
				}
				if re := readU64(t, a, "stats.vm.retries") - re0; re != 0 {
					t.Errorf("%d seqlock retries without page-table churn", re)
				}
			})
		}
	}
}

// BenchmarkDataPathContention measures the cost of the simulated kernel's
// translation path under concurrent data traffic — the path every object
// read, write, and memset in every workload traverses. Each worker owns
// disjoint 8 KiB objects on a shared allocator and performs 64-byte
// accesses at rotating offsets (some page-crossing); no allocator traffic
// happens inside the timed region, so the benchmark isolates pointer
// translation (§4.5.1: data-path accesses must never synchronize with the
// allocator). One benchmark op is one 64-byte access, through the same
// kernel (dataPathWorker) whose counters TestDataPathDisjointNoRetries
// pins. Before the radix/seqlock rewrite every op took the VM's RWMutex at
// least once; after it, translation is two atomic loads.
func BenchmarkDataPathContention(b *testing.B) {
	for _, mode := range []string{"read", "write", "memset"} {
		for _, gs := range []int{1, 8, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, gs), func(b *testing.B) {
				a := mesh.New(mesh.WithSeed(1))
				ptrs, err := dataPathObjects(a, gs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				if err := runDataPath(a, ptrs, mode, b.N/gs+1); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			})
		}
	}
}

// BenchmarkScaleContention measures multi-goroutine free/refill throughput
// on one shared allocator as goroutine count grows. Workers form a ring:
// each allocates batches of objects in its own size class from a pinned
// Thread and frees batches produced by its neighbour, so every free is
// remote and takes the global-heap path — in a different size class per
// worker. This is the workload the per-class shard locks exist for; before
// sharding, every one of these frees serialized on a single global mutex.
// One benchmark op is one 64-object batch: alloc + hand-off + remote free.
func BenchmarkScaleContention(b *testing.B) {
	classSizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	for _, mode := range []string{"scalar", "batch"} {
		for _, gs := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, gs), func(b *testing.B) {
				a := mesh.New(mesh.WithSeed(1))
				const objs = 64
				iters := b.N/gs + 1
				rings := make([]chan []mesh.Ptr, gs)
				for i := range rings {
					rings[i] = make(chan []mesh.Ptr, 2)
				}
				// An erroring worker closes done so its ring neighbours
				// unblock and the benchmark fails instead of deadlocking
				// in wg.Wait.
				done := make(chan struct{})
				var failed atomic.Bool
				fail := func(err error) {
					if failed.CompareAndSwap(false, true) {
						b.Error(err)
						close(done)
					}
				}
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < gs; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						th := a.NewThread()
						defer th.Close()
						size := classSizes[w%len(classSizes)]
						for i := 0; i < iters; i++ {
							buf := make([]mesh.Ptr, objs)
							for j := range buf {
								p, err := th.Malloc(size)
								if err != nil {
									fail(err)
									return
								}
								buf[j] = p
							}
							select {
							case rings[(w+1)%gs] <- buf:
							case <-done:
								return
							}
							var batch []mesh.Ptr
							select {
							case batch = <-rings[w]:
							case <-done:
								return
							}
							if mode == "batch" {
								if err := th.FreeBatch(batch); err != nil {
									fail(err)
									return
								}
							} else {
								for _, p := range batch {
									if err := th.Free(p); err != nil {
										fail(err)
										return
									}
								}
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
			})
		}
	}
}

// BenchmarkRemoteFree measures the producer–consumer hand-off — the shape
// the message-passing remote-free queues exist for: the goroutines pair
// up into pipelines where one side allocates from a pinned Thread and the
// other side frees those objects, so every free is a cross-thread free of
// a span attached to a live heap. The free is a CAS onto the owner's
// queue, drained back into the owner's shuffle vector at its malloc slow
// path, so each pipeline recycles a fixed span set. Each pair hands off
// through a one-slot ring, keeping the in-flight window inside one span:
// a deep backlog would degenerate to detached-span frees. One benchmark
// op is one object (alloc + hand-off + remote free); "shardlocks/op"
// reports amortized shard-lock acquisitions per operation, which the
// queued path must hold ≪ 1.
func BenchmarkRemoteFree(b *testing.B) {
	// Classes with roomy spans (256/128/64 objects per page): the hand-off
	// quantum below must stay well inside one span or the shape degrades
	// to detached-span frees.
	classSizes := []int{16, 32, 64}
	for _, gs := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gs), func(b *testing.B) {
			a := mesh.New(mesh.WithSeed(1))
			pairs := gs / 2
			const objs = 16
			iters := b.N/(pairs*objs) + 1
			rings := make([]chan []mesh.Ptr, pairs)
			for i := range rings {
				rings[i] = make(chan []mesh.Ptr, 1)
			}
			done := make(chan struct{})
			var failed atomic.Bool
			fail := func(err error) {
				if failed.CompareAndSwap(false, true) {
					b.Error(err)
					close(done)
				}
			}
			var wg, consWG sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < pairs; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := a.NewThread()
					defer th.Close()
					size := classSizes[w%len(classSizes)]
					for i := 0; i < iters; i++ {
						buf := make([]mesh.Ptr, objs)
						for j := range buf {
							p, err := th.Malloc(size)
							if err != nil {
								fail(err)
								return
							}
							buf[j] = p
						}
						select {
						case rings[w] <- buf:
						case <-done:
							return
						}
					}
					close(rings[w])
				}(w)
			}
			for w := 0; w < gs-pairs; w++ {
				consWG.Add(1)
				go func(w int) {
					defer consWG.Done()
					th := a.NewThread()
					defer th.Close()
					for {
						var batch []mesh.Ptr
						select {
						case batch = <-rings[w]:
							if batch == nil {
								return
							}
						case <-done:
							return
						}
						for _, p := range batch {
							if err := th.Free(p); err != nil {
								fail(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			consWG.Wait()
			b.StopTimer()
			ops := float64(pairs * iters * objs)
			shards, err := a.ReadControl("stats.global.shard_acquires")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(shards.(uint64))/ops, "shardlocks/op")
			queued, err := a.ReadControl("stats.remote.queued")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(queued.(uint64))/ops, "queued/op")
		})
	}
}
