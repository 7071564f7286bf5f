package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/rng"
)

// This file drives one allocator from many goroutines at once — the traffic
// shape of a server handling concurrent requests, which the deterministic
// figure experiments (single goroutine, logical clock) deliberately avoid.
// It measures wall-clock throughput and latency, so results are
// machine-dependent.

// ConcurrentConfig parameterizes a concurrent stress run.
type ConcurrentConfig struct {
	Workers int      // concurrent goroutines
	Ops     int      // minimum malloc/free operations per worker
	MaxLive int      // per-worker live-object cap before it frees half
	Sizes   SizeDist // allocation size distribution
	Seed    uint64   // base RNG seed; worker w uses Seed+w
}

// ConcurrentResult reports one concurrent run.
type ConcurrentResult struct {
	Ops       int // malloc and free calls executed across workers
	Wall      time.Duration
	OpsPerSec float64
	// MaxStall is the longest single Malloc or Free call observed across
	// all workers: the tail stall the background-meshing experiment
	// compares.
	MaxStall time.Duration
}

// RunConcurrent drives cfg.Workers goroutines of scalar malloc/free traffic
// against heap, which every worker shares and so must be goroutine-safe.
// Each worker allocates until it holds cfg.MaxLive objects, then frees the
// older half, until it has made cfg.Ops calls; every object is freed
// before RunConcurrent returns. Every call is wall-timed for MaxStall, so
// the timer is part of the reported throughput.
func RunConcurrent(heap alloc.Heap, cfg ConcurrentConfig) (ConcurrentResult, error) {
	if cfg.Workers <= 0 || cfg.Ops <= 0 || cfg.MaxLive <= 0 {
		return ConcurrentResult{}, fmt.Errorf("workload: bad concurrent config %+v", cfg)
	}
	var wg sync.WaitGroup
	var totalOps, maxStall atomic.Int64
	errc := make(chan error, cfg.Workers)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rng.New(cfg.Seed + uint64(w))
			live := make([]uint64, 0, cfg.MaxLive)
			ops, stall := 0, time.Duration(0)
			defer func() {
				totalOps.Add(int64(ops))
				for cur := maxStall.Load(); int64(stall) > cur; cur = maxStall.Load() {
					if maxStall.CompareAndSwap(cur, int64(stall)) {
						break
					}
				}
			}()
			freeAll := func(addrs []uint64) error {
				for _, addr := range addrs {
					t0 := time.Now()
					err := heap.Free(addr)
					stall = max(stall, time.Since(t0))
					if err != nil {
						return err
					}
					ops++
				}
				return nil
			}
			for ops < cfg.Ops {
				size := cfg.Sizes.Sample(rnd)
				t0 := time.Now()
				addr, err := heap.Malloc(size)
				stall = max(stall, time.Since(t0))
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				ops++
				live = append(live, addr)
				if len(live) >= cfg.MaxLive {
					// Free the older half; servers churn oldest state first.
					n := len(live) / 2
					if err := freeAll(live[:n]); err != nil {
						errc <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					live = append(live[:0], live[n:]...)
				}
			}
			if err := freeAll(live); err != nil {
				errc <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return ConcurrentResult{}, err
	}
	wall := time.Since(start)
	total := int(totalOps.Load())
	return ConcurrentResult{
		Ops:       total,
		Wall:      wall,
		OpsPerSec: float64(total) / wall.Seconds(),
		MaxStall:  time.Duration(maxStall.Load()),
	}, nil
}
