package main

import (
	"math"
	"sync"
	"time"
)

// The machine the benchmark was calibrated on is shared, and its speed
// drifts by 10-30% over seconds to minutes, most in memory-bound code
// (README.md, Speed adjustment). Every repeat therefore times a fixed
// probe, which never calls the allocator, right before and right after its
// timed phase, and scales its times by probeNominalMs over the probe's
// time: a gated time reads what it would have on the machine at its
// nominal speed, and a change to the allocator cannot move the probe.

// probeNominalMs is the probe's median on the calibration machine. It only
// sets the scale of the adjusted times; comparisons need the same value on
// both sides, not this one.
const probeNominalMs = 80

// probeWords sizes each goroutine's probe buffer: 32 MiB, well beyond the
// L2 caches, so the memory loop is paced by the shared cache and memory
// the allocator's spans also live in.
const probeWords = 4 << 20

var (
	probeOnce sync.Once
	probeBufs [][]uint64
)

// probe runs the probe on n goroutines, one per client, and returns its
// time in milliseconds: the geometric mean of an arithmetic loop and a
// loop of random read-modify-writes, since the workloads' slowdowns track
// both. Like the workloads, it runs 1/scale of its full size, and reports
// the time scaled back up to the full size. Its loops allocate nothing, so
// a collection can only run beside them if one was already under way when
// the probe started.
func probe(n, scale int) float64 {
	probeOnce.Do(func() {
		for range 2 {
			b := make([]uint64, probeWords)
			for i := range b {
				b[i] = uint64(i)
			}
			probeBufs = append(probeBufs, b)
		}
	})
	arith := onEach(n, func(g int) uint64 {
		x := uint64(g + 1)
		for range 60_000_000 / scale {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 17
		}
		return x
	})
	memory := onEach(n, func(g int) uint64 {
		buf := probeBufs[g]
		x, s := uint64(g+1), uint64(0)
		for range 6_000_000 / scale {
			x = x*6364136223846793005 + 1442695040888963407
			k := (x >> 20) % probeWords
			s += buf[k]
			buf[k] = s
		}
		return s
	})
	return math.Sqrt(arith*memory) / 1e6 * float64(scale)
}

// adjustForSpeed scales one repeat's end-to-end times to the machine's
// nominal speed, given the probe's time next to the repeat in v.
func adjustForSpeed(v map[string]float64) {
	slow := v["probe_ms"] / probeNominalMs
	v["ops_per_s"] *= slow
	for _, name := range []string{"setup_s", "req_p50_us", "req_p99_us", "req_p999_us"} {
		if x, ok := v[name]; ok {
			v[name] = x / slow
		}
	}
}

// onEach runs f on goroutines 0..n-1 at once and returns the wall time in
// nanoseconds until all have finished.
func onEach(n int, f func(g int) uint64) float64 {
	sinks := make([]uint64, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sinks[g] = f(g)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0))
}
