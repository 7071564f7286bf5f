package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/mesh"
)

// ChaosPlan is the experiment's fault schedule: every injection site armed
// at once — a burst of six permanent commit failures, which outlasts the
// out-of-memory ladder's single retry so some mallocs surface typed
// errors, transient map and protect failures for the retry loop, aborts
// in all three mesh phases, remote-free segment failures forcing the
// locked fallback, daemon stalls, and a pair of daemon panics for the
// supervisor.
const ChaosPlan = "vm.commit:after=64:count=6," +
	"vm.map:rate=31:mode=transient," +
	"vm.protect:rate=11:mode=transient," +
	"mesh.protect:rate=7," +
	"mesh.copy:rate=5," +
	"mesh.remap:rate=5," +
	"remote.segment:rate=3," +
	"meshd.stall:rate=2," +
	"meshd.panic:count=2"

// ChaosRow is one seed's chaos run.
type ChaosRow struct {
	Seed           uint64
	Ops            int
	SkippedOps     int // typed faults surfaced to the workload
	Wall           time.Duration
	OpsPerSec      float64
	FaultsInjected uint64
	MeshPasses     uint64
	MeshdRestarts  uint64
	RemoteQueued   uint64
	RemoteDrained  uint64
	Allocs         uint64
	Frees          uint64
	InvariantsOK   bool
}

// ChaosResult reports the randomized fault-schedule stress runs: the
// fault/trace summary artifact of the CI chaos job.
type ChaosResult struct {
	Plan  string
	Seeds []ChaosRow
}

// Chaos runs the fault-injection stress workload across deterministic
// seeds: concurrent mixed-size churn with cross-thread frees on explicit
// Threads, background meshing, and ChaosPlan live the whole time. Grace,
// not survival, is the bar — a surfaced error must be typed (injected or
// ErrOutOfMemory), and after quiescence each run must show exact
// accounting: allocs == frees, every queued remote free drained, zero
// live bytes, and a clean invariant check (InvariantsOK; the caller
// decides whether a violation is fatal).
func Chaos(scale int) (*ChaosResult, error) {
	if scale < 1 {
		scale = 1
	}
	opsPerWorker := 40_000 / scale
	if opsPerWorker < 1_000 {
		opsPerWorker = 1_000
	}
	res := &ChaosResult{Plan: ChaosPlan}
	for _, seed := range []uint64{1, 2, 3, 4} {
		row, err := chaosRun(seed, opsPerWorker)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d: %w", seed, err)
		}
		res.Seeds = append(res.Seeds, *row)
	}
	return res, nil
}

func chaosRun(seed uint64, opsPerWorker int) (*ChaosRow, error) {
	a := mesh.New(mesh.WithSeed(seed),
		mesh.WithMeshPeriod(time.Millisecond),
		mesh.WithBackgroundMeshing(true),
		mesh.WithFaultPlan(ChaosPlan))
	defer a.Close()

	sizes := []int{16, 16, 48, 256, 1024, mesh.MaxSmallSize, mesh.MaxSmallSize * 2}
	var skipped atomic.Int64
	typed := func(err error) bool {
		if errors.Is(err, faultinject.ErrInjected) || errors.Is(err, mesh.ErrOutOfMemory) {
			skipped.Add(1)
			return true
		}
		return false
	}
	none := func(error) bool { return false }
	ops, wall, err := relayChurn(a, seed, opsPerWorker, sizes, typed, none, false)
	if err != nil {
		return nil, err
	}

	// Quiesce: stop the daemon, disarm the plane, settle the pooled heaps,
	// run one clean pass — then demand exactness.
	if err := a.Close(); err != nil {
		return nil, err
	}
	if err := a.Control("fault.plan", ""); err != nil {
		return nil, err
	}
	if err := a.Flush(); err != nil {
		return nil, err
	}
	a.Mesh()

	st := a.Stats()
	row := &ChaosRow{Seed: seed, Ops: ops, SkippedOps: int(skipped.Load()), Wall: wall,
		MeshPasses: st.Mesh.Passes, RemoteQueued: st.Remote.Queued,
		RemoteDrained: st.Remote.Drained, Allocs: st.Allocs, Frees: st.Frees}
	if wall > 0 {
		row.OpsPerSec = float64(ops) / wall.Seconds()
	}
	if row.FaultsInjected, err = readU64(a, "stats.fault.injected"); err != nil {
		return nil, err
	}
	if row.MeshdRestarts, err = readU64(a, "stats.meshd.restarts"); err != nil {
		return nil, err
	}
	if row.Allocs != row.Frees {
		return nil, fmt.Errorf("accounting broken: %d allocs, %d frees", row.Allocs, row.Frees)
	}
	if row.RemoteQueued != row.RemoteDrained {
		return nil, fmt.Errorf("remote frees lost: queued %d, drained %d",
			row.RemoteQueued, row.RemoteDrained)
	}
	if st.Live != 0 {
		return nil, fmt.Errorf("%d live bytes after freeing everything", st.Live)
	}
	row.InvariantsOK = a.CheckIntegrity() == nil
	return row, nil
}

// relayChurn is the workload both chaos suites run: four workers on
// explicit Threads each make opsPerWorker mallocs of sizes drawn from
// sizes, and free every object at once, through the next worker's relay
// channel (a cross-thread free), or at the end of the run. A malloc error
// mallocOK accepts skips that op and a free error freeOK accepts is
// dropped; any other error ends the run and is returned. With write set,
// one object in four gets an in-bounds write before its free. It returns
// the mallocs that succeeded and the workers' wall time.
func relayChurn(a *mesh.Allocator, seed uint64, opsPerWorker int, sizes []int,
	mallocOK, freeOK func(error) bool, write bool) (ops int, wall time.Duration, err error) {
	const workers = 4
	relay := make([]chan mesh.Ptr, workers)
	for i := range relay {
		relay[i] = make(chan mesh.Ptr, opsPerWorker)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer close(relay[(w+1)%workers])
			rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(w)))
			th := a.NewThread()
			defer th.Close()
			var local []mesh.Ptr
			myOps := 0
			for i := 0; i < opsPerWorker; i++ {
				p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
				if err != nil {
					if !mallocOK(err) {
						fail(fmt.Errorf("worker %d: untyped malloc failure: %w", w, err))
						return
					}
					continue
				}
				myOps++
				// In-bounds writes exercise the poison/canary protocol
				// legitimately: they must never trip a check.
				if write && rng.Intn(4) == 0 {
					if err := a.Write(p, []byte{byte(i), byte(i >> 8)}); err != nil {
						fail(fmt.Errorf("worker %d: write: %w", w, err))
						return
					}
				}
				switch rng.Intn(3) {
				case 0:
					if err := th.Free(p); err != nil && !freeOK(err) {
						fail(fmt.Errorf("worker %d: free: %w", w, err))
						return
					}
				case 1:
					relay[(w+1)%workers] <- p
				default:
					local = append(local, p)
				}
				if i%8 == 0 {
					for drained := false; !drained; {
						select {
						case q, ok := <-relay[w]:
							if !ok {
								drained = true
							} else if err := th.Free(q); err != nil && !freeOK(err) {
								fail(fmt.Errorf("worker %d: remote free: %w", w, err))
								return
							}
						default:
							drained = true
						}
					}
				}
			}
			for _, p := range local {
				if err := th.Free(p); err != nil && !freeOK(err) {
					fail(fmt.Errorf("worker %d: drain free: %w", w, err))
					return
				}
			}
			mu.Lock()
			ops += myOps
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for _, ch := range relay {
		for p := range ch {
			if err := a.Free(p); err != nil && !freeOK(err) {
				fail(fmt.Errorf("relay drain free: %w", err))
			}
		}
	}
	return ops, time.Since(start), firstErr
}

// readU64 reads a uint64-valued control key.
func readU64(a *mesh.Allocator, key string) (uint64, error) {
	v, err := a.ReadControl(key)
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}
