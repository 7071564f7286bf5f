package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/mesh"
)

// ChaosPlan is the experiment's fault schedule: every injection site armed
// at once — transient VM failures for the retry loop, aborts in all three
// mesh phases, remote-free segment failures forcing the locked fallback,
// daemon stalls, and a pair of daemon panics for the supervisor.
const ChaosPlan = "vm.commit:rate=37:mode=transient," +
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

	const workers = 4
	sizes := []int{16, 16, 48, 256, 1024, mesh.MaxSmallSize, mesh.MaxSmallSize * 2}

	relay := make([]chan mesh.Ptr, workers)
	for i := range relay {
		relay[i] = make(chan mesh.Ptr, opsPerWorker)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		skipped  int
		ops      int
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
			myOps, mySkipped := 0, 0
			for i := 0; i < opsPerWorker; i++ {
				p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
				if err != nil {
					if errors.Is(err, faultinject.ErrInjected) || errors.Is(err, mesh.ErrOutOfMemory) {
						mySkipped++
						continue
					}
					fail(fmt.Errorf("worker %d: untyped malloc failure: %w", w, err))
					return
				}
				myOps++
				switch rng.Intn(3) {
				case 0:
					if err := th.Free(p); err != nil {
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
							} else if err := th.Free(q); err != nil {
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
				if err := th.Free(p); err != nil {
					fail(fmt.Errorf("worker %d: drain free: %w", w, err))
					return
				}
			}
			mu.Lock()
			ops += myOps
			skipped += mySkipped
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for _, ch := range relay {
		for p := range ch {
			if err := a.Free(p); err != nil {
				fail(fmt.Errorf("relay drain free: %w", err))
			}
		}
	}
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	// Quiesce: stop the daemon, disarm the plane, settle the pooled heaps,
	// run one clean pass — then demand exactness.
	if err := a.Close(); err != nil {
		return nil, err
	}
	if err := a.Control("fault.enabled", false); err != nil {
		return nil, err
	}
	if err := a.Flush(); err != nil {
		return nil, err
	}
	a.Mesh()

	st := a.Stats()
	row := &ChaosRow{Seed: seed, Ops: ops, SkippedOps: skipped, Wall: wall,
		MeshPasses: st.Mesh.Passes, RemoteQueued: st.Remote.Queued,
		RemoteDrained: st.Remote.Drained, Allocs: st.Allocs, Frees: st.Frees}
	if wall > 0 {
		row.OpsPerSec = float64(ops) / wall.Seconds()
	}
	var err error
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

// readU64 reads a uint64-valued control key.
func readU64(a *mesh.Allocator, key string) (uint64, error) {
	v, err := a.ReadControl(key)
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}
