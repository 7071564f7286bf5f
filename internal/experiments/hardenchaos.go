package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/mesh"
)

// HardenChaosPlan arms only the corruption-injection sites: flipped canary
// bytes at free/audit/mesh-copy checks and flipped poison bytes at
// allocation checks. The counts are exact budgets, so a run's verdict is
// arithmetic, not statistical: violations must equal injections.
const HardenChaosPlan = "harden.canary:count=3,harden.poison:count=2"

// hardenChaosInjections is the total budget HardenChaosPlan arms.
const hardenChaosInjections = 5

// HardenChaosRow is one seed's hardened chaos run.
type HardenChaosRow struct {
	Seed           uint64
	Ops            int
	Wall           time.Duration
	OpsPerSec      float64
	FaultsInjected uint64
	Checks         uint64
	Violations     uint64
	Passes         uint64
	Quarantined    uint64
	Settled        uint64
	RetiredSpans   uint64
	LostObjects    uint64
	Audited        uint64
	ServedAfter    bool // clean malloc/free round after all retirements
	InvariantsOK   bool
}

// HardenChaosResult reports the corruption-containment stress runs: the
// hardening summary artifact of the CI chaos job.
type HardenChaosResult struct {
	Plan  string
	Seeds []HardenChaosRow
}

// ChaosHardened runs the corruption-injection stress workload across
// deterministic seeds: concurrent churn on explicit Threads with hardening
// and quarantine on, background meshing live, and HardenChaosPlan flipping
// real heap bytes inside the canary and poison checkers. Containment, not
// survival, is the bar — every injection must be caught (violations ==
// injections), every caught corruption must retire its span and surface
// mesh.ErrHeapCorruption (never a crash), and the allocator must keep
// serving clean allocations afterwards. At quiescence the counter algebra
// must be exact: checks == violations + passes, quarantined == settled,
// allocs == frees + lost objects, and the integrity check must pass.
func ChaosHardened(scale int) (*HardenChaosResult, error) {
	if scale < 1 {
		scale = 1
	}
	opsPerWorker := 40_000 / scale
	if opsPerWorker < 1_000 {
		opsPerWorker = 1_000
	}
	res := &HardenChaosResult{Plan: HardenChaosPlan}
	for _, seed := range []uint64{1, 2, 3, 4} {
		row, err := hardenChaosRun(seed, opsPerWorker)
		if err != nil {
			return nil, fmt.Errorf("hardened chaos seed %d: %w", seed, err)
		}
		res.Seeds = append(res.Seeds, *row)
	}
	return res, nil
}

func hardenChaosRun(seed uint64, opsPerWorker int) (*HardenChaosRow, error) {
	a := mesh.New(mesh.WithSeed(seed),
		mesh.WithHardening(true), mesh.WithQuarantine(true),
		mesh.WithMeshPeriod(time.Millisecond),
		mesh.WithBackgroundMeshing(true),
		mesh.WithFaultPlan(HardenChaosPlan))
	defer a.Close()

	sizes := []int{16, 48, 64, 256, 1024}
	// A typed containment error is the designed outcome of an injection;
	// a malloc may also run out of memory; anything else (including a
	// crash-turned-error) is fatal.
	corrupt := func(err error) bool { return errors.Is(err, mesh.ErrHeapCorruption) }
	mallocOK := func(err error) bool { return corrupt(err) || errors.Is(err, mesh.ErrOutOfMemory) }
	ops, wall, err := relayChurn(a, seed, opsPerWorker, sizes, mallocOK, corrupt, true)
	if err != nil {
		return nil, err
	}

	// Drive any unexhausted injection budget: every hardened free runs a
	// canary check and every hardened alloc a poison check, so clean churn
	// pulls the counters to their armed totals deterministically.
	for i := 0; i < 50_000; i++ {
		if i%64 == 0 {
			if inj, err := readU64(a, "stats.fault.injected"); err != nil {
				return nil, err
			} else if inj >= hardenChaosInjections {
				break
			}
		}
		if p, err := a.Malloc(64); err == nil {
			_ = a.Free(p)
		}
	}

	// Containment, not crash: with every armed injection spent and its span
	// retired, a clean malloc/write/free round must succeed end to end.
	served := true
	for i := 0; i < 200; i++ {
		p, err := a.Malloc(sizes[i%len(sizes)])
		if err != nil {
			served = false
			break
		}
		if err := a.Write(p, []byte{0x5a}); err != nil {
			served = false
			break
		}
		if err := a.Free(p); err != nil {
			served = false
			break
		}
	}

	// Quiesce: stop the daemon, disarm the plane, settle the pooled heaps
	// (draining quarantine), run one clean pass — then demand exactness.
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
	h := st.Harden
	row := &HardenChaosRow{Seed: seed, Ops: ops, Wall: wall, ServedAfter: served, Checks: h.Checks,
		Violations: h.Violations, Passes: h.Passes, Quarantined: h.Quarantined,
		Settled: h.Settled, RetiredSpans: h.Retired, LostObjects: h.LostObjects,
		Audited: h.Audited}
	if wall > 0 {
		row.OpsPerSec = float64(ops) / wall.Seconds()
	}
	if row.FaultsInjected, err = readU64(a, "stats.fault.injected"); err != nil {
		return nil, err
	}
	if row.FaultsInjected != hardenChaosInjections {
		return nil, fmt.Errorf("injection budget not spent: %d of %d fired",
			row.FaultsInjected, hardenChaosInjections)
	}
	if row.Violations != row.FaultsInjected {
		return nil, fmt.Errorf("detection not exact: %d injections, %d violations",
			row.FaultsInjected, row.Violations)
	}
	if row.Checks != row.Violations+row.Passes {
		return nil, fmt.Errorf("check algebra broken: %d checks != %d violations + %d passes",
			row.Checks, row.Violations, row.Passes)
	}
	if row.Quarantined != row.Settled {
		return nil, fmt.Errorf("quarantine leaked: %d parked, %d settled",
			row.Quarantined, row.Settled)
	}
	if !row.ServedAfter {
		return nil, errors.New("allocator stopped serving after containment")
	}
	if st.Allocs != st.Frees+row.LostObjects {
		return nil, fmt.Errorf("accounting broken: %d allocs, %d frees, %d lost",
			st.Allocs, st.Frees, row.LostObjects)
	}
	row.InvariantsOK = a.CheckIntegrity() == nil
	return row, nil
}
