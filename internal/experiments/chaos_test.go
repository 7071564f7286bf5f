package experiments

import "testing"

// TestChaosHardenedRuns pins the containment acceptance bar at experiment
// scale: every armed corruption injection is caught (violations ==
// injections, enforced inside ChaosHardened along with the rest of the
// counter algebra), zero crashes, and the allocator keeps serving after
// span retirement.
func TestChaosHardenedRuns(t *testing.T) {
	res, err := ChaosHardened(40) // 1000 ops/worker: the smallest configured run
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("got %d seed rows, want 4", len(res.Seeds))
	}
	for _, row := range res.Seeds {
		if !row.InvariantsOK {
			t.Errorf("seed %d: invariant check failed", row.Seed)
		}
		if row.FaultsInjected != row.Violations {
			t.Errorf("seed %d: %d injections, %d violations", row.Seed, row.FaultsInjected, row.Violations)
		}
		if row.RetiredSpans == 0 {
			t.Errorf("seed %d: no spans retired despite %d violations", row.Seed, row.Violations)
		}
		if !row.ServedAfter {
			t.Errorf("seed %d: allocator stopped serving after containment", row.Seed)
		}
		if row.Ops == 0 {
			t.Errorf("seed %d: no operations completed", row.Seed)
		}
	}
}

func TestChaosRuns(t *testing.T) {
	res, err := Chaos(40) // 1000 ops/worker: the smallest configured run
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("got %d seed rows, want 4", len(res.Seeds))
	}
	for _, row := range res.Seeds {
		if !row.InvariantsOK {
			t.Errorf("seed %d: invariant check failed", row.Seed)
		}
		if row.FaultsInjected == 0 {
			t.Errorf("seed %d: plan never fired", row.Seed)
		}
		if row.Ops == 0 {
			t.Errorf("seed %d: no operations completed", row.Seed)
		}
		if row.SkippedOps == 0 {
			t.Errorf("seed %d: no typed fault reached the workload", row.Seed)
		}
	}
}
