package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baselineDoc = `{"total_ops": 100, "rows": [
  {"workers": 1, "batch": 1, "ops_per_sec": 1000, "shard_acquires": 50000},
  {"workers": 4, "batch": 64, "ops_per_sec": 4000, "shard_acquires": 200}
]}`

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := writeBench(t, "base.json", baselineDoc)
	fresh := writeBench(t, "fresh.json", `{"rows": [
	  {"workers": 1, "batch": 1, "ops_per_sec": 950, "shard_acquires": 52000},
	  {"workers": 4, "batch": 64, "ops_per_sec": 3900, "shard_acquires": 900}
	]}`)
	rep, err := CompareBenchFiles(base, fresh, CompareOptions{Threshold: 10, CounterThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Regressions(); n != 0 {
		t.Fatalf("want no regressions, got %d: %+v", n, rep.Deltas)
	}
	// Row 2's counters sit below the floor on both sides, so only row 1
	// compares shard_acquires; both rows compare ops_per_sec.
	if len(rep.Deltas) != 3 {
		t.Fatalf("want 3 deltas, got %+v", rep.Deltas)
	}
}

func TestCompareFlagsThroughputCollapse(t *testing.T) {
	base := writeBench(t, "base.json", baselineDoc)
	fresh := writeBench(t, "fresh.json", `{"rows": [
	  {"workers": 1, "batch": 1, "ops_per_sec": 400, "shard_acquires": 50000},
	  {"workers": 4, "batch": 64, "ops_per_sec": 4100, "shard_acquires": 100}
	]}`)
	rep, err := CompareBenchFiles(base, fresh, CompareOptions{Threshold: 20, CounterThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Regressions(); n != 1 {
		t.Fatalf("want exactly the ops_per_sec collapse flagged, got %d: %+v", n, rep.Deltas)
	}
	for _, d := range rep.Deltas {
		if d.Regress && (d.Metric != "ops_per_sec" || d.Row != "workers=1 batch=1") {
			t.Fatalf("wrong delta flagged: %+v", d)
		}
	}
}

func TestCompareFlagsLockTrafficGrowth(t *testing.T) {
	base := writeBench(t, "base.json", baselineDoc)
	// Lock traffic doubling on a hot row is the signature of a lock
	// reintroduced on a lock-free path — flagged even though throughput
	// is fine.
	fresh := writeBench(t, "fresh.json", `{"rows": [
	  {"workers": 1, "batch": 1, "ops_per_sec": 1100, "shard_acquires": 100000},
	  {"workers": 4, "batch": 64, "ops_per_sec": 4000, "shard_acquires": 200}
	]}`)
	rep, err := CompareBenchFiles(base, fresh, CompareOptions{Threshold: 20, CounterThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Regressions(); n != 1 {
		t.Fatalf("want the counter growth flagged, got %d: %+v", n, rep.Deltas)
	}
}

func TestCompareMissingRowIsRegression(t *testing.T) {
	base := writeBench(t, "base.json", baselineDoc)
	fresh := writeBench(t, "fresh.json", `{"rows": [
	  {"workers": 1, "batch": 1, "ops_per_sec": 1000, "shard_acquires": 50000}
	]}`)
	rep, err := CompareBenchFiles(base, fresh, CompareOptions{Threshold: 20, CounterThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "workers=4 batch=64" {
		t.Fatalf("missing rows: %+v", rep.Missing)
	}
	if rep.Regressions() != 1 {
		t.Fatalf("missing row must count as a regression: %+v", rep)
	}
}

func TestCompareRejectsMalformedFiles(t *testing.T) {
	base := writeBench(t, "base.json", baselineDoc)
	for _, body := range []string{"", "{}", `{"rows": []}`, "not json"} {
		bad := writeBench(t, "bad.json", body)
		if _, err := CompareBenchFiles(base, bad, CompareOptions{}); err == nil {
			t.Errorf("fresh body %q: want error", body)
		}
		if _, err := CompareBenchFiles(bad, base, CompareOptions{}); err == nil {
			t.Errorf("baseline body %q: want error", body)
		}
	}
	if _, err := CompareBenchFiles(base, filepath.Join(t.TempDir(), "absent.json"), CompareOptions{}); err == nil {
		t.Error("missing fresh file: want error")
	}
}

// TestCompareAgainstLiveArtifacts pins the comparator to the real
// meshbench schemas: a freshly measured result diffs cleanly against
// itself for the scale and datapath experiments.
func TestCompareAgainstLiveArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale/datapath experiments")
	}
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		p := filepath.Join(dir, name)
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	scaleRes, err := Scale(400)
	if err != nil {
		t.Fatal(err)
	}
	dataRes, err := DataPath(400)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]any{
		"scale.json":    scaleRes,
		"datapath.json": dataRes,
	} {
		p := write(name, v)
		rep, err := CompareBenchFiles(p, p, CompareOptions{Threshold: 0.1, CounterThreshold: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Deltas) == 0 {
			t.Fatalf("%s: comparator found no comparable metrics — schema drifted?", name)
		}
		if n := rep.Regressions(); n != 0 {
			t.Fatalf("%s: self-comparison regressed: %+v", name, rep.Deltas)
		}
	}
}
