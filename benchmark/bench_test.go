package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the workload and metric tables")

const benchmarkPath = "../BENCHMARK.json"

func renderBenchmarkJSON(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchmarkJSON()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBenchmarkJSONFollowsTables fails when BENCHMARK.json disagrees with
// the workload and metric tables; go test -run BenchmarkJSON -update
// regenerates it.
func TestBenchmarkJSONFollowsTables(t *testing.T) {
	want := renderBenchmarkJSON(t)
	if *update {
		if err := os.WriteFile(benchmarkPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s disagrees with the tables in this package; rerun with -update\n--- want\n%s", benchmarkPath, want)
	}
}

// TestReadmeNamesEveryMetric keeps README.md's tables from drifting out of
// the code's: each workload and metric must appear there by name. A span
// metric's three forms share one README entry.
func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not name workload %s", w.name)
		}
	}
	for _, m := range metrics {
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m.name, ".p50"), ".p99"), ".share")
		if !bytes.Contains(readme, []byte("`"+base+"`")) {
			t.Errorf("README.md does not name metric %s", m.name)
		}
	}
}

// TestBenchmarkJSONSchema checks the limits the file's consumers enforce.
func TestBenchmarkJSONSchema(t *testing.T) {
	f := benchmarkJSON()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range f.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	var setupBound, maxBound float64
	for _, m := range f.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of limits", m)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != lower {
				t.Errorf("setup_s must be in s, lower better: %+v", m)
			}
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range f.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v out of limits", m)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", f.RunSeconds)
	}
}

// runSmoke runs the command in-process and returns its output and the
// decoded result line.
func runSmoke(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v exited %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return out.String(), res
}

// TestSmokeAllWorkloads runs all four workloads at a tiny size, untraced
// and traced, and requires every declared metric of each mode to be
// printed and reported for every workload, with no failure.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, traced := range []string{"0", "1"} {
		out, res := runSmoke(t, "-scale", "300", "-repeats", "1", "-trace", traced)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		for _, w := range workloads {
			for _, m := range selectMetrics(traced == "1") {
				if !strings.Contains(out, "   "+m.name+" ") {
					t.Errorf("trace %s: table omits %s", traced, m.name)
				}
				if _, ok := res.Metrics[w.name+"/"+m.name]; !ok && !m.ungated {
					t.Errorf("trace %s: result omits %s/%s", traced, w.name, m.name)
				}
			}
		}
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("tiny runs took %v, want under 3s", d)
	}
}

// TestRedisLRUDeterministic runs redis-lru at 1/100 size twice: with one
// client, a pinned heap, a logical clock and a fixed seed, the RSS series
// and every allocator counter must repeat exactly.
func TestRedisLRUDeterministic(t *testing.T) {
	once := func() ([]int64, counters) {
		inst := prepareRedis(1, 100)
		a := inst.allocator()
		c := newClient(0, a, false, inst.requests(0))
		before := readCounters(a)
		inst.run(c)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		a.Mesh()
		after := readCounters(a)
		if c.failed != 0 || len(c.rss) == 0 {
			t.Fatalf("failed %d calls (%v), %d RSS samples", c.failed, c.errs, len(c.rss))
		}
		if before.st.Allocs != 0 || after.st.Mesh.SpansMeshed == 0 {
			t.Fatalf("unexpected counters: %d allocs before, %d spans meshed", before.st.Allocs, after.st.Mesh.SpansMeshed)
		}
		return c.rss, after
	}
	rss1, c1 := once()
	rss2, c2 := once()
	if !reflect.DeepEqual(rss1, rss2) {
		t.Errorf("RSS series differ:\n%v\n%v", rss1, rss2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("counters differ:\n%+v\n%+v", c1, c2)
	}
}
