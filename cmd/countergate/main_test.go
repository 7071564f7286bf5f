package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// reportJSON is shaped like the benchmark's -json report: two repeats of a
// gated workload, an ungated metric and an ungated workload.
const reportJSON = `{
  "seed": 1, "scale": 10, "traced": true,
  "workloads": [
    {"name": "redis-lru", "clients": 1, "repeats": 2, "metrics": [
      {"name": "rss_final_mib", "unit": "MiB", "median": 13.33203125, "repeats": [13.33203125, 13.33203125]},
      {"name": "core.shard_acquires_per_call", "unit": "1/call", "repeats": [0.6063401877681109, 0.6063401877681109]},
      {"name": "core.spans_meshed", "unit": "count", "repeats": [1141, 1141]},
      {"name": "core.mesh_pass_ms", "unit": "ms", "repeats": [2.9, 3.1]}
    ]},
    {"name": "server-mixed", "clients": 2, "repeats": 2, "metrics": [
      {"name": "core.spans_meshed", "unit": "count", "repeats": [50, 48]}
    ]}
  ]
}`

func TestCheck(t *testing.T) {
	// repeats returns the repeats of one metric of the report's workload w.
	repeats := func(r *report, w int, name string) []float64 {
		for _, m := range r.Workloads[w].Metrics {
			if m.Name == name {
				return m.Repeats
			}
		}
		t.Fatalf("no metric %q", name)
		return nil
	}
	cases := []struct {
		name string
		edit func(c *counters, r *report)
		pass bool
	}{
		{"identical report passes", func(*counters, *report) {}, true},
		{"one value off in its last bit fails", func(_ *counters, r *report) {
			xs := repeats(r, 0, "core.shard_acquires_per_call")
			xs[1] = math.Nextafter(xs[1], 1)
		}, false},
		{"missing metric fails", func(_ *counters, r *report) {
			r.Workloads[0].Metrics = r.Workloads[0].Metrics[:2]
		}, false},
		{"metric without repeats fails", func(_ *counters, r *report) {
			r.Workloads[0].Metrics[2].Repeats = nil
		}, false},
		{"missing workload fails", func(_ *counters, r *report) {
			r.Workloads[0].Name = "redis"
		}, false},
		{"wrong seed fails", func(_ *counters, r *report) { r.Seed = 2 }, false},
		{"wrong scale fails", func(_ *counters, r *report) { r.Scale = 1 }, false},
		{"untraced report fails", func(_ *counters, r *report) { r.Traced = false }, false},
		{"ungated metrics are ignored", func(_ *counters, r *report) {
			repeats(r, 0, "core.mesh_pass_ms")[0] = 40
			repeats(r, 1, "core.spans_meshed")[0] = 1
		}, true},
		{"a file that gates nothing fails", func(c *counters, _ *report) {
			c.Workloads = nil
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := counters{Seed: 1, Scale: 10, Traced: true, Workloads: map[string]map[string]float64{
				"redis-lru": {
					"rss_final_mib":                13.33203125,
					"core.shard_acquires_per_call": 0.6063401877681109,
					"core.spans_meshed":            1141,
				},
			}}
			var r report
			if err := json.Unmarshal([]byte(reportJSON), &r); err != nil {
				t.Fatal(err)
			}
			tc.edit(&c, &r)
			fails, checked := check(c, r)
			if pass := len(fails) == 0; pass != tc.pass {
				t.Fatalf("pass = %v, want %v; failures: %q", pass, tc.pass, fails)
			}
			if tc.pass && checked != 6 {
				t.Errorf("checked %d values, want 3 metrics x 2 repeats", checked)
			}
		})
	}
}

// TestCommittedCounters checks that bench/counters.json parses and passes
// against a report holding exactly its own values.
func TestCommittedCounters(t *testing.T) {
	data, err := os.ReadFile("../../bench/counters.json")
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	r := report{Seed: c.Seed, Scale: c.Scale, Traced: c.Traced}
	n := 0
	for name, metrics := range c.Workloads {
		w := reportWorkload{Name: name}
		for m, v := range metrics {
			w.Metrics = append(w.Metrics, reportMetric{Name: m, Repeats: []float64{v}})
			n++
		}
		r.Workloads = append(r.Workloads, w)
	}
	if fails, checked := check(c, r); len(fails) > 0 || checked != n {
		t.Fatalf("checked %d of %d values; failures: %q", checked, n, fails)
	}
}
