// Command countergate holds the end-to-end benchmark's deterministic
// counters to a committed file. On redis-lru the allocator's counters and
// RSS repeat exactly for a given seed and scale, so any change in them is a
// change in what the allocator did, never noise.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -seed 1 -scale 10 -repeats 1 -trace 1 -json bench-report.json
//	go run ./cmd/countergate bench/counters.json bench-report.json
//
// It exits 1 unless the report was made with the file's seed, scale and
// traced flag and, in every repeat of every workload the file names, each
// metric the file lists equals its committed value exactly. Metrics and
// workloads the file does not list are ignored. A change that moves a
// counter on purpose copies the printed values into the file and says why.
package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
)

// counters is the committed file: the run the values were measured with
// and, per workload, each gated metric's value.
type counters struct {
	Seed      uint64                        `json:"seed"`
	Scale     int                           `json:"scale"`
	Traced    bool                          `json:"traced"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// report is the part of the benchmark's -json report the gate reads.
type report struct {
	Seed      uint64           `json:"seed"`
	Scale     int              `json:"scale"`
	Traced    bool             `json:"traced"`
	Workloads []reportWorkload `json:"workloads"`
}

type reportWorkload struct {
	Name    string         `json:"name"`
	Metrics []reportMetric `json:"metrics"`
}

type reportMetric struct {
	Name    string    `json:"name"`
	Repeats []float64 `json:"repeats"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: countergate COUNTERS.json REPORT.json")
		os.Exit(2)
	}
	var want counters
	var got report
	for i, v := range []any{&want, &got} {
		data, err := os.ReadFile(os.Args[1+i])
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "countergate:", err)
			os.Exit(1)
		}
	}
	fails, checked := check(want, got)
	for _, f := range fails {
		fmt.Println("FAIL", f)
	}
	if len(fails) > 0 {
		fmt.Printf("countergate: mismatches against %s: %d\n", os.Args[1], len(fails))
		os.Exit(1)
	}
	fmt.Printf("countergate: %d values match %s\n", checked, os.Args[1])
}

// check compares every gated value of want with every repeat of it in r.
// It returns one line per mismatch and the number of values that matched.
func check(want counters, r report) (fails []string, checked int) {
	if r.Seed != want.Seed || r.Scale != want.Scale || r.Traced != want.Traced {
		fails = append(fails, fmt.Sprintf("report ran seed %d, scale %d, traced %v; the file wants seed %d, scale %d, traced %v",
			r.Seed, r.Scale, r.Traced, want.Seed, want.Scale, want.Traced))
	}
	repeats := map[string]map[string][]float64{}
	for _, w := range r.Workloads {
		repeats[w.Name] = map[string][]float64{}
		for _, m := range w.Metrics {
			repeats[w.Name][m.Name] = m.Repeats
		}
	}
	for _, w := range slices.Sorted(maps.Keys(want.Workloads)) {
		got, ok := repeats[w]
		if !ok {
			fails = append(fails, w+": workload missing from the report")
			continue
		}
		for _, m := range slices.Sorted(maps.Keys(want.Workloads[w])) {
			v := want.Workloads[w][m]
			if len(got[m]) == 0 {
				fails = append(fails, fmt.Sprintf("%s %s: metric missing from the report", w, m))
			}
			for i, x := range got[m] {
				if x != v {
					fails = append(fails, fmt.Sprintf("%s repeat %d: %q: %s (committed %s)", w, i, m, num(x), num(v)))
				} else {
					checked++
				}
			}
		}
	}
	if checked == 0 && len(fails) == 0 {
		fails = append(fails, "the file gates no values")
	}
	return fails, checked
}

// num formats x as the shortest decimal that reads back as x, ready to
// paste into the file.
func num(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
