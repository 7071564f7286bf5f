// Command benchmark drives the Mesh allocator through four paper-shaped
// closed-loop workloads using only the public repro/mesh API, and prints
// end-to-end metrics (throughput, request latency, RSS, set-up time) or,
// traced, per-layer metrics (call spans recorded here, and the
// allocator's own counters). See README.md for the workloads, the metric
// table and how to read the traced output.
//
// Usage, from the repository root:
//
//	go -C benchmark run . -seed 1 [-json out.json]     every workload, end to end
//	go -C benchmark run . -seed 1 -trace trace.jsonl   every workload, per layer
//	go -C benchmark run . -workload redis-lru -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Any failed call, content mismatch or broken quiescence identity makes
// the command exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

var workloads = []*workload{&redisLRU, &serverMixed, &pipelineRemote, &browserBG}

// maxWorkloadTime stops adding repeats to a workload once it has run this
// long, whatever -repeats and -seconds ask, so one invocation stays well
// inside three minutes on a slow machine.
const maxWorkloadTime = 120 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed    uint64
	seconds float64
	repeats int
	scale   int
	traced  bool
	spans   string // file the traced run writes spans to
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	var o options
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; confirm a claim on a seed not used while writing the change")
	fs.Float64Var(&o.seconds, "seconds", 0, "add repeats until the timed phases have run this many seconds")
	fs.IntVar(&o.repeats, "repeats", 5, "least number of repeats (a traced run counts untraced/traced pairs)")
	fs.IntVar(&o.scale, "scale", 1, "divide every workload's operation counts by this")
	trace := fs.String("trace", "", `"1": traced run giving per-layer metrics; a file name: the same, writing spans there; "" or "0": untraced`)
	jsonOut := fs.String("json", "", "also write every metric with its per-repeat values to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.repeats < 1 || o.scale < 1 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -help")
		return 2
	}
	switch *trace {
	case "", "0":
	case "1":
		o.traced = true
	default:
		o.traced, o.spans = true, *trace
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = append(selected, w)
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	var spanFile *bufio.Writer
	if o.spans != "" {
		f, err := os.Create(o.spans)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		spanFile = bufio.NewWriter(f)
	}

	res := result{Correct: true, Metrics: map[string]value{}}
	report := jsonReport{Seed: o.seed, Scale: o.scale, Traced: o.traced}
	for _, w := range selected {
		rs := runWorkload(w, o, spanFile)
		summary := summarize(rs)
		printTable(stdout, w, o, rs, summary)
		for _, r := range rs {
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		for _, m := range selectMetrics(o.traced) {
			if !m.ungated {
				res.Metrics[prefix+m.name] = value{Value: summary[m.name], Unit: m.unit}
			}
		}
		report.add(w, rs, summary)
	}
	res.Correct = res.Failed == 0

	if spanFile != nil {
		if err := spanFile.Flush(); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := report.write(*jsonOut); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs a workload's repeats. Untraced, that is at least
// o.repeats repeats; traced, at least o.repeats untraced/traced pairs,
// alternating, so both halves see the same machine conditions. More are
// added until the timed phases reach o.seconds.
func runWorkload(w *workload, o options, spanFile *bufio.Writer) []repeatResult {
	start := time.Now()
	var rs []repeatResult
	var measured float64
	wroteSpans := false
	for i := 0; i < o.repeats || measured < o.seconds; i++ {
		if i > 0 && time.Since(start) > maxWorkloadTime {
			break
		}
		modes := []bool{false}
		if o.traced {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			var onSpans func([]*client)
			if spanFile != nil && !wroteSpans {
				// One traced repeat's spans per workload keeps the file to
				// a few hundred thousand lines.
				onSpans = func(cs []*client) { writeSpans(spanFile, w.name, i, cs); wroteSpans = true }
			}
			r := runRepeat(w, o.seed, o.scale, traced, onSpans)
			measured += r.wall.Seconds()
			rs = append(rs, r)
		}
	}
	return rs
}
