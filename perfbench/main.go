// Command perfbench is the repository's end-to-end benchmark. It drives a
// live rlm.System through one named workload (churn, relocate or compact),
// checks the system's outputs, and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// repeats the workload under a CPU profile and a runtime/trace and prints the
// per-layer breakdown instead. README.md in this directory explains the
// workloads, the metrics and which layer each metric measures.
//
// Run it from the repository root with perfbench/run.sh, which builds the
// binary from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// DefaultSeed is the seed the benchmark runs when none is given;
// HeldOutSeed is kept aside for confirming a claimed gain on inputs the
// change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 20031
)

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: churn, relocate, compact or all")
	seed := flag.Uint64("seed", DefaultSeed, "workload seed (inputs are a pure function of it)")
	seconds := flag.Int("seconds", 30, "nominal length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var ws []*scenario
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*scenario{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// Journals, profiles and traces stay inside the working directory (the
	// repository checkout) under the build directory run.sh also uses.
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-work"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := runAll(os.Stdout, ws, *seed, *seconds, *traced == 1, work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs each workload and merges the results. A single workload keeps
// its metric names; several are prefixed with the workload name.
func runAll(out io.Writer, ws []*scenario, seed uint64, seconds int, traced bool, work string) (*result, error) {
	total := &result{Correct: true, Metrics: map[string]metric{}}
	var layerRuns []*layerReport
	for _, w := range ws {
		fmt.Fprintf(out, "== %s (seed %d, %d s): %s\n", w.name, seed, seconds, w.why)
		var res *result
		if traced {
			lr, err := runTraced(out, w, seed, seconds, filepath.Join(work, w.name))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			layerRuns = append(layerRuns, lr)
			res = lr.result
		} else {
			r, err := runUntraced(out, w, seed, seconds, filepath.Join(work, w.name))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res = r
		}
		printMetrics(out, res.Metrics)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	if len(layerRuns) > 1 {
		printHomeWorkloads(out, layerRuns)
	}
	return total, nil
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
