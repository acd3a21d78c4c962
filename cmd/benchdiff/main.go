// Command benchdiff turns `go test -bench` output into a stable JSON
// document and compares two such documents, failing on time regressions.
// The CI bench lane uses it to gate merges against BENCH_baseline.json:
//
//	go test -run '^$' -bench . -benchmem ./... | tee bench.txt
//	benchdiff parse bench.txt > BENCH_ci.json
//	benchdiff compare -baseline BENCH_baseline.json -current BENCH_ci.json
//
// compare exits non-zero when any benchmark present in both documents got
// slower (ns/op) by more than the -max-regress fraction, when a simulated-
// clock metric (see exactMetrics) moved at all, or when a baseline
// benchmark is gone from the current run. A new benchmark never fails the
// gate; retiring one needs a baseline refresh in the same change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result.
type Benchmark struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the JSON document benchdiff reads and writes.
type Doc struct {
	Schema     int         `json:"schema"`
	GoVersion  string      `json:"go"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff parse <bench-output.txt>            # JSON to stdout
  benchdiff compare -baseline <a.json> -current <b.json>
                    [-max-regress 0.20] [-max-mem-regress 0.30]
                    [-ns-informational]`)
	os.Exit(2)
}

func cmdParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	doc, err := Parse(f)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

// Parse reads `go test -bench` output from r.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Schema: 1, GoVersion: runtime.Version()}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(pkg, line)
		if ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		if doc.Benchmarks[i].Pkg != doc.Benchmarks[j].Pkg {
			return doc.Benchmarks[i].Pkg < doc.Benchmarks[j].Pkg
		}
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// parseLine handles one result line:
//
//	BenchmarkName-8   100   12345 ns/op   6.8 ms/CLB   678 B/op   9 allocs/op
func parseLine(pkg, line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so documents from different runners align.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Pkg: pkg, Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsPerOp > 0
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	baseline := fs.String("baseline", "", "baseline JSON document")
	current := fs.String("current", "", "current JSON document")
	maxRegress := fs.Float64("max-regress", 0.20, "maximum allowed ns/op regression fraction")
	maxMemRegress := fs.Float64("max-mem-regress", 0.30, "maximum allowed B/op and allocs/op regression fraction (deterministic metrics; gated only above the noise floors)")
	nsInformational := fs.Bool("ns-informational", false,
		"report ns/op regressions without failing the gate — for shared CI runners, "+
			"where wall-clock is noisy but B/op and allocs/op are deterministic")
	_ = fs.Parse(args)
	if *baseline == "" || *current == "" {
		usage()
	}
	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*current)
	if err != nil {
		fatal(err)
	}
	baseBy := index(base)
	curBy := index(cur)
	// An empty or fully-disjoint current run means the benchmarks did not
	// actually execute (harness broken, wrong file) — that must not read
	// as "no regressions".
	if len(curBy) == 0 {
		fatal(fmt.Errorf("current document %s contains no benchmarks", *current))
	}
	if len(baseBy) > 0 {
		matched := 0
		for key := range baseBy {
			if _, ok := curBy[key]; ok {
				matched++
			}
		}
		if matched == 0 {
			fatal(fmt.Errorf("no benchmark of baseline %s appears in current %s — nothing was compared", *baseline, *current))
		}
	}

	gating, informational := compareDocs(baseBy, curBy, *maxRegress, *maxMemRegress, *nsInformational, os.Stdout)
	if len(informational) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d ns/op regression(s) over %.0f%% (informational, shared-runner wall-clock is not gated):\n",
			len(informational), *maxRegress*100)
		for _, r := range informational {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
	}
	if len(gating) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d benchmark(s) regressed past the gate:\n", len(gating))
		for _, r := range gating {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}

// exactMetrics are the custom metrics on the simulated configuration
// clock: stream words, TCK per frame and simulated ms per relocated CLB are
// pure functions of a benchmark's operation stream, so any movement at all
// is a behaviour change and gates.
var exactMetrics = map[string]bool{"words_shifted": true, "tck_per_frame": true, "ms/CLB": true}

// compareDocs renders the comparison table to w and returns the regressions
// that gate the merge and, with nsInformational, the wall-clock regressions
// that are only reported. Memory metrics (B/op, allocs/op) are deterministic
// and always gate, simulated-clock metrics gate on any change, and a
// baseline benchmark missing from the current run gates; ns/op gates only
// when nsInformational is false.
func compareDocs(baseBy, curBy map[string]Benchmark, maxRegress, maxMemRegress float64, nsInformational bool, w io.Writer) (gating, informational []string) {
	for _, key := range sortedKeys(baseBy) {
		b := baseBy[key]
		c, ok := curBy[key]
		if !ok {
			fmt.Fprintf(w, "GONE     %-50s (in baseline only)\n", key)
			gating = append(gating, key+": gone from the current run")
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		status := "ok      "
		if ratio > 1+maxRegress {
			msg := fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", key, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
			if nsInformational {
				status = "SLOWER  "
				informational = append(informational, msg)
			} else {
				status = "REGRESS "
				gating = append(gating, msg)
			}
		} else if ratio < 1-maxRegress {
			status = "faster  "
		}
		// Memory metrics are deterministic, so they gate tightly too — but
		// only above a noise floor, where a fixed-overhead wiggle cannot
		// trip the fraction. The floor applies to either side: a benchmark
		// ballooning from a tiny baseline must still trip the gate.
		if memRegressed(b.BPerOp, c.BPerOp, 1024, maxMemRegress) {
			status = "REGRESS "
			gating = append(gating, fmt.Sprintf("%s: %.0f -> %.0f B/op", key, b.BPerOp, c.BPerOp))
		}
		if memRegressed(b.AllocsPerOp, c.AllocsPerOp, 100, maxMemRegress) {
			status = "REGRESS "
			gating = append(gating, fmt.Sprintf("%s: %.0f -> %.0f allocs/op", key, b.AllocsPerOp, c.AllocsPerOp))
		}
		fmt.Fprintf(w, "%s %-50s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
			status, key, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		// The other custom metrics (ms_per_clb, overlap_ratio, frames/move,
		// ...) ride along as informational columns: they carry through the
		// comparison so a PR's table shows how they moved, but they never
		// gate — their meaning (and whether bigger is better) is
		// benchmark-specific.
		for _, name := range metricNames(b.Metrics, c.Metrics) {
			bv, bok := b.Metrics[name]
			cv, cok := c.Metrics[name]
			exact := exactMetrics[name]
			switch {
			case bok && cok && exact && bv != cv:
				fmt.Fprintf(w, "CHANGED  %-50s %12g -> %12g %s (exact)\n", key, bv, cv, name)
				gating = append(gating, fmt.Sprintf("%s: %s %g -> %g (exact metric)", key, name, bv, cv))
			case bok && cok && exact:
				fmt.Fprintf(w, "metric   %-50s %12.4g -> %12.4g %s (exact)\n", key, bv, cv, name)
			case bok && cok:
				fmt.Fprintf(w, "metric   %-50s %12.4g -> %12.4g %s (informational)\n",
					key, bv, cv, name)
			case cok:
				fmt.Fprintf(w, "metric   %-50s %27.4g %s (new, informational)\n", key, cv, name)
			case exact:
				fmt.Fprintf(w, "GONE     %-50s %s (was %g, exact)\n", key, name, bv)
				gating = append(gating, fmt.Sprintf("%s: %s gone (exact metric)", key, name))
			default:
				fmt.Fprintf(w, "metric   %-50s %s gone (was %.4g, informational)\n", key, name, bv)
			}
		}
	}
	for _, key := range sortedKeys(curBy) {
		if _, ok := baseBy[key]; !ok {
			fmt.Fprintf(w, "new      %-50s %12.0f ns/op\n", key, curBy[key].NsPerOp)
		}
	}
	return gating, informational
}

// memRegressed reports whether a deterministic memory metric regressed past
// the allowed fraction, ignoring values where both sides sit under the
// noise floor.
func memRegressed(baseline, current, floor, maxFraction float64) bool {
	if baseline < floor && current < floor {
		return false
	}
	if baseline <= 0 {
		return current >= floor
	}
	return current > baseline*(1+maxFraction)
}

func load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func index(doc *Doc) map[string]Benchmark {
	out := make(map[string]Benchmark, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		out[b.Pkg+"."+b.Name] = b
	}
	return out
}

// metricNames returns the sorted union of two custom-metric maps.
func metricNames(a, b map[string]float64) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := map[string]bool{}
	var names []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string]Benchmark) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
