package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig7Defrag             	       3	 342258198 ns/op	41498688 B/op	  175270 allocs/op
BenchmarkTab226msRelocationTime-8 	       2	 931431967 ns/op	         6.889 ms/CLB	105803816 B/op	  404479 allocs/op
PASS
ok  	repro	9.192s
pkg: repro/internal/route
BenchmarkRoute-8   	    1000	     12345 ns/op
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	by := index(doc)
	fig7, ok := by["repro.BenchmarkFig7Defrag"]
	if !ok {
		t.Fatal("Fig7 missing")
	}
	if fig7.NsPerOp != 342258198 || fig7.BPerOp != 41498688 || fig7.AllocsPerOp != 175270 {
		t.Fatalf("Fig7 fields: %+v", fig7)
	}
	tab, ok := by["repro.BenchmarkTab226msRelocationTime"]
	if !ok {
		t.Fatal("Tab226 missing (GOMAXPROCS suffix not stripped?)")
	}
	if tab.Metrics["ms/CLB"] != 6.889 {
		t.Fatalf("Tab226 custom metric: %+v", tab.Metrics)
	}
	if _, ok := by["repro/internal/route.BenchmarkRoute"]; !ok {
		t.Fatal("per-package attribution lost")
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	if _, ok := parseLine("p", "BenchmarkBroken 12"); ok {
		t.Fatal("accepted truncated line")
	}
	if _, ok := parseLine("p", "BenchmarkBroken x 1 ns/op"); ok {
		t.Fatal("accepted non-numeric iterations")
	}
}

func bench(ns, b, allocs float64) Benchmark {
	return Benchmark{Pkg: "p", Name: "B", Iterations: 1, NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs}
}

func TestCompareDocsGatesMemoryTightly(t *testing.T) {
	base := map[string]Benchmark{"p.B": bench(1000, 100000, 1000)}
	// 15% B/op growth trips a 10% mem gate even though ns/op is flat.
	cur := map[string]Benchmark{"p.B": bench(1000, 115000, 1000)}
	gating, info := compareDocs(base, cur, 0.20, 0.10, true, io.Discard)
	if len(gating) != 1 || !strings.Contains(gating[0], "B/op") {
		t.Fatalf("B/op regression not gated: %v", gating)
	}
	if len(info) != 0 {
		t.Fatalf("unexpected informational findings: %v", info)
	}
}

func TestCompareDocsNsInformational(t *testing.T) {
	base := map[string]Benchmark{"p.B": bench(1000, 100000, 1000)}
	cur := map[string]Benchmark{"p.B": bench(2000, 100000, 1000)} // 2x slower, same memory
	gating, info := compareDocs(base, cur, 0.20, 0.10, true, io.Discard)
	if len(gating) != 0 {
		t.Fatalf("ns/op regression gated despite -ns-informational: %v", gating)
	}
	if len(info) != 1 || !strings.Contains(info[0], "ns/op") {
		t.Fatalf("ns/op regression not reported informationally: %v", info)
	}
	// Without the flag the same regression gates.
	gating, info = compareDocs(base, cur, 0.20, 0.10, false, io.Discard)
	if len(gating) != 1 || len(info) != 0 {
		t.Fatalf("ns/op regression should gate without the flag: gating %v, info %v", gating, info)
	}
}

func TestMemRegressedNoiseFloor(t *testing.T) {
	if memRegressed(50, 90, 100, 0.10) {
		t.Fatal("both sides under the floor must not gate")
	}
	if !memRegressed(50, 200, 100, 0.10) {
		t.Fatal("ballooning past the floor must gate")
	}
	if memRegressed(100000, 105000, 1024, 0.10) {
		t.Fatal("5% growth under a 10% gate must pass")
	}
	if !memRegressed(100000, 120000, 1024, 0.10) {
		t.Fatal("20% growth past a 10% gate must fail")
	}
}

func TestCompareDocsCarriesCustomMetrics(t *testing.T) {
	withMetrics := func(b Benchmark, m map[string]float64) Benchmark {
		b.Metrics = m
		return b
	}
	base := map[string]Benchmark{
		"p.B": withMetrics(bench(1000, 1000, 10), map[string]float64{"ms_per_clb": 9.4, "gone_metric": 1}),
	}
	// overlap_ratio is new, ms_per_clb moved 10x, gone_metric disappeared —
	// none of it may gate; all of it must appear in the rendered table.
	cur := map[string]Benchmark{
		"p.B": withMetrics(bench(1000, 1000, 10), map[string]float64{"ms_per_clb": 0.9, "overlap_ratio": 0.46}),
	}
	var out strings.Builder
	gating, info := compareDocs(base, cur, 0.20, 0.10, true, &out)
	if len(gating) != 0 || len(info) != 0 {
		t.Fatalf("custom metrics must not gate or warn: gating %v, info %v", gating, info)
	}
	text := out.String()
	for _, want := range []string{"ms_per_clb", "overlap_ratio", "gone_metric", "informational"} {
		if !strings.Contains(text, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, text)
		}
	}
}

// TestTemplateCacheMetricsRideThrough pins the template-cache bench lane:
// BenchmarkLoadWarmVsCold reports tmpl_hit_rate and warm_ms_per_load as
// custom units, and both must survive parse and render through compare as
// informational columns — a warm-path slowdown shows up in the PR table
// without the wall-clock gate deciding whether a cache policy change is
// acceptable.
func TestTemplateCacheMetricsRideThrough(t *testing.T) {
	in := "pkg: repro\n" +
		"BenchmarkLoadWarmVsCold/cold-8 20 34495721 ns/op 34.45 cold_ms_per_load\n" +
		"BenchmarkLoadWarmVsCold/warm-8 20 2402152 ns/op 0.9524 tmpl_hit_rate 2.400 warm_ms_per_load\n"
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	by := index(doc)
	warm, ok := by["repro.BenchmarkLoadWarmVsCold/warm"]
	if !ok {
		t.Fatalf("warm lane missing: %v", sortedKeys(by))
	}
	if warm.Metrics["tmpl_hit_rate"] != 0.9524 || warm.Metrics["warm_ms_per_load"] != 2.4 {
		t.Fatalf("warm metrics mis-parsed: %v", warm.Metrics)
	}
	if cold := by["repro.BenchmarkLoadWarmVsCold/cold"]; cold.Metrics["cold_ms_per_load"] != 34.45 {
		t.Fatalf("cold metric mis-parsed: %v", cold.Metrics)
	}
	// A later run where the hit rate collapses and warm loads slow down: the
	// movement renders in the table, but only the ns/op gate may fail the run.
	cur := map[string]Benchmark{}
	for k, b := range by {
		c := b
		if k == "repro.BenchmarkLoadWarmVsCold/warm" {
			c.Metrics = map[string]float64{"tmpl_hit_rate": 0.10, "warm_ms_per_load": 30.1}
		}
		cur[k] = c
	}
	var out strings.Builder
	gating, info := compareDocs(by, cur, 0.20, 0.30, false, &out)
	if len(gating) != 0 || len(info) != 0 {
		t.Fatalf("metric movement must not gate: gating %v, info %v", gating, info)
	}
	text := out.String()
	for _, want := range []string{"tmpl_hit_rate", "warm_ms_per_load", "cold_ms_per_load", "informational"} {
		if !strings.Contains(text, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, text)
		}
	}
}

func TestParseCustomMetricUnits(t *testing.T) {
	in := "pkg: repro\nBenchmarkTab226msRelocationTime-8 1 400000000 ns/op 6.86 ms/CLB 9.42 ms_per_clb 0.46 overlap_ratio\n"
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(doc.Benchmarks))
	}
	m := doc.Benchmarks[0].Metrics
	if m["ms_per_clb"] != 9.42 || m["overlap_ratio"] != 0.46 || m["ms/CLB"] != 6.86 {
		t.Fatalf("metrics mis-parsed: %v", m)
	}
}

// TestRecoverMetricsRideThrough pins the crash-recovery bench lane:
// BenchmarkRecoverFromJournal reports recover_ms and frames_checked as
// custom units, and both must survive parse and render through compare as
// informational columns — a recovery slowdown shows up in the PR table
// without gating the run.
func TestRecoverMetricsRideThrough(t *testing.T) {
	in := "pkg: repro\n" +
		"BenchmarkRecoverFromJournal-8 31 5018286 ns/op 33.00 frames_checked 5.018 recover_ms\n"
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	by := index(doc)
	rec, ok := by["repro.BenchmarkRecoverFromJournal"]
	if !ok {
		t.Fatalf("recover lane missing: %v", sortedKeys(by))
	}
	if rec.Metrics["recover_ms"] != 5.018 || rec.Metrics["frames_checked"] != 33 {
		t.Fatalf("recover metrics mis-parsed: %v", rec.Metrics)
	}
	// Recovery cost triples in a later run: the movement renders in the
	// table but must never gate — recover_ms is informational by design.
	cur := map[string]Benchmark{}
	for k, b := range by {
		c := b
		c.Metrics = map[string]float64{"recover_ms": 15.3, "frames_checked": 33}
		cur[k] = c
	}
	var out strings.Builder
	gating, info := compareDocs(by, cur, 0.20, 0.10, false, &out)
	if len(gating) != 0 || len(info) != 0 {
		t.Fatalf("recover_ms movement must not gate: gating %v, info %v", gating, info)
	}
	text := out.String()
	for _, want := range []string{"recover_ms", "frames_checked", "informational"} {
		if !strings.Contains(text, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, text)
		}
	}
}

// TestBandwidthMetricsRideThrough pins the configuration-bandwidth bench
// lane: the per-transport sub-benchmarks report words_shifted,
// compression_ratio and tck_per_frame as custom units, and all three must
// survive parse and render through compare. compression_ratio rides through
// as an informational column; words_shifted and tck_per_frame are on the
// simulated clock, so a later run where the encoder regressed to full-frame
// shipping gates on both.
func TestBandwidthMetricsRideThrough(t *testing.T) {
	in := "pkg: repro\n" +
		"BenchmarkFig7Defrag/BoundaryScan-8 5 143353881 ns/op 1.000 compression_ratio 978.2 tck_per_frame 56924 words_shifted\n" +
		"BenchmarkFig7Defrag/BoundaryScan-compressed-8 5 143261360 ns/op 5.450 compression_ratio 180.3 tck_per_frame 10445 words_shifted\n"
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	by := index(doc)
	comp, ok := by["repro.BenchmarkFig7Defrag/BoundaryScan-compressed"]
	if !ok {
		t.Fatalf("compressed lane missing: %v", sortedKeys(by))
	}
	if comp.Metrics["compression_ratio"] != 5.45 || comp.Metrics["words_shifted"] != 10445 ||
		comp.Metrics["tck_per_frame"] != 180.3 {
		t.Fatalf("compressed-lane metrics mis-parsed: %v", comp.Metrics)
	}
	if plain := by["repro.BenchmarkFig7Defrag/BoundaryScan"]; plain.Metrics["compression_ratio"] != 1 {
		t.Fatalf("plain-lane metrics mis-parsed: %v", plain.Metrics)
	}
	cur := map[string]Benchmark{}
	for k, b := range by {
		c := b
		if k == "repro.BenchmarkFig7Defrag/BoundaryScan-compressed" {
			c.Metrics = map[string]float64{"compression_ratio": 1.0, "words_shifted": 56924, "tck_per_frame": 978.2}
		}
		cur[k] = c
	}
	var out strings.Builder
	gating, info := compareDocs(by, cur, 0.20, 0.10, false, &out)
	if len(gating) != 2 || len(info) != 0 {
		t.Fatalf("want words_shifted and tck_per_frame gated, nothing else: gating %v, info %v", gating, info)
	}
	for _, g := range gating {
		if strings.Contains(g, "compression_ratio") {
			t.Fatalf("compression_ratio must not gate: %v", gating)
		}
	}
	text := out.String()
	for _, want := range []string{"words_shifted", "compression_ratio", "tck_per_frame", "informational", "exact"} {
		if !strings.Contains(text, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, text)
		}
	}
	// The unchanged run passes.
	if gating, _ := compareDocs(by, by, 0.20, 0.10, false, io.Discard); len(gating) != 0 {
		t.Fatalf("identical runs gated: %v", gating)
	}
}

// TestCompareDocsGatesExactMetricsAndGone: simulated ms/CLB gates on any
// change while the host-side ms_per_clb does not, a simulated-clock metric
// missing from the run gates, and so does a baseline benchmark missing from
// the run; a benchmark new in the run does not.
func TestCompareDocsGatesExactMetricsAndGone(t *testing.T) {
	with := func(name string, m map[string]float64) Benchmark {
		b := bench(1000, 1000, 10)
		b.Name, b.Metrics = name, m
		return b
	}
	base := map[string]Benchmark{
		"p.Sim":  with("Sim", map[string]float64{"ms/CLB": 6.862, "ms_per_clb": 9.4}),
		"p.Gone": with("Gone", nil),
		"p.Drop": with("Drop", map[string]float64{"words_shifted": 100}),
	}
	cur := map[string]Benchmark{
		"p.Sim":  with("Sim", map[string]float64{"ms/CLB": 6.863, "ms_per_clb": 0.9}),
		"p.Drop": with("Drop", nil),
		"p.New":  with("New", nil),
	}
	gating, info := compareDocs(base, cur, 0.20, 0.10, true, io.Discard)
	if len(info) != 0 {
		t.Fatalf("unexpected informational findings: %v", info)
	}
	want := []string{"p.Drop: words_shifted gone", "p.Gone: gone", "p.Sim: ms/CLB 6.862 -> 6.863"}
	if len(gating) != len(want) {
		t.Fatalf("gating = %v, want %d findings", gating, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(gating[i], w) {
			t.Fatalf("gating[%d] = %q, want prefix %q", i, gating[i], w)
		}
	}
}
