package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"strings"
)

// layerReport is a traced run's result plus the CPU shares the cross-workload
// ordering check compares.
type layerReport struct {
	name     string
	result   *result
	cpuShare map[string]float64 // layer -> share of the profile's CPU time
	journalB float64
}

// start starts a CPU profile and a runtime/trace into the next pair of
// files; the returned function stops both and closes the files.
func (tr *tracing) start() (func(), error) {
	n := len(tr.files) / 2
	cpuPath := filepath.Join(tr.dir, fmt.Sprintf("cpu-%d.pprof", n))
	tracePath := filepath.Join(tr.dir, fmt.Sprintf("trace-%d.out", n))
	cf, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		cf.Close()
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		tf.Close()
		return nil, err
	}
	if err := trace.Start(tf); err != nil {
		pprof.StopCPUProfile()
		cf.Close()
		tf.Close()
		return nil, err
	}
	tr.files = append(tr.files, cpuPath, tracePath)
	return func() {
		trace.Stop()
		pprof.StopCPUProfile()
		if err := tf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing trace: %v\n", err)
		}
		if err := cf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing profile: %v\n", err)
		}
	}, nil
}

// runTraced measures the workload twice on fresh systems, each for half the
// run's seconds: once untraced, as the base of trace.overhead_ratio, and once
// under the CPU profile and runtime/trace, which give the per-layer metrics.
func runTraced(out io.Writer, w *scenario, seed uint64, seconds int, dir string) (*layerReport, error) {
	half := max(1, seconds/2)
	base, err := runPass(out, w, seed, half, filepath.Join(dir, "base"), nil)
	if err != nil {
		return nil, err
	}
	tr := &tracing{dir: filepath.Join(dir, "traced")}
	p, err := runPass(out, w, seed, half, tr.dir, tr)
	if err != nil {
		return nil, err
	}
	var cpu, syncBlock, syscall []sample
	for i := 0; i < len(tr.files); i += 2 {
		c, err := readProfileFile(tr.files[i])
		if err != nil {
			return nil, err
		}
		sb, err := tracePprof("sync", tr.files[i+1])
		if err != nil {
			return nil, err
		}
		sc, err := tracePprof("syscall", tr.files[i+1])
		if err != nil {
			return nil, err
		}
		cpu, syncBlock, syscall = append(cpu, c...), append(syncBlock, sb...), append(syscall, sc...)
	}
	fmt.Fprintf(out, "  profiles and traces in %s\n", tr.dir)

	m := map[string]metric{}
	for _, k := range opKinds {
		var l *opLog
		if k == "observe" {
			l = &opLog{lat: p.observe}
		} else {
			l = p.r.ops[k]
		}
		m["rlm."+k+".calls"] = metric{float64(len(l.lat)), "count"}
		m["rlm."+k+".p50_ms"] = metric{quantile(l.lat, 0.50), "ms"}
		m["rlm."+k+".p95_ms"] = metric{quantile(l.lat, 0.95), "ms"}
		m["rlm."+k+".failed"] = metric{float64(l.failed), "count"}
	}
	refused := 0
	for _, l := range p.r.ops {
		refused += l.refused
	}
	m["rlm.rollbacks"] = metric{float64(p.events.rollbacks), "count"}
	m["rlm.refused"] = metric{float64(refused), "count"}
	m["rlm.lock_wait_s"] = metric{blockedUnder(syncBlock, "main.(*observer)"), "s"}

	self := selfTimeByLayer(cpu)
	var total float64
	for _, v := range self {
		total += v
	}
	share := map[string]float64{}
	for layer, v := range self {
		share[layer] = v / total
	}
	for _, layer := range []string{"rlm", "route", "place", "fabric", "relocate", "bitstream", "jtag", "template", "journal"} {
		m[layer+".cpu_s"] = metric{self[layer], "s"}
	}

	d := p.d
	m["relocate.clbs"] = metric{float64(d.clbs), "count"}
	m["relocate.cells"] = metric{float64(d.cells), "count"}
	m["relocate.frames_written"] = metric{float64(d.frames), "count"}
	m["relocate.plan_s"] = metric{d.planS, "s"}
	m["relocate.overlap_ratio"] = metric{ratio(float64(d.overlapped), float64(d.cells)), "ratio"}
	m["relocate.serial_fallbacks"] = metric{float64(d.serialFallbacks), "count"}

	m["bitstream.words_shifted"] = metric{float64(d.words), "count"}
	m["bitstream.full_words"] = metric{float64(d.fullWords), "count"}
	m["bitstream.compression_ratio"] = metric{ratio(float64(d.fullWords), float64(d.words)), "ratio"}
	m["bitstream.frames_delivered"] = metric{float64(d.delivered), "count"}
	m["bitstream.sim_us_per_frame"] = metric{ratio(1e6*d.portS, float64(d.delivered)), "us"}
	m["port.harvest_wait_s"] = metric{blockedUnder(syncBlock, "repro/internal/relocate.(*FrameTool).AwaitStream",
		"repro/internal/relocate.(*FrameTool).harvest", "repro/internal/relocate.(*FrameTool).HarvestPending"), "s"}

	m["template.hit_ratio"] = metric{ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio"}
	m["template.translation_ratio"] = metric{ratio(float64(d.trans), float64(d.trans+d.falls)), "ratio"}
	m["template.fallbacks"] = metric{float64(d.falls), "count"}

	attempted, unexpected := p.counts()
	m["journal.bytes_per_op"] = metric{float64(d.journalBytes) / float64(attempted), "B"}
	m["journal.fsync_wait_s"] = metric{blockedUnder(syscall, "repro/internal/journal."), "s"}

	m["area.frag_before"] = metric{ratio(p.r.fragBefore, float64(p.r.defragPass)), "ratio"}
	m["area.frag_after"] = metric{ratio(p.r.fragAfter, float64(p.r.defragPass)), "ratio"}
	m["rearrange.moves"] = metric{float64(p.r.defragMoves), "count"}
	m["rearrange.attempts_per_pass"] = metric{ratio(float64(p.r.defragTries), float64(p.r.defragPass)), "count"}

	m["gc.cycles"] = metric{float64(d.gcCycles), "count"}
	m["gc.pause_ms"] = metric{float64(d.pauseNs) / 1e6, "ms"}
	m["gc.cpu_s"] = metric{d.gcCPU, "s"}

	baseLat, _, _ := base.r.mutating()
	tracedLat, _, _ := p.r.mutating()
	m["trace.overhead_ratio"] = metric{ratio(quantile(tracedLat, 0.5), quantile(baseLat, 0.5)), "ratio"}

	fmt.Fprintf(out, "  events: %d clb-relocated for %d relocated CLBs, %d rollbacks\n",
		p.events.clbRelocated, d.clbs, p.events.rollbacks)
	return &layerReport{
		name:     w.name,
		result:   &result{Correct: base.correct() && p.correct(), Attempted: attempted, Failed: unexpected, Metrics: m},
		cpuShare: share,
		journalB: float64(d.journalBytes),
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func readProfileFile(path string) ([]sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readProfile(data)
}

// tracePprof extracts one blocking profile (sync, syscall, ...) from a
// runtime/trace with the toolchain's trace tool.
func tracePprof(kind, tracePath string) ([]sample, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "trace", "-pprof="+kind, tracePath)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool trace -pprof=%s: %w: %s", kind, err, strings.TrimSpace(stderr.String()))
	}
	if stdout.Len() == 0 {
		return nil, nil // nothing blocked
	}
	return readProfile(stdout.Bytes())
}

// blockedUnder sums, in seconds, the samples whose stack passes through a
// function with one of the given name prefixes.
func blockedUnder(samples []sample, prefixes ...string) float64 {
	var ns int64
	for _, s := range samples {
		if stackHas(s.stack, prefixes) {
			ns += s.ns
		}
	}
	return float64(ns) / 1e9
}

func stackHas(stack, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// selfTimeByLayer attributes each CPU sample to the package of its leaf
// function: repro/internal/<layer> is <layer>, the facade package is rlm.
func selfTimeByLayer(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		out[layerOf(s.stack[0])] += float64(s.ns) / 1e9
	}
	return out
}

func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "repro":
		return "rlm"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	}
	return pkg
}

// printHomeWorkloads checks, across the traced workloads, that each layer
// does most of its work where the benchmark says it does.
func printHomeWorkloads(out io.Writer, runs []*layerReport) {
	by := map[string]*layerReport{}
	for _, r := range runs {
		by[r.name] = r
	}
	churn, reloc, comp := by["churn"], by["relocate"], by["compact"]
	if churn == nil || reloc == nil || comp == nil {
		return
	}
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "DOES NOT HOLD"
	}
	fmt.Fprintln(out, "== home workloads (CPU self-time share of each traced run)")
	fmt.Fprintf(out, "  route share churn %.3f > compact %.3f: %s\n",
		churn.cpuShare["route"], comp.cpuShare["route"], verdict(churn.cpuShare["route"] > comp.cpuShare["route"]))
	fmt.Fprintf(out, "  jtag share relocate %.3f >> churn %.3f: %s\n",
		reloc.cpuShare["jtag"], churn.cpuShare["jtag"], verdict(reloc.cpuShare["jtag"] > 10*churn.cpuShare["jtag"]))
	fmt.Fprintf(out, "  journal bytes churn %.0f, relocate %.0f, compact %.0f: %s\n",
		churn.journalB, reloc.journalB, comp.journalB, verdict(churn.journalB == 0 && reloc.journalB == 0 && comp.journalB > 0))
}
