package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/trace"
	"sort"
	"time"

	rlm "repro"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/relocate"
	"repro/internal/template"
)

// opKinds are the facade operations the benchmark times. All but observe
// mutate the system; observe is the observer's Stats()+Capacity() read.
var opKinds = []string{"load", "unload", "move", "reserve", "compact", "observe"}

// opLog collects one op kind's outcomes.
type opLog struct {
	lat        []float64 // host latency, ms
	failed     int       // returned an error other than a capacity refusal
	refused    int       // capacity refusal (rlm.ErrNoSpace)
	unexpected int       // an error the workload does not provoke on purpose
}

// bugSentinels are facade errors no benchmark workload may provoke: each
// means the op stream or the system is broken, not that a placement did not
// route.
var bugSentinels = []error{
	rlm.ErrUnknownDesign, rlm.ErrDuplicateDesign, rlm.ErrRegionMismatch, rlm.ErrRegionBusy,
	rlm.ErrPlanInvalid, rlm.ErrRetriesExhausted, rlm.ErrQuarantined, rlm.ErrDegraded,
	rlm.ErrPortStalled,
}

// runner issues a workload's facade ops against one system, timing each.
type runner struct {
	sys *rlm.System
	w   *scenario
	ctx context.Context

	measuring bool // record outcomes (set-up ops are not recorded)
	ops       map[string]*opLog
	firstErr  error       // first unexpected error, for the report
	stream    hash.Hash64 // fingerprint of the op stream issued

	// Relocation accounting over the Move and Defragment calls that moved
	// designs: simulated port time, booked CLB area moved, and the
	// Defragment reports.
	relocPortS  float64
	relocCLBs   int
	defragPass  int
	defragMoves int
	defragTries int
	fragBefore  float64
	fragAfter   float64
}

func newRunner(w *scenario) *runner {
	r := &runner{w: w, ctx: context.Background(), ops: map[string]*opLog{}, stream: fnv.New64a()}
	for _, k := range opKinds {
		r.ops[k] = &opLog{}
	}
	return r
}

// do times one op under a runtime/trace task and classifies its error. arg
// names the op's operands for the stream fingerprint.
func (r *runner) do(kind, arg string, fn func() error) error {
	fmt.Fprintf(r.stream, "%s %s;", kind, arg)
	_, task := trace.NewTask(r.ctx, "rlm."+kind)
	t0 := time.Now()
	err := fn()
	ms := float64(time.Since(t0)) / 1e6
	task.End()
	if !r.measuring {
		return err
	}
	l := r.ops[kind]
	l.lat = append(l.lat, ms)
	switch {
	case err == nil:
	case errors.Is(err, rlm.ErrNoSpace):
		l.refused++
	default:
		l.failed++
		if !r.w.mayFail[kind] || isBug(err) {
			l.unexpected++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("%s: %w", kind, err)
			}
		}
	}
	return err
}

func isBug(err error) bool {
	for _, s := range bugSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

func (r *runner) load(nl *netlist.Netlist, at fabric.Rect) error {
	return r.do("load", fmt.Sprint(nl.Name, nl.ContentHash(), at), func() error {
		_, err := r.sys.Load(nl, at)
		return err
	})
}

func (r *runner) unload(name string) error {
	return r.do("unload", name, func() error { return r.sys.Unload(name) })
}

func (r *runner) move(name string, to fabric.Rect) error {
	s0 := r.sys.Stats()
	err := r.do("move", fmt.Sprint(name, to), func() error { return r.sys.Move(name, to) })
	if err == nil && r.measuring {
		r.noteRelocation(s0, to.Area())
	}
	return err
}

// reserve asks Defragment to free an h x w region (the churn workload's
// admission step).
func (r *runner) reserve(h, w int) (*rlm.DefragReport, error) {
	return r.defrag("reserve", rlm.DefragPolicy{NeedH: h, NeedW: w})
}

// compact runs a full-compaction Defragment.
func (r *runner) compact() (*rlm.DefragReport, error) {
	return r.defrag("compact", rlm.DefragPolicy{})
}

func (r *runner) defrag(kind string, pol rlm.DefragPolicy) (*rlm.DefragReport, error) {
	s0 := r.sys.Stats()
	var rep *rlm.DefragReport
	err := r.do(kind, fmt.Sprint(pol.NeedH, pol.NeedW), func() error {
		var err error
		rep, err = r.sys.Defragment(pol)
		return err
	})
	if err == nil && len(rep.Moves) > 0 && r.measuring {
		r.defragPass++
		r.defragMoves += len(rep.Moves)
		r.defragTries += rep.Attempts
		r.fragBefore += rep.FragBefore
		r.fragAfter += rep.FragAfter
		r.noteRelocation(s0, rep.CLBsMoved)
	}
	return rep, err
}

// noteRelocation adds a completed relocating op's simulated port time and
// the booked CLB area it moved.
func (r *runner) noteRelocation(s0 relocate.Stats, clbs int) {
	r.relocPortS += r.sys.Stats().PortSeconds - s0.PortSeconds
	r.relocCLBs += clbs
}

// mutating returns every mutating op's latencies and the failure counts.
func (r *runner) mutating() (lat []float64, failed, unexpected int) {
	for _, k := range opKinds {
		if k == "observe" {
			continue
		}
		l := r.ops[k]
		lat = append(lat, l.lat...)
		failed += l.failed
		unexpected += l.unexpected
	}
	return lat, failed, unexpected
}

// --- observer ----------------------------------------------------------------

// observePeriod is the observer's open-loop schedule.
const observePeriod = 10 * time.Millisecond

// observer reads Stats() then Capacity() every observePeriod. Each read is
// timed from when it was due; slots that fell due while a read was blocked
// are recorded as completing when it completed (an open-loop client would
// have issued them then), so a blocked observer shows in the latencies
// instead of thinning them out.
type observer struct {
	sys  *rlm.System
	ctx  context.Context
	lat  []float64 // ms
	peak uint64    // peak live heap, bytes
	stop chan struct{}
	done chan struct{}
}

func startObserver(ctx context.Context, sys *rlm.System) *observer {
	o := &observer{sys: sys, ctx: ctx, stop: make(chan struct{}), done: make(chan struct{})}
	go o.run()
	return o
}

func (o *observer) run() {
	defer close(o.done)
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	due := time.Now().Add(observePeriod)
	timer := time.NewTimer(observePeriod)
	defer timer.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-timer.C:
		}
		trace.WithRegion(o.ctx, "rlm.observe", func() {
			_ = o.sys.Stats()
			_ = o.sys.Capacity()
		})
		end := time.Now()
		for ; !due.After(end); due = due.Add(observePeriod) {
			o.lat = append(o.lat, float64(end.Sub(due))/1e6)
		}
		metrics.Read(heap)
		if v := heap[0].Value.Uint64(); v > o.peak {
			o.peak = v
		}
		timer.Reset(time.Until(due))
	}
}

// halt stops the observer and waits for it to exit.
func (o *observer) halt() {
	close(o.stop)
	<-o.done
}

// --- one pass ------------------------------------------------------------------

// episodes is how many independent episodes a run measures. Each has its own
// inputs drawn from the run's seed, its own set-up (setup_s is their median)
// and its own output checks; the measured metrics pool all of them, so one
// unlucky draw of circuits or tasks moves a run's figures less.
const episodes = 8

// tracing, when set, brackets each measured phase with a CPU profile and a
// runtime/trace written into this directory.
type tracing struct {
	dir   string
	files []string // cpu profile, trace; one pair per episode
}

// pass is one run's episodes: set-up, measured phase and output checks each.
type pass struct {
	r        *runner
	setup    []float64 // seconds per episode set-up
	elapsed  float64   // measured phases, host seconds
	observe  []float64
	peakHeap uint64
	aborted  error // an op stream stopped on an unexpected error
	checkErr []error
	d        delta // counters summed over the measured phases

	events struct { // from Subscribe, traced passes only
		clbRelocated, rollbacks int
	}
}

// delta sums counter differences over the measured phases.
type delta struct {
	portS, planS                float64
	clbs, cells, frames         int
	overlapped, serialFallbacks int
	words, fullWords, delivered uint64
	hits, misses, trans, falls  int
	journalBytes                int64
	alloc, gcCycles, pauseNs    uint64
	gcCPU                       float64
}

// counters is one reading of everything delta differences.
type counters struct {
	st      relocate.Stats
	tr      bitstream.Traffic
	tp      template.Stats
	journal int64
	mem     runtime.MemStats
	gcCPU   float64
}

func read(sys *rlm.System, journal string) counters {
	var c counters
	c.st, c.tr = sys.Stats(), sys.Traffic()
	c.tp, _ = sys.TemplateStats()
	c.journal = fileSize(journal)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c.gcCPU = gc[0].Value.Float64()
	runtime.ReadMemStats(&c.mem)
	return c
}

func (d *delta) add(a, b counters) {
	d.portS += b.st.PortSeconds - a.st.PortSeconds
	d.planS += b.st.PlanSeconds - a.st.PlanSeconds
	d.clbs += b.st.CLBsRelocated - a.st.CLBsRelocated
	d.cells += b.st.CellsRelocated - a.st.CellsRelocated
	d.frames += b.st.FramesWritten - a.st.FramesWritten
	d.overlapped += b.st.OverlappedOps - a.st.OverlappedOps
	d.serialFallbacks += b.st.SerialFallbacks - a.st.SerialFallbacks
	d.words += b.tr.WordsShifted - a.tr.WordsShifted
	d.fullWords += b.tr.FullWords - a.tr.FullWords
	d.delivered += b.tr.FramesDelivered - a.tr.FramesDelivered
	d.hits += b.tp.Hits - a.tp.Hits
	d.misses += b.tp.Misses - a.tp.Misses
	d.trans += b.tp.Translations - a.tp.Translations
	d.falls += b.tp.Fallbacks - a.tp.Fallbacks
	d.journalBytes += b.journal - a.journal
	d.alloc += b.mem.TotalAlloc - a.mem.TotalAlloc
	d.gcCycles += uint64(b.mem.NumGC - a.mem.NumGC)
	d.pauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
	d.gcCPU += b.gcCPU - a.gcCPU
}

// episodeSeed derives episode e's input seed from the run's seed.
func episodeSeed(seed uint64, e int) uint64 {
	r := splitmix{s: seed*episodes + uint64(e)}
	return r.next()
}

// runPass runs the workload's episodes for about `seconds` of measured time
// in total, writing journals (and, when traced, profiles) under dir.
func runPass(out io.Writer, w *scenario, seed uint64, seconds int, dir string, tr *tracing) (*pass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &pass{r: newRunner(w)}
	for e := 0; e < episodes; e++ {
		if err := p.episode(w, episodeSeed(seed, e), float64(seconds)/episodes,
			filepath.Join(dir, fmt.Sprintf("journal-%d", e)), tr); err != nil {
			return nil, err
		}
		if p.aborted != nil {
			break
		}
	}
	if p.aborted != nil {
		fmt.Fprintf(out, "  op stream stopped: %v\n", p.aborted)
	}
	if p.r.firstErr != nil {
		fmt.Fprintf(out, "  first unexpected error: %v\n", p.r.firstErr)
	}
	for _, err := range p.checkErr {
		fmt.Fprintf(out, "  CHECK FAILED: %v\n", err)
	}
	return p, nil
}

// episode sets a fresh system up, measures its op stream and checks it.
func (p *pass) episode(w *scenario, seed uint64, seconds float64, journal string, tr *tracing) error {
	pl := w.plan(seed, seconds)
	runtime.GC()
	t0 := time.Now()
	sys, err := rlm.New(w.options(journal)...)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer sys.Close()
	p.r.sys, p.r.ctx, p.r.measuring = sys, context.Background(), false
	if err := pl.populate(p.r); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p.setup = append(p.setup, time.Since(t0).Seconds())

	var stopEvents func() (int, int)
	if tr != nil {
		stopEvents = countEvents(sys)
	}
	runtime.GC()
	c0 := read(sys, journal)
	stopTracing := func() {}
	if tr != nil {
		if stopTracing, err = tr.start(); err != nil {
			stopEvents()
			return err
		}
	}
	ctx, task := trace.NewTask(context.Background(), "measure."+w.name)
	p.r.ctx, p.r.measuring = ctx, true
	obs := startObserver(ctx, sys)
	t1 := time.Now()
	p.aborted = pl.measure(p.r)
	p.elapsed += time.Since(t1).Seconds()
	obs.halt()
	task.End()
	stopTracing()
	p.r.measuring = false
	c1 := read(sys, journal)
	p.d.add(c0, c1)
	p.observe = append(p.observe, obs.lat...)
	p.peakHeap = max(p.peakHeap, obs.peak)
	if stopEvents != nil {
		clbs, rolls := stopEvents()
		p.events.clbRelocated += clbs
		p.events.rollbacks += rolls
		if want := c1.st.CLBsRelocated - c0.st.CLBsRelocated; clbs != want {
			p.checkErr = append(p.checkErr, fmt.Errorf(
				"event stream: %d clb-relocated events for %d relocated CLBs (events dropped)", clbs, want))
		}
	}
	p.checkErr = append(p.checkErr, runChecks(sys, w, seed, journal)...)
	return nil
}

// countEvents subscribes to the event stream for the measured phase; the
// returned function unsubscribes, waits for the counter to drain and returns
// the CLBRelocated events and the rollbacks (Recovered events with an Err).
func countEvents(sys *rlm.System) func() (clbRelocated, rollbacks int) {
	// Sized to hold every event of a measured phase, so the check that no
	// event was dropped tests the facade, not this reader's scheduling.
	ch, cancel := sys.Subscribe(1 << 16)
	done := make(chan struct{})
	var clbs, rolls int
	go func() {
		defer close(done)
		for e := range ch {
			switch {
			case e.Kind == rlm.CLBRelocated:
				clbs++
			case e.Kind == rlm.Recovered && e.Err != nil:
				rolls++
			}
		}
	}()
	return func() (int, int) {
		cancel()
		<-done
		return clbs, rolls
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// correct reports whether the pass ran its whole op stream and passed every
// output check.
func (p *pass) correct() bool { return p.aborted == nil && len(p.checkErr) == 0 }

// endToEnd computes the end-to-end metrics.
func (p *pass) endToEnd() map[string]metric {
	lat, failed, _ := p.r.mutating()
	n := float64(len(lat))
	return map[string]metric{
		"op_p50_ms":        {quantile(lat, 0.50), "ms"},
		"op_p95_ms":        {quantile(lat, 0.95), "ms"},
		"ops_per_s":        {n / p.elapsed, "1/s"},
		"op_success_ratio": {1 - float64(failed)/n, "ratio"},
		"observe_p50_ms":   {quantile(p.observe, 0.50), "ms"},
		"sim_config_s":     {p.d.portS, "s"},
		"sim_ms_per_clb":   {p.simMsPerCLB(), "ms"},
		"alloc_kb_per_op":  {float64(p.d.alloc) / 1024 / n, "KiB"},
		"peak_heap_mb":     {float64(p.peakHeap) / (1 << 20), "MiB"},
		"setup_s":          {median(p.setup), "s"},
	}
}

// simMsPerCLB is the simulated port time spent in relocating ops per booked
// CLB they moved (the paper's Tab. 2 unit; the relocate workload's designs
// occupy their whole region).
func (p *pass) simMsPerCLB() float64 {
	if p.r.relocCLBs == 0 {
		return 0
	}
	return 1000 * p.r.relocPortS / float64(p.r.relocCLBs)
}

// counts returns the result line's op counts: ops attempted and ops that
// failed unexpectedly.
func (p *pass) counts() (attempted, unexpected int) {
	lat, _, unexpected := p.r.mutating()
	return len(lat), unexpected
}

func runUntraced(out io.Writer, w *scenario, seed uint64, seconds int, dir string) (*result, error) {
	p, err := runPass(out, w, seed, seconds, dir, nil)
	if err != nil {
		return nil, err
	}
	attempted, unexpected := p.counts()
	fmt.Fprintf(out, "  %d ops in %.2f s over %d episodes, %d observer samples, %d unexpected errors\n",
		attempted, p.elapsed, len(p.setup), len(p.observe), unexpected)
	if w.name == "relocate" {
		printPaperReference(out, p.simMsPerCLB())
	}
	return &result{Correct: p.correct(), Attempted: attempted, Failed: unexpected, Metrics: p.endToEnd()}, nil
}

// paperMsPerCLB is the paper's measured relocation time of one CLB over
// Boundary-Scan.
const paperMsPerCLB = 22.6

func printPaperReference(out io.Writer, simMsPerCLB float64) {
	fmt.Fprintf(out, "  paper reference: %.1f ms/CLB measured on hardware; this model: %.3f ms/CLB simulated.\n",
		paperMsPerCLB, simMsPerCLB)
	fmt.Fprintln(out, "  (the port model is not validated against hardware, and the circuits differ:")
	fmt.Fprintln(out, "  generated 4x4-CLB designs here, the ITC'99 set in the paper; nothing is gated on this line)")
}

// quantile returns the q-quantile of xs by linear interpolation (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
