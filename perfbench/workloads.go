package main

import (
	"errors"
	"fmt"

	rlm "repro"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/template"
	"repro/internal/workload"
)

// scenario is one named workload. Its inputs are a pure function of the
// seed and the nominal run length, so two runs with the same arguments issue
// the same op stream and report identical simulated-clock metrics.
type scenario struct {
	name string
	why  string
	// options configures the system under test; journal is a fresh file path
	// the workload may journal to.
	options func(journal string) []rlm.Option
	// plan generates the inputs, sized so their measured op stream takes
	// about `seconds` on a 2-core x86-64 host.
	plan func(seed uint64, seconds float64) plan
	// mayFail names the ops whose physical failure (a placement or plan that
	// does not route, rolled back by the facade) the workload provokes on
	// purpose; any other error is unexpected.
	mayFail map[string]bool
	// journaled workloads are also checked by recovering from the journal.
	journaled bool
}

// plan is one generated input set plus its progress through the op stream.
type plan interface {
	// populate brings a fresh system to the measured phase's start state and
	// rewinds the plan to the start of its op stream.
	populate(r *runner) error
	// measure issues the measured op stream.
	measure(r *runner) error
}

var workloads = []*scenario{
	{
		name: "churn",
		why:  "on-line arrivals on a full XCV50: cold place-and-route, planner-driven relocation, physical load failures",
		options: func(string) []rlm.Option {
			return []rlm.Option{
				rlm.WithDevice(fabric.XCV50),
				rlm.WithPort(rlm.SelectMAP), rlm.WithPortWidth(32), rlm.WithCompression(),
				rlm.WithTemplateCache(&template.Policy{}),
			}
		},
		plan:    newChurn,
		mayFail: map[string]bool{"load": true, "reserve": true},
	},
	{
		name:    "relocate",
		why:     "live 4x4 designs moved back and forth over bit-level Boundary-Scan: the paper's headline operation",
		options: func(string) []rlm.Option { return relocateOptions() },
		plan:    newRelocate,
	},
	{
		name: "compact",
		why:  "journaled swap-and-compact of a repeating pool: warm template loads, translation, delta encoding, fsync",
		options: func(journal string) []rlm.Option {
			return []rlm.Option{
				rlm.WithDevice(fabric.XCV50),
				rlm.WithPort(rlm.BoundaryScan), rlm.WithCompression(),
				rlm.WithTemplateCache(&template.Policy{}),
				rlm.WithJournal(journal),
			}
		},
		plan:      newCompact,
		journaled: true,
	},
}

func workloadByName(name string) *scenario {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix is the benchmark's own seeded generator for layout choices.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// count sizes an op stream: rate per nominal second times seconds, at least 1.
func count(rate int, seconds float64) int {
	return max(1, int(float64(rate)*seconds+0.5))
}

// --- churn -----------------------------------------------------------------

// Churn sizing: tasks per nominal second, tasks admitted during set-up
// (enough to fill the device), and how many departures a refused arrival
// may force before it is dropped.
const (
	churnTasksPerSecond = 15
	churnWarmTasks      = 16
	churnMaxEvictions   = 3
)

// churnPlan replays an on-line task stream on a device kept full: each
// arrival reserves room with a targeted Defragment and loads into the freed
// region. When the reservation is refused, or the load fails physically, the
// oldest resident task departs and the arrival retries; it is dropped after
// churnMaxEvictions departures, or at once when every plan that would free
// room fails to route. Departures forced by arrivals, rather than drawn
// service times, keep the device full.
type churnPlan struct {
	tasks []workload.Task
	nls   []*netlist.Netlist

	next     int   // next arrival
	resident []int // admitted tasks, oldest first
}

func newChurn(seed uint64, seconds float64) plan {
	tasks := workload.Stream(workload.Config{
		Seed:          seed,
		N:             churnWarmTasks + count(churnTasksPerSecond, seconds),
		MinSide:       3,
		MaxSide:       9,
		Dist:          workload.Bimodal,
		GatedFraction: 0.25,
		MinIO:         2,
		MaxIO:         2,
	})
	p := &churnPlan{tasks: tasks}
	for _, t := range tasks {
		name := fmt.Sprintf("t%04d", t.ID)
		p.nls = append(p.nls, itc99.Generate(t.GenConfig(name, t.H*t.W*fabric.CellsPerCLB)))
	}
	return p
}

func (p *churnPlan) populate(r *runner) error {
	p.next, p.resident = 0, nil
	return p.runUntil(r, churnWarmTasks)
}

func (p *churnPlan) measure(r *runner) error { return p.runUntil(r, len(p.tasks)) }

// runUntil admits arrivals up to `end`. Tasks still resident afterwards stay
// loaded for the output checks.
func (p *churnPlan) runUntil(r *runner, end int) error {
	for ; p.next < end; p.next++ {
		t, nl := p.tasks[p.next], p.nls[p.next]
		for evicted := 0; ; evicted++ {
			rep, err := r.reserve(t.H, t.W)
			if err == nil {
				err = r.load(nl, rep.Freed)
			}
			if err == nil {
				p.resident = append(p.resident, p.next)
				break
			}
			if rep == nil && !errors.Is(err, rlm.ErrNoSpace) {
				break // departures would not make the plans route
			}
			if evicted == churnMaxEvictions || len(p.resident) == 0 {
				break
			}
			if err := r.unload(p.nls[p.resident[0]].Name); err != nil {
				return err
			}
			p.resident = p.resident[1:]
		}
	}
	return nil
}

// --- relocate --------------------------------------------------------------

// relocateMovesPerSecond sizes the run: one Move of a 4x4 design over
// bit-level Boundary-Scan takes about 130 ms of host time.
const relocateMovesPerSecond = 8

// relocatePlan moves four live 4x4 designs, two gated-clock and two
// free-running, between a home and an away region set on XCV200. The sets
// are disjoint and clear of the west-edge pad corridor.
type relocatePlan struct {
	nls        [4]*netlist.Netlist
	home, away [4]fabric.Rect
	moves      int
}

func relocateOptions() []rlm.Option {
	return []rlm.Option{rlm.WithDevice(fabric.XCV200), rlm.WithPort(rlm.BoundaryScan)}
}

// relocateRedraws bounds how often newRelocate redraws a circuit.
const relocateRedraws = 32

// newRelocate draws the four circuits from the seed and screens them: one
// away-and-back cycle runs on a scratch system, and a design whose Move does
// not route is redrawn. Moves out of boxed-in pad corridors are a known
// fabric-model limitation (the churn workload is where it shows); this
// workload measures relocations that succeed.
func newRelocate(seed uint64, seconds float64) plan {
	p := &relocatePlan{moves: count(relocateMovesPerSecond, seconds)}
	rng := &splitmix{s: seed}
	draw := func(i int) *netlist.Netlist {
		style := itc99.FreeRunning
		if i%2 == 0 {
			style = itc99.GatedClock
		}
		cfg := itc99.GenConfig{
			Name: fmt.Sprintf("r%d", i), Inputs: 2, Outputs: 2,
			Seed: rng.next(), Style: style, CEFraction: 0.75,
		}
		return itc99.Generate(cfg.SizedTo(16*fabric.CellsPerCLB, 0.35))
	}
	for i := range p.nls {
		p.nls[i] = draw(i)
		row, col := 4+12*(i/2), 8+8*(i%2)
		p.home[i] = fabric.Rect{Row: row, Col: col, H: 4, W: 4}
		p.away[i] = fabric.Rect{Row: row, Col: col + 16, H: 4, W: 4}
	}
	for n := 0; n < relocateRedraws; n++ {
		bad := p.screen()
		if bad < 0 {
			break
		}
		p.nls[bad] = draw(bad)
	}
	return p
}

// screen runs one away-and-back cycle on a scratch system and returns the
// design whose load or move failed first, or -1.
func (p *relocatePlan) screen() int {
	sys, err := rlm.New(relocateOptions()...)
	if err != nil {
		return -1 // the measured run reports it
	}
	defer sys.Close()
	for i, nl := range p.nls {
		if _, err := sys.Load(nl, p.home[i]); err != nil {
			return i
		}
	}
	for _, set := range [][4]fabric.Rect{p.away, p.home} {
		for i, nl := range p.nls {
			if err := sys.Move(nl.Name, set[i]); err != nil {
				return i
			}
		}
	}
	return -1
}

func (p *relocatePlan) populate(r *runner) error {
	for i, nl := range p.nls {
		if err := r.load(nl, p.home[i]); err != nil {
			return err
		}
	}
	return nil
}

func (p *relocatePlan) measure(r *runner) error {
	for m := 0; m < p.moves; m++ {
		i := m % len(p.nls)
		to := p.away[i]
		if m/len(p.nls)%2 == 1 {
			to = p.home[i]
		}
		if err := r.move(p.nls[i].Name, to); err != nil {
			return err
		}
	}
	return nil
}

// --- compact ---------------------------------------------------------------

// compactRoundsPerSecond sizes the run: one swap-and-compact round takes
// about a third of a second.
const compactRoundsPerSecond = 3

// compactShapes are the region shapes of the six pool circuits and, last,
// of the fresh circuit each round adds; the seed draws their logic and every
// round's layout.
var compactShapes = []fabric.Rect{{H: 3, W: 3}, {H: 3, W: 4}, {H: 4, W: 3}, {H: 4, W: 4}, {H: 3, W: 5}, {H: 5, W: 3}, {H: 3, W: 3}}

// compactPlan loads a pool of circuits into scattered slots, unloads half,
// compacts the device, and unloads the rest, round after round. The pool
// repeats, so after set-up its loads are template-cache hits; each round
// also loads one circuit never seen before, which takes the cold
// place-and-route path.
type compactPlan struct {
	pool   []*netlist.Netlist // pool circuits, then one fresh circuit per round
	seed   uint64
	rng    splitmix // layout choices
	rounds int
}

func newCompact(seed uint64, seconds float64) plan {
	p := &compactPlan{seed: seed, rounds: count(compactRoundsPerSecond, seconds)}
	rng := &splitmix{s: seed}
	pool := len(compactShapes) - 1
	for i := 0; i < pool+p.rounds; i++ {
		s := compactShapes[min(i, pool)]
		style := itc99.FreeRunning
		if i%3 == 0 {
			style = itc99.GatedClock
		}
		cfg := itc99.GenConfig{
			Name: fmt.Sprintf("c%d", i), Inputs: 2, Outputs: 2,
			Seed: rng.next(), Style: style, CEFraction: 0.75,
		}
		p.pool = append(p.pool, itc99.Generate(cfg.SizedTo(s.Area()*fabric.CellsPerCLB, 0.35)))
	}
	return p
}

// round returns round k's circuits: the pool plus that round's fresh one.
func (p *compactPlan) round(k int) []*netlist.Netlist {
	pool := len(compactShapes) - 1
	return append(p.pool[:pool:pool], p.pool[pool+k])
}

// scatter draws a layout of non-overlapping slots, one per shape, kept one
// CLB apart and off the west-edge pad column.
func (p *compactPlan) scatter() []fabric.Rect {
	dev := fabric.XCV50
	for {
		var out []fabric.Rect
		for _, s := range compactShapes {
			for try := 0; try < 200; try++ {
				c := fabric.Rect{
					Row: p.rng.intn(dev.Rows - s.H + 1), Col: 1 + p.rng.intn(dev.Cols-s.W),
					H: s.H, W: s.W,
				}
				if !overlapsAny(c, out) {
					out = append(out, c)
					break
				}
			}
		}
		if len(out) == len(compactShapes) {
			return out
		}
	}
}

func overlapsAny(c fabric.Rect, rs []fabric.Rect) bool {
	for _, o := range rs {
		if c.Row-1 < o.Row+o.H && o.Row-1 < c.Row+c.H && c.Col-1 < o.Col+o.W && o.Col-1 < c.Col+c.W {
			return true
		}
	}
	return false
}

// populate warms the template cache: every pool circuit is placed and routed
// cold once, then unloaded.
func (p *compactPlan) populate(r *runner) error {
	p.rng = splitmix{s: p.seed ^ 0xC0FFEE}
	pool := p.pool[:len(compactShapes)-1]
	for i, at := range p.scatter()[:len(pool)] {
		if err := r.load(pool[i], at); err != nil {
			return err
		}
	}
	for _, nl := range pool {
		if err := r.unload(nl.Name); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the rounds. The last round stops after its compaction, so
// the output checks see resident designs.
func (p *compactPlan) measure(r *runner) error {
	for k := 0; k < p.rounds; k++ {
		nls := p.round(k)
		for i, at := range p.scatter() {
			if err := r.load(nls[i], at); err != nil {
				return err
			}
		}
		for i := len(nls) - 1; i > 0; i-- {
			j := p.rng.intn(i + 1)
			nls[i], nls[j] = nls[j], nls[i]
		}
		half := len(nls) / 2
		for _, nl := range nls[:half] {
			if err := r.unload(nl.Name); err != nil {
				return err
			}
		}
		if _, err := r.compact(); err != nil {
			return err
		}
		if k == p.rounds-1 {
			break
		}
		for _, nl := range nls[half:] {
			if err := r.unload(nl.Name); err != nil {
				return err
			}
		}
	}
	return nil
}
