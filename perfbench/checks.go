package main

import (
	"fmt"
	"slices"
	"strings"

	rlm "repro"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// lockStepCycles is how many application cycles every resident design runs
// against its golden model after the measured phase.
const lockStepCycles = 300

// runChecks verifies the system's outputs after the measured phase: the
// resident designs compute what their netlists say, the occupancy map agrees
// with the design book-keeping, and a journaled system recovers to the same
// designs and regions. It returns every failure.
func runChecks(sys *rlm.System, w *scenario, seed uint64, journal string) []error {
	var errs []error
	if err := checkLockStep(sys, seed); err != nil {
		errs = append(errs, err)
	}
	if err := checkMap(sys); err != nil {
		errs = append(errs, err)
	}
	if w.journaled {
		if err := checkRecover(sys, journal); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// checkLockStep clocks every resident design with seeded random inputs and
// compares outputs and stored state with the golden netlist models.
func checkLockStep(sys *rlm.System, seed uint64) error {
	g := sim.NewGroup(sys.Device())
	for _, name := range sys.Designs() {
		d, ok := sys.Design(name)
		if !ok {
			return fmt.Errorf("lock-step: %s listed but not resident", name)
		}
		if _, err := g.Add(d); err != nil {
			return fmt.Errorf("lock-step: %s: %w", name, err)
		}
	}
	if len(g.Members) == 0 {
		return fmt.Errorf("lock-step: no resident designs to check")
	}
	rng := &splitmix{s: seed ^ 0x10C5}
	inputs := make([][]bool, len(g.Members))
	for c := 0; c < lockStepCycles; c++ {
		for i, m := range g.Members {
			in := make([]bool, len(m.Design.NL.Inputs()))
			for k := range in {
				in[k] = rng.next()&1 == 1
			}
			inputs[i] = in
		}
		if err := g.Step(inputs); err != nil {
			return fmt.Errorf("lock-step cycle %d: %w", c, err)
		}
	}
	if err := g.CheckState(); err != nil {
		return fmt.Errorf("lock-step: %w", err)
	}
	return nil
}

// checkMap compares the rendered occupancy grid with Designs()/Region():
// each design's region is covered by one letter of its own, and nothing
// outside the regions is occupied.
func checkMap(sys *rlm.System) error {
	grid := strings.Split(strings.TrimRight(sys.Map(), "\n"), "\n")
	at := func(c fabric.Coord) byte {
		if c.Row >= len(grid) || c.Col >= len(grid[c.Row]) {
			return 0
		}
		return grid[c.Row][c.Col]
	}
	owned := 0
	var letters []byte
	for _, name := range sys.Designs() {
		region, ok := sys.Region(name)
		if !ok {
			return fmt.Errorf("map: %s listed but has no region", name)
		}
		letter := at(fabric.Coord{Row: region.Row, Col: region.Col})
		if letter == '.' || letter == 'x' || letter == 0 || slices.Contains(letters, letter) {
			return fmt.Errorf("map: %s at %v is not marked as its own allocation (%q)", name, region, letter)
		}
		letters = append(letters, letter)
		for _, c := range region.Coords() {
			if at(c) != letter {
				return fmt.Errorf("map: %s at %v: CLB %v reads %q, want %q", name, region, c, at(c), letter)
			}
		}
		owned += region.Area()
	}
	occupied := 0
	for _, row := range grid {
		for i := 0; i < len(row); i++ {
			if row[i] != '.' && row[i] != 'x' {
				occupied++
			}
		}
	}
	if occupied != owned {
		return fmt.Errorf("map: %d CLBs occupied, designs own %d", occupied, owned)
	}
	return nil
}

// checkRecover closes the system and rebuilds it from its journal onto the
// same device; the recovered designs and regions must equal the live ones.
func checkRecover(sys *rlm.System, journal string) error {
	live := map[string]fabric.Rect{}
	for _, name := range sys.Designs() {
		live[name], _ = sys.Region(name)
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("recover: closing: %w", err)
	}
	rec, _, err := rlm.Recover(sys.Device(), journal)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	names := rec.Designs()
	if len(names) != len(live) {
		return fmt.Errorf("recover: %d designs recovered, %d live", len(names), len(live))
	}
	for _, name := range names {
		got, _ := rec.Region(name)
		if want, ok := live[name]; !ok || got != want {
			return fmt.Errorf("recover: %s at %v, live at %v", name, got, want)
		}
	}
	return nil
}
