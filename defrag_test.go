package rlm

import (
	"errors"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// defragHarness loads designs in the XCV50's corners with a lock-step
// verification group, exactly the paper's §1 scenario.
type defragHarness struct {
	sys   *System
	group *sim.Group
	rng   uint64
}

func newDefragHarness(t *testing.T) *defragHarness {
	t.Helper()
	sys, err := New(WithDevice(fabric.XCV50), WithPort(BoundaryScan))
	if err != nil {
		t.Fatal(err)
	}
	h := &defragHarness{sys: sys, group: sim.NewGroup(sys.Device()), rng: 77}
	sys.Engine().Clock = h.step
	return h
}

func (h *defragHarness) load(t *testing.T, name string, region fabric.Rect, gen bool) {
	t.Helper()
	var nl *netlist.Netlist
	var err error
	if gen {
		nl = itc99.Generate(itc99.GenConfig{
			Name: name, Inputs: 3, Outputs: 2, FFs: 8, LUTs: 16,
			Seed: 99, Style: itc99.FreeRunning,
		})
	} else {
		nl, err = itc99.Get(name)
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := h.sys.Load(nl, region)
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	if _, err := h.group.Add(d); err != nil {
		t.Fatal(err)
	}
}

func (h *defragHarness) retire(t *testing.T, name string) {
	t.Helper()
	var kept []*sim.Member
	for _, m := range h.group.Members {
		if m.Design.Name != name {
			kept = append(kept, m)
		}
	}
	h.group.Members = kept
	if err := h.sys.Unload(name); err != nil {
		t.Fatal(err)
	}
}

func (h *defragHarness) step(cycles int) error {
	for i := 0; i < cycles; i++ {
		inputs := make([][]bool, len(h.group.Members))
		for k, m := range h.group.Members {
			in := make([]bool, len(m.Design.NL.Inputs()))
			for j := range in {
				h.rng = h.rng*6364136223846793005 + 1442695040888963407
				in[j] = h.rng>>40&1 == 1
			}
			inputs[k] = in
		}
		if err := h.group.Step(inputs); err != nil {
			return err
		}
	}
	return nil
}

// TestDefragmentEndToEnd is the acceptance scenario: several designs are
// loaded and run, some retire, free space is fragmented; one Defragment
// call relocates survivors on the live fabric so a previously unplaceable
// region fits — and every surviving design's simulated outputs stay
// golden-exact across the rearrangement (the paper's transparency claim).
func TestDefragmentEndToEnd(t *testing.T) {
	h := newDefragHarness(t)
	h.load(t, "b01", fabric.Rect{Row: 0, Col: 0, H: 5, W: 5}, false)
	h.load(t, "b02", fabric.Rect{Row: 0, Col: 19, H: 5, W: 5}, false)
	h.load(t, "b06", fabric.Rect{Row: 11, Col: 0, H: 5, W: 5}, false)
	h.load(t, "dsp", fabric.Rect{Row: 11, Col: 19, H: 5, W: 5}, true)
	if err := h.step(10); err != nil {
		t.Fatal(err)
	}
	h.retire(t, "b02")
	h.retire(t, "b06")

	const needH, needW = 11, 20
	if _, ok := h.sys.Area().FindPlacement(needH, needW, 0); ok {
		t.Fatal("scenario broken: the region already fits")
	}
	rep, err := h.sys.Defragment(DefragPolicy{NeedH: needH, NeedW: needW})
	if err != nil {
		t.Fatalf("defragment: %v", err)
	}
	// (a) the previously unplaceable region now fits.
	if _, ok := h.sys.Area().FindPlacement(needH, needW, 0); !ok {
		t.Fatal("defragmentation did not open the region")
	}
	// (b) surviving designs run on, outputs golden-exact, state intact.
	if err := h.step(30); err != nil {
		t.Fatalf("designs disturbed by defragmentation: %v", err)
	}
	if err := h.group.CheckState(); err != nil {
		t.Fatalf("state corrupted: %v", err)
	}
	if len(rep.Moves) == 0 || rep.CellsRelocated == 0 {
		t.Errorf("no real relocation happened: %+v", rep)
	}
	if rep.FragAfter >= rep.FragBefore {
		t.Errorf("fragmentation %f -> %f", rep.FragBefore, rep.FragAfter)
	}
}

// TestDefragmentCompaction exercises the full-compaction policy (no target
// region): scattered designs slide west/north while running.
func TestDefragmentCompaction(t *testing.T) {
	h := newDefragHarness(t)
	h.load(t, "gen1", fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}, true)
	h.load(t, "gen2", fabric.Rect{Row: 8, Col: 6, H: 4, W: 4}, true)
	if err := h.step(10); err != nil {
		t.Fatal(err)
	}
	fragBefore := h.sys.Fragmentation()
	rep, err := h.sys.Defragment(DefragPolicy{})
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}
	if len(rep.Moves) == 0 {
		t.Fatalf("nothing moved: %+v", rep)
	}
	if rep.FragAfter > fragBefore {
		t.Errorf("fragmentation grew: %f -> %f", fragBefore, rep.FragAfter)
	}
	if err := h.step(20); err != nil {
		t.Fatalf("designs disturbed by compaction: %v", err)
	}
	if err := h.group.CheckState(); err != nil {
		t.Fatal(err)
	}
	// The compacted layout packs toward the origin.
	r1, _ := h.sys.Region("gen1")
	r2, _ := h.sys.Region("gen2")
	if r1.Col+r1.Row >= 2+6 && r2.Col+r2.Row >= 8+6 {
		t.Errorf("no design moved toward the origin: gen1=%v gen2=%v", r1, r2)
	}
}

func TestDefragmentNoSpaceSentinel(t *testing.T) {
	h := newDefragHarness(t)
	h.load(t, "b01", fabric.Rect{Row: 0, Col: 0, H: 5, W: 5}, false)
	_, err := h.sys.Defragment(DefragPolicy{NeedH: 100, NeedW: 100})
	if !errors.Is(err, ErrNoSpace) {
		t.Errorf("want ErrNoSpace, got %v", err)
	}
}

// TestFailedMoveKeepsLiveState is the lock-step gate of route-before-
// streaming. gen1's Move into the NW corner cannot route its pad-entry
// nets; the rehearsal finds that before a frame streams, so the failed Move
// relocates no CLB, ships no configuration word and loses no live state:
// the designs stay golden-exact while the clock runs on, and a later Move
// still carries gen1's state.
func TestFailedMoveKeepsLiveState(t *testing.T) {
	h := newDefragHarness(t)
	h.load(t, "gen1", fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}, true)
	h.load(t, "gen2", fabric.Rect{Row: 8, Col: 6, H: 4, W: 4}, true)
	if err := h.step(10); err != nil {
		t.Fatal(err)
	}
	if err := h.sys.Move("gen1", fabric.Rect{Row: 2, Col: 0, H: 4, W: 4}); err != nil {
		t.Fatalf("move gen1 -> R2C0: %v", err)
	}
	st, tr := h.sys.Stats(), h.sys.Traffic()
	if st.CLBsRelocated != 16 {
		t.Fatalf("scenario broken: %d CLBs relocated by the first move, want 16", st.CLBsRelocated)
	}
	if err := h.sys.Move("gen1", fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err == nil {
		t.Fatal("scenario broken: the move into the NW corner routed")
	}
	if got := h.sys.Stats().CLBsRelocated; got != st.CLBsRelocated {
		t.Errorf("the failed move relocated %d CLBs before failing", got-st.CLBsRelocated)
	}
	if got := h.sys.Traffic(); got != tr {
		t.Errorf("the failed move shipped configuration: traffic %+v -> %+v", tr, got)
	}
	if err := h.step(5); err != nil {
		t.Fatalf("live state lost by the failed move: %v", err)
	}
	if err := h.sys.Move("gen1", fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}); err != nil {
		t.Fatalf("move gen1 back -> R2C6: %v", err)
	}
	if err := h.step(5); err != nil {
		t.Fatalf("designs disturbed by the later move: %v", err)
	}
	if err := h.group.CheckState(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionDoomedSlidesShipNothing: of this pass's three slides only
// gen1's first routes; gen2's and gen1's second fail on pad-entry nets. A
// doomed slide fails in its rehearsal, so it streams no foreground word,
// relocates no cell and needs no recovery stream: the pass ships exactly
// what the one good slide ships as a plain Move.
func TestCompactionDoomedSlidesShipNothing(t *testing.T) {
	h := newDefragHarness(t)
	h.load(t, "gen1", fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}, true)
	h.load(t, "gen2", fabric.Rect{Row: 8, Col: 6, H: 4, W: 4}, true)
	if err := h.step(10); err != nil {
		t.Fatal(err)
	}
	st0, c0 := h.sys.Stats(), h.sys.port.Counters()
	rep, err := h.sys.Defragment(DefragPolicy{})
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}
	to := fabric.Rect{Row: 2, Col: 0, H: 4, W: 4}
	if len(rep.Moves) != 1 || rep.Moves[0].To != to || rep.Attempts != 3 {
		t.Fatalf("scenario broken: want gen1's slide to %v and two failed slides, got %+v", to, rep)
	}
	st1, c1 := h.sys.Stats(), h.sys.port.Counters()
	if got := st1.CLBsRelocated - st0.CLBsRelocated; got != 16 {
		t.Errorf("the pass relocated %d CLBs, want the good slide's 16", got)
	}
	if got := st1.CellsRelocated - st0.CellsRelocated; got != rep.CellsRelocated {
		t.Errorf("the pass relocated %d cells, its report %d", got, rep.CellsRelocated)
	}
	if rec := c1[bitstream.Recovery].Traffic.WordsShifted - c0[bitstream.Recovery].Traffic.WordsShifted; rec != 0 {
		t.Errorf("the doomed slides needed %d recovery words", rec)
	}
	if err := h.step(10); err != nil {
		t.Fatalf("designs disturbed by the pass: %v", err)
	}
	if err := h.group.CheckState(); err != nil {
		t.Fatal(err)
	}

	// The good slide alone, as a Move on a fresh twin of the set-up.
	m := newDefragHarness(t)
	m.load(t, "gen1", fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}, true)
	m.load(t, "gen2", fabric.Rect{Row: 8, Col: 6, H: 4, W: 4}, true)
	if err := m.step(10); err != nil {
		t.Fatal(err)
	}
	if err := m.sys.Move("gen1", to); err != nil {
		t.Fatal(err)
	}
	if got, want := h.sys.Traffic(), m.sys.Traffic(); got != want {
		t.Errorf("the pass shipped %+v, the good slide alone %+v", got, want)
	}
}
