package relocate

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/place"
)

// TestViewMatchesRescanUnderRandomOps is the O(change) contract's property
// test: after ANY sequence of loads (designer-path writes), relocations,
// tree releases, cell/pad clears, raw PIP pokes and snapshot rollbacks, the
// incrementally maintained view must be bit-identical to a fresh rescan of
// the configuration memory.
func TestViewMatchesRescanUnderRandomOps(t *testing.T) { viewMatchesRescanUnderRandomOps(t, 0) }

// TestViewRAMCountsMatchRescanUnderRandomOps runs the same random operations
// with a LUT/RAM in every load, so the per-column RAM counts move under
// loads, clears and rollbacks. With RAM in most columns almost every
// relocation stops at the RAM-column check, which is why the test above
// loads none.
func TestViewRAMCountsMatchRescanUnderRandomOps(t *testing.T) { viewMatchesRescanUnderRandomOps(t, 1) }

func viewMatchesRescanUnderRandomOps(t *testing.T, rams int) {
	dev := fabric.NewDevice(fabric.TestDevice)
	ctrl := bitstream.NewController(dev)
	port := bitstream.NewSelectMAP(ctrl, 50e6, 8)
	eng, err := NewEngine(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	eng.MaxCyclesPerWait = 0
	rng := rand.New(rand.NewSource(20260726))

	reserved := map[fabric.PadRef]bool{}
	var cells []fabric.CellRef  // cells believed occupied (may go stale)
	var sources []fabric.NodeID // net sources of loaded designs
	var pads []fabric.PadRef    // pads bound by loaded designs

	sawRAM := false
	check := func(ctx string) {
		t.Helper()
		eng.view.refresh()
		fresh := newView(dev)
		sawRAM = sawRAM || len(fresh.ramCells) > 0
		if !maps.Equal(eng.view.used, fresh.used) {
			for n := range fresh.used {
				if !eng.view.used[n] {
					t.Errorf("%s: node %d used on device, missing from view", ctx, n)
				}
			}
			for n := range eng.view.used {
				if !fresh.used[n] {
					t.Errorf("%s: node %d in view, free on device", ctx, n)
				}
			}
			t.Fatalf("%s: used sets diverged (view %d, rescan %d)", ctx, len(eng.view.used), len(fresh.used))
		}
		if !maps.Equal(eng.view.inUse, fresh.inUse) {
			t.Fatalf("%s: inUse sets diverged (view %d, rescan %d)", ctx, len(eng.view.inUse), len(fresh.inUse))
		}
		if !maps.Equal(eng.view.freeCLB, fresh.freeCLB) {
			t.Fatalf("%s: freeCLB sets diverged (view %d, rescan %d)", ctx, len(eng.view.freeCLB), len(fresh.freeCLB))
		}
		if !maps.Equal(eng.view.ramCells, fresh.ramCells) || !slices.Equal(eng.view.ramPerCol, fresh.ramPerCol) {
			t.Fatalf("%s: RAM counts diverged (view %v, rescan %v)", ctx, eng.view.ramPerCol, fresh.ramPerCol)
		}
	}

	load := func(i int) {
		nl := itc99.Generate(itc99.GenConfig{
			Name: "rnd", Inputs: 2, Outputs: 1, FFs: 2, LUTs: 3,
			RAMs: rams,
			Seed: uint64(i + 1), Style: itc99.FreeRunning,
		})
		row, col := rng.Intn(dev.Rows-3), rng.Intn(dev.Cols-3)
		region, err := place.AutoRegion(dev, nl, row, col, 0.35)
		if err != nil {
			return
		}
		d, err := place.Place(dev, nl, place.Options{Region: region, ReservePads: reserved})
		if err != nil {
			return
		}
		cells = append(cells, d.OccupiedCells()...)
		for _, src := range d.SourceOf {
			sources = append(sources, src)
		}
		for _, p := range d.PadOf {
			pads = append(pads, p)
		}
		// Half the loads reconcile through the tool (the facade's path, the
		// Synced delta); the other half leave the designer writes for the
		// view's own FramesChangedSince fallback to discover.
		if rng.Intn(2) == 0 {
			if err := eng.Tool.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}

	op := func(i int) string {
		switch k := rng.Intn(11); k {
		case 0, 1:
			load(i)
			return "load"
		case 2, 3, 4:
			if len(cells) == 0 {
				return "noop"
			}
			ci := rng.Intn(len(cells))
			from := cells[ci]
			near := fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)}
			dst, err := eng.view.findFreeCLB(near, from.Coord)
			if err != nil {
				return "relocate-nofree"
			}
			to := fabric.CellRef{Coord: dst, Cell: from.Cell}
			if _, err := eng.RelocateCell(from, to); err == nil {
				cells[ci] = to
			}
			return "relocate"
		case 5:
			if len(sources) == 0 {
				return "noop"
			}
			_ = eng.ReleaseTree(sources[rng.Intn(len(sources))])
			return "release-tree"
		case 6:
			if len(cells) == 0 {
				return "noop"
			}
			ci := rng.Intn(len(cells))
			if err := eng.ClearCell(cells[ci]); err != nil {
				t.Fatal(err)
			}
			cells = append(cells[:ci], cells[ci+1:]...)
			return "clear-cell"
		case 7:
			if len(pads) == 0 {
				return "noop"
			}
			pi := rng.Intn(len(pads))
			if err := eng.ClearPad(pads[pi]); err != nil {
				t.Fatal(err)
			}
			delete(reserved, pads[pi])
			pads = append(pads[:pi], pads[pi+1:]...)
			return "clear-pad"
		case 8:
			// Reroute a random routed pin (duplicate-then-drop, Fig. 5).
			if len(cells) == 0 {
				return "noop"
			}
			ref := cells[rng.Intn(len(cells))]
			for k := 0; k < fabric.LUTInputs; k++ {
				l := fabric.LocalPinI(ref.Cell, k)
				if dev.PIPMask(ref.Coord, l) != 0 {
					_, _ = eng.RerouteSink(ref.Coord, l)
					return "reroute"
				}
			}
			return "noop"
		case 9:
			// Raw designer-path poke: toggle one valid PIP bit directly on
			// the device, bypassing the tool entirely.
			c := fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)}
			local := rng.Intn(fabric.LocalHex(3, fabric.HexesPerDir-1) + 1)
			if !fabric.IsLocalSink(local) {
				return "noop"
			}
			mask := dev.PIPMask(c, local)
			bit := rng.Intn(len(fabric.SinkSources(local)))
			dev.SetPIPMask(c, local, mask^(1<<bit))
			return "raw-pip"
		default:
			// Snapshot a few ops, roll them back through the recovery
			// stream, and verify the view is restored from the dirty set.
			snap, err := eng.Tool.BeginSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			for n := rng.Intn(3); n >= 0; n-- {
				if len(cells) > 0 {
					_ = eng.ClearCell(cells[rng.Intn(len(cells))])
				}
				if len(sources) > 0 && rng.Intn(2) == 0 {
					_ = eng.ReleaseTree(sources[rng.Intn(len(sources))])
				}
			}
			if _, err := eng.Tool.Restore(snap); err != nil {
				t.Fatal(err)
			}
			snap.Release()
			return "rollback"
		}
	}

	check("initial")
	for i := 0; i < 220; i++ {
		name := op(i)
		check(name)
		if t.Failed() {
			t.Fatalf("diverged after op %d (%s)", i, name)
		}
	}
	if rams > 0 && !sawRAM {
		t.Fatal("scenario broken: no RAM cell was ever loaded")
	}
}

// TestRelocateCLBsAdoptsTwinView moves a whole placed design as one
// rehearsed sequence. The live pass applies no view deltas; the engine
// adopts the twin's view instead, which must be current without a refresh
// and equal to a rescan of the device, with the twin's frames equal to the
// device's.
func TestRelocateCLBsAdoptsTwinView(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	eng, err := NewEngine(dev, bitstream.NewSelectMAP(bitstream.NewController(dev), 50e6, 8))
	if err != nil {
		t.Fatal(err)
	}
	eng.MaxCyclesPerWait = 0
	nl, err := itc99.Get("b02")
	if err != nil {
		t.Fatal(err)
	}
	region, err := place.AutoRegion(dev, nl, 2, 2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.Place(dev, nl, place.Options{Region: region})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.Sync(); err != nil {
		t.Fatal(err)
	}
	var steps []CLBStep
	for _, c := range d.Region.Coords() {
		steps = append(steps, CLBStep{From: c, To: fabric.Coord{Row: c.Row + 8, Col: c.Col + 8}})
	}
	moves, err := eng.RelocateCLBs(steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, m := range moves {
		cells += len(m)
	}
	if cells == 0 {
		t.Fatal("scenario broken: nothing relocated")
	}
	if eng.view.gen != dev.Generation() {
		t.Fatal("the adopted view is behind the device")
	}
	if !eng.view.equal(newView(dev)) {
		t.Fatal("the adopted view differs from a rescan of the device")
	}
	if err := eng.VerifyTwin(); err != nil {
		t.Fatal(err)
	}
}

// TestRelocateCLBsTwinFollowsLiveChanges checks the twin's re-synchronisation
// across sequences. Between two successful sequences the live device changes
// outside any sequence (a designer-path load and a single-cell relocation),
// and a doomed sequence dirties the twin in its rehearsal before failing on
// its last step. The doomed sequence must leave the device untouched, and
// the next sequence must still rehearse against the live configuration.
func TestRelocateCLBsTwinFollowsLiveChanges(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	port := bitstream.NewSelectMAP(bitstream.NewController(dev), 50e6, 8)
	eng, err := NewEngine(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	eng.MaxCyclesPerWait = 0
	reserved := map[fabric.PadRef]bool{}
	load := func(name string, row, col int) *place.Design {
		t.Helper()
		nl, err := itc99.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		region, err := place.AutoRegion(dev, nl, row, col, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		d, err := place.Place(dev, nl, place.Options{Region: region, ReservePads: reserved})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.PadOf {
			reserved[p] = true
		}
		if err := eng.Tool.Sync(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	shift := func(region fabric.Rect, dr, dc int) []CLBStep {
		var steps []CLBStep
		for _, c := range region.Coords() {
			steps = append(steps, CLBStep{From: c, To: fabric.Coord{Row: c.Row + dr, Col: c.Col + dc}})
		}
		return steps
	}
	settled := func(ctx string) {
		t.Helper()
		if eng.view.gen != dev.Generation() || !eng.view.equal(newView(dev)) {
			t.Fatalf("%s: the adopted view differs from a rescan of the device", ctx)
		}
		if err := eng.VerifyTwin(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}

	d1 := load("b02", 2, 2)
	if _, err := eng.RelocateCLBs(shift(d1.Region, 8, 8), nil); err != nil {
		t.Fatal(err)
	}
	settled("first sequence")
	moved := d1.Region
	moved.Row, moved.Col = moved.Row+8, moved.Col+8

	// Live changes the twin has not seen: a load and a single-cell move.
	d2 := load("b01", 2, 14)
	occ := d2.OccupiedCells()
	from := occ[0]
	dst, err := eng.view.findFreeCLB(fabric.Coord{Row: 6, Col: 14}, from.Coord)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RelocateCell(from, fabric.CellRef{Coord: dst, Cell: from.Cell}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.AwaitStream(); err != nil {
		t.Fatal(err)
	}

	// A doomed sequence: every step but the last is sound, and the last one
	// lands on a cell of d2 that its source also uses.
	steps := shift(moved, -8, -8)
	busy := map[fabric.Coord]map[int]bool{}
	for _, ref := range d2.OccupiedCells()[1:] {
		if busy[ref.Coord] == nil {
			busy[ref.Coord] = map[int]bool{}
		}
		busy[ref.Coord][ref.Cell] = true
	}
	last := &steps[len(steps)-1]
	for c, used := range busy {
		for cell := range used {
			if eng.view.inUse[fabric.CellRef{Coord: last.From, Cell: cell}] {
				last.To = c
			}
		}
	}
	if busy[last.To] == nil {
		t.Fatal("scenario broken: no d2 CLB shares a cell index with the last step")
	}
	gen, elapsed, st := dev.Generation(), port.Elapsed(), eng.Stats
	_, err = eng.RelocateCLBs(steps, nil)
	if !errors.Is(err, ErrDestinationBusy) || !strings.Contains(err.Error(), fmt.Sprint(last.From)) {
		t.Fatalf("doomed sequence: err = %v, want ErrDestinationBusy on the last step", err)
	}
	if dev.Generation() != gen || port.Elapsed() != elapsed || eng.Stats.CLBsRelocated != st.CLBsRelocated {
		t.Fatal("the doomed sequence changed the device, used the port or counted a CLB")
	}

	// Back where d1 came from, past d2's cells.
	moves, err := eng.RelocateCLBs(shift(moved, -8, -8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 || eng.Stats.CLBsRelocated == st.CLBsRelocated {
		t.Fatal("scenario broken: the last sequence relocated nothing")
	}
	settled("after the doomed sequence")
}
