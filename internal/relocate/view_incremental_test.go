package relocate

import (
	"maps"
	"math/rand"
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
func TestViewMatchesRescanUnderRandomOps(t *testing.T) {
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

	check := func(ctx string) {
		t.Helper()
		eng.view.refresh()
		fresh := newView(dev)
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
	}

	load := func(i int) {
		nl := itc99.Generate(itc99.GenConfig{
			Name: "rnd", Inputs: 2, Outputs: 1, FFs: 2, LUTs: 3,
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
}
