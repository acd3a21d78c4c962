package relocate_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/jtag"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/relocate"
	"repro/internal/sim"
)

// harness glues the relocation engine to a lock-step verified design: the
// application keeps running (with random inputs) while the engine works,
// and every frame write is checked for glitches on the observed outputs.
type harness struct {
	t    *testing.T
	ls   *sim.LockStep
	eng  *relocate.Engine
	rng  uint64
	last []sim.Val
}

func newHarness(t *testing.T, dev *fabric.Device, d *place.Design, port *bitstream.Transport) *harness {
	t.Helper()
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := relocate.NewEngine(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, ls: ls, eng: eng, rng: 0xA5A5}
	// Warm the design up so state is non-trivial before relocating.
	for i := 0; i < 10; i++ {
		if err := ls.Step(h.inputs()); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}
	h.last = ls.OutputSnapshot()
	eng.Clock = func(cycles int) error {
		for i := 0; i < cycles; i++ {
			if err := h.ls.Step(h.inputs()); err != nil {
				return err
			}
		}
		h.last = h.ls.OutputSnapshot()
		return nil
	}
	eng.Tool.VerifyHook = func() error {
		if err := h.ls.VerifyQuiescent(h.last); err != nil {
			return err
		}
		h.last = h.ls.OutputSnapshot()
		return nil
	}
	return h
}

func (h *harness) inputs() []bool {
	n := len(h.ls.Design.NL.Inputs())
	in := make([]bool, n)
	for i := range in {
		h.rng = h.rng*6364136223846793005 + 1442695040888963407
		in[i] = h.rng>>37&1 == 1
	}
	return in
}

// run continues the application for n more cycles and re-checks state.
func (h *harness) run(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if err := h.ls.Step(h.inputs()); err != nil {
			h.t.Fatalf("post-relocation divergence: %v", err)
		}
	}
	if err := h.ls.CheckState(); err != nil {
		h.t.Fatalf("state check: %v", err)
	}
	h.last = h.ls.OutputSnapshot() // keep the glitch baseline current
}

func directPort(dev *fabric.Device) *bitstream.Transport {
	return bitstream.NewSelectMAP(bitstream.NewController(dev), 50e6, 8)
}

func placeDesign(t *testing.T, dev *fabric.Device, name string) *place.Design {
	t.Helper()
	nl, err := itc99.Get(name)
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
	return d
}

// findCellWith returns a placed cell whose netlist node matches pred.
func findCellWith(d *place.Design, pred func(netlist.Node) bool) (fabric.CellRef, netlist.ID, bool) {
	for id, nd := range d.NL.Nodes {
		if pred(nd) {
			if ref, ok := d.CellOf[netlist.ID(id)]; ok {
				return ref, netlist.ID(id), true
			}
		}
	}
	return fabric.CellRef{}, 0, false
}

func freeCellAt(dev *fabric.Device, c fabric.Coord, cell int) fabric.CellRef {
	return fabric.CellRef{Coord: c, Cell: cell}
}

func TestRelocateCombinationalCell(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01")
	h := newHarness(t, dev, d, directPort(dev))
	from, id, ok := findCellWith(d, func(nd netlist.Node) bool { return nd.Kind == netlist.KindLUT })
	if !ok {
		t.Fatal("no LUT cell found")
	}
	// Skip if an FF shares the cell (then it is a sequential move).
	if cc := dev.ReadCell(from); cc.FF {
		t.Skip("chosen LUT is packed with an FF")
	}
	to := freeCellAt(dev, fabric.Coord{Row: 10, Col: 10}, from.Cell)
	mv, err := h.eng.RelocateCell(from, to)
	if err != nil {
		t.Fatalf("relocate: %v", err)
	}
	if mv.Frames == 0 || mv.Seconds <= 0 {
		t.Errorf("suspicious accounting: %+v", mv)
	}
	d.Rebind(from, to)
	h.run(50)
	// The original cell is free again.
	if dev.ReadCell(from).InUse() {
		t.Error("original cell still configured")
	}
	_ = id
}

func TestRelocateFreeRunningFF(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01") // free-running style
	h := newHarness(t, dev, d, directPort(dev))
	from, _, ok := findCellWith(d, func(nd netlist.Node) bool {
		return nd.Kind == netlist.KindFF && nd.CE == netlist.None
	})
	if !ok {
		t.Fatal("no free-running FF found")
	}
	to := freeCellAt(dev, fabric.Coord{Row: 11, Col: 11}, from.Cell)
	if _, err := h.eng.RelocateCell(from, to); err != nil {
		t.Fatalf("relocate: %v", err)
	}
	d.Rebind(from, to)
	h.run(60)
}

func TestRelocateGatedClockFF(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b03") // gated-clock style
	h := newHarness(t, dev, d, directPort(dev))
	from, _, ok := findCellWith(d, func(nd netlist.Node) bool {
		return nd.Kind == netlist.KindFF && nd.CE != netlist.None
	})
	if !ok {
		t.Fatal("no gated FF found")
	}
	to := freeCellAt(dev, fabric.Coord{Row: 12, Col: 12}, from.Cell)
	mv, err := h.eng.RelocateCell(from, to)
	if err != nil {
		t.Fatalf("relocate: %v", err)
	}
	if !mv.UsedAux {
		t.Error("gated-clock relocation did not use the auxiliary circuit")
	}
	d.Rebind(from, to)
	h.run(60)
	// The aux CLB must be free again.
	for cell := 0; cell < fabric.CellsPerCLB; cell++ {
		if dev.ReadCell(fabric.CellRef{Coord: mv.Aux, Cell: cell}).InUse() {
			t.Errorf("aux cell %d still configured", cell)
		}
	}
}

// gatedHoldDesign builds a one-FF gated-clock design: FF captures input d
// when input ce is high. Used to reproduce the paper's Fig. 3 argument with
// CE held LOW across the whole relocation: the aux circuit must transfer the
// state anyway; the plain procedure must fail.
func gatedHoldDesign(t *testing.T, dev *fabric.Device) *place.Design {
	t.Helper()
	nl := netlist.New("gatedhold")
	din := nl.Input("d")
	ce := nl.Input("ce")
	ff := nl.FF("r", din, ce, false)
	nl.Output("q", ff)
	d, err := place.Place(dev, nl, place.Options{Region: fabric.Rect{Row: 3, Col: 3, H: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runGatedHoldRelocation warms the FF to state 1, holds CE low with D
// toggling while the engine relocates the FF cell, then checks state.
func runGatedHoldRelocation(t *testing.T, forcePlain bool) error {
	t.Helper()
	dev := fabric.NewDevice(fabric.XCV50)
	d := gatedHoldDesign(t, dev)
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	// Capture a 1, then drop CE.
	if err := ls.Step([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
	toggle := false
	step := func() error {
		toggle = !toggle
		return ls.Step([]bool{toggle, false}) // D toggles, CE LOW
	}
	for i := 0; i < 5; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := relocate.NewEngine(dev, directPort(dev))
	if err != nil {
		t.Fatal(err)
	}
	eng.ForcePlainProcedure = forcePlain
	last := ls.OutputSnapshot()
	eng.Clock = func(cycles int) error {
		for i := 0; i < cycles; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		last = ls.OutputSnapshot()
		return nil
	}
	eng.Tool.VerifyHook = func() error {
		if err := ls.VerifyQuiescent(last); err != nil {
			return err
		}
		last = ls.OutputSnapshot()
		return nil
	}
	ffID, _ := d.NL.ByName("r")
	from := d.CellOf[ffID]
	to := fabric.CellRef{Coord: fabric.Coord{Row: 10, Col: 10}, Cell: from.Cell}
	if _, err := eng.RelocateCell(from, to); err != nil {
		return err
	}
	d.Rebind(from, to)
	// CE still low: the state must still be the captured 1.
	for i := 0; i < 10; i++ {
		if err := step(); err != nil {
			return err
		}
	}
	return ls.CheckState()
}

func TestAuxCircuitTransfersStateWithCELow(t *testing.T) {
	// The positive heart of Fig. 3: CE never rises during the relocation,
	// yet the auxiliary circuit transfers the state and nothing glitches.
	if err := runGatedHoldRelocation(t, false); err != nil {
		t.Fatalf("aux-circuit relocation failed with CE low: %v", err)
	}
}

func TestGatedClockWithoutAuxLosesState(t *testing.T) {
	// Paper §2: without the aux circuit "the previous method does not
	// ensure that the CLB replica captures the correct state information".
	// With CE low across the whole procedure the replica keeps its
	// power-up value and the state check must fail.
	if err := runGatedHoldRelocation(t, true); err == nil {
		t.Error("plain two-phase procedure preserved gated-clock state with CE low — ablation should fail")
	}
}

func TestRelocateWholeCLB(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b02")
	h := newHarness(t, dev, d, directPort(dev))
	// Pick the first occupied CLB in the region.
	var from fabric.Coord
	found := false
	for _, ref := range d.OccupiedCells() {
		from = ref.Coord
		found = true
		break
	}
	if !found {
		t.Fatal("no occupied CLB")
	}
	to := fabric.Coord{Row: 13, Col: 13}
	moves, err := h.eng.RelocateCLB(from, to)
	if err != nil {
		t.Fatalf("relocate CLB: %v", err)
	}
	if len(moves) == 0 {
		t.Fatal("no cells moved")
	}
	for cell := 0; cell < fabric.CellsPerCLB; cell++ {
		d.Rebind(fabric.CellRef{Coord: from, Cell: cell}, fabric.CellRef{Coord: to, Cell: cell})
	}
	h.run(60)
}

func TestRelocateRefusesRAMCell(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	ref := fabric.CellRef{Coord: fabric.Coord{Row: 2, Col: 2}, Cell: 0}
	dev.WriteCell(ref, fabric.CellConfig{Used: true, RAM: true, CEUsed: true})
	eng, err := relocate.NewEngine(dev, directPort(dev))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.RelocateCell(ref, fabric.CellRef{Coord: fabric.Coord{Row: 5, Col: 5}, Cell: 0})
	if !errors.Is(err, relocate.ErrRAMRelocation) {
		t.Errorf("err = %v, want ErrRAMRelocation", err)
	}
}

func TestRelocateRefusesRAMInAffectedColumn(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01")
	// Drop a RAM cell into the destination column.
	ramRef := fabric.CellRef{Coord: fabric.Coord{Row: 0, Col: 10}, Cell: 0}
	dev.WriteCell(ramRef, fabric.CellConfig{Used: true, RAM: true, CEUsed: true})
	eng, err := relocate.NewEngine(dev, directPort(dev))
	if err != nil {
		t.Fatal(err)
	}
	var from fabric.CellRef
	for _, ref := range d.OccupiedCells() {
		from = ref
		break
	}
	_, err = eng.RelocateCell(from, fabric.CellRef{Coord: fabric.Coord{Row: 10, Col: 10}, Cell: from.Cell})
	if !errors.Is(err, relocate.ErrRAMInColumn) {
		t.Errorf("err = %v, want ErrRAMInColumn", err)
	}
}

func TestRelocateRefusesBusyDestination(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01")
	cells := d.OccupiedCells()
	if len(cells) < 2 {
		t.Fatal("need two cells")
	}
	eng, err := relocate.NewEngine(dev, directPort(dev))
	if err != nil {
		t.Fatal(err)
	}
	// Destination = another occupied cell.
	dst := cells[1]
	if dst.Cell != cells[0].Cell {
		dst = fabric.CellRef{Coord: dst.Coord, Cell: cells[0].Cell}
		if !dev.ReadCell(dst).InUse() {
			// make it busy explicitly
			dev.WriteCell(dst, fabric.CellConfig{Used: true, LUT: 1})
		}
	}
	_, err = eng.RelocateCell(cells[0], dst)
	if !errors.Is(err, relocate.ErrDestinationBusy) {
		t.Errorf("err = %v, want ErrDestinationBusy", err)
	}
}

func TestRelocationOverBoundaryScanTiming(t *testing.T) {
	// End-to-end with the Boundary-Scan port at the paper's 20 MHz: one
	// gated-clock cell relocation should land in the milliseconds range
	// (the paper reports 22.6 ms for a full CLB cell set).
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b03")
	ctrl := bitstream.NewController(dev)
	port := jtag.NewPort(ctrl, jtag.DefaultTCKHz)
	h := newHarness(t, dev, d, port)
	from, _, ok := findCellWith(d, func(nd netlist.Node) bool {
		return nd.Kind == netlist.KindFF && nd.CE != netlist.None
	})
	if !ok {
		t.Fatal("no gated FF")
	}
	to := freeCellAt(dev, fabric.Coord{Row: 10, Col: 11}, from.Cell)
	mv, err := h.eng.RelocateCell(from, to)
	if err != nil {
		t.Fatalf("relocate over Boundary-Scan: %v", err)
	}
	ms := mv.Seconds * 1e3
	if ms < 0.5 || ms > 200 {
		t.Errorf("cell relocation over JTAG = %.2f ms, outside plausible range", ms)
	}
	d.Rebind(from, to)
	h.run(40)
}

func TestMoveReportsParallelDelay(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01")
	h := newHarness(t, dev, d, directPort(dev))
	from, _, ok := findCellWith(d, func(nd netlist.Node) bool { return nd.Kind == netlist.KindFF })
	if !ok {
		t.Fatal("no FF")
	}
	to := freeCellAt(dev, fabric.Coord{Row: 14, Col: 14}, from.Cell)
	mv, err := h.eng.RelocateCell(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if mv.MaxParallelDelayNs <= 0 {
		t.Error("no parallel-path delay recorded")
	}
	d.Rebind(from, to)
	h.run(30)
}

func TestStatsAccumulate(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b02")
	h := newHarness(t, dev, d, directPort(dev))
	var froms []fabric.CellRef
	for _, ref := range d.OccupiedCells() {
		froms = append(froms, ref)
		if len(froms) == 2 {
			break
		}
	}
	row := 10
	for _, from := range froms {
		to := freeCellAt(dev, fabric.Coord{Row: row, Col: 12}, from.Cell)
		row += 2
		if _, err := h.eng.RelocateCell(from, to); err != nil {
			t.Fatal(err)
		}
		d.Rebind(from, to)
		h.last = h.ls.OutputSnapshot()
	}
	st := h.eng.Stats
	if st.CellsRelocated != 2 {
		t.Errorf("CellsRelocated = %d", st.CellsRelocated)
	}
	if st.FramesWritten == 0 || st.PortSeconds <= 0 {
		t.Errorf("stats: %+v", st)
	}
	h.run(30)
}

func TestErrorsAreDescriptive(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	eng, err := relocate.NewEngine(dev, directPort(dev))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.RelocateCell(
		fabric.CellRef{Coord: fabric.Coord{Row: 0, Col: 0}, Cell: 0},
		fabric.CellRef{Coord: fabric.Coord{Row: 1, Col: 1}, Cell: 0})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("relocating empty cell: %v", err)
	}
}

func TestReadbackVerifyMode(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01")
	h := newHarness(t, dev, d, directPort(dev))
	h.eng.Tool.ReadbackVerify = true
	from, _, ok := findCellWith(d, func(nd netlist.Node) bool { return nd.Kind == netlist.KindFF })
	if !ok {
		t.Fatal("no FF")
	}
	to := freeCellAt(dev, fabric.Coord{Row: 10, Col: 10}, from.Cell)
	mv, err := h.eng.RelocateCell(from, to)
	if err != nil {
		t.Fatalf("relocate with readback verify: %v", err)
	}
	d.Rebind(from, to)
	h.run(30)
	// Compare traffic with a non-verifying engine on an identical system.
	dev2 := fabric.NewDevice(fabric.XCV50)
	d2 := placeDesign(t, dev2, "b01")
	h2 := newHarness(t, dev2, d2, directPort(dev2))
	from2, _, _ := findCellWith(d2, func(nd netlist.Node) bool { return nd.Kind == netlist.KindFF })
	to2 := freeCellAt(dev2, fabric.Coord{Row: 10, Col: 10}, from2.Cell)
	mv2, err := h2.eng.RelocateCell(from2, to2)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Seconds <= mv2.Seconds {
		t.Errorf("readback verify should cost extra port time: %.3f vs %.3f ms",
			mv.Seconds*1e3, mv2.Seconds*1e3)
	}
}
