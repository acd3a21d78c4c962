package relocate

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/fabric"
)

// CLBStep is one CLB relocation of a sequence: every active cell of From
// moves to the same cell index of To.
type CLBStep struct {
	From, To fabric.Coord
}

// twin is the engine's host-side rehearsal copy of the device: its own
// configuration frames and occupancy view, driven through a tool with no
// transport and by an engine with no clock. It is built on the first
// rehearsed sequence and re-synchronised at the start of each one, frame by
// frame, so no operation allocates a twin.
type twin struct {
	eng *Engine
	// liveGen and ownGen are the live and twin device generations at the
	// last synchronisation: frames changed since either (live writes, or a
	// failed rehearsal's writes the live device never took) are re-copied.
	liveGen, ownGen uint64
	buf             []uint32
	// frames/written collect the frames one rehearsal writes, in
	// first-touched order.
	frames  []fabric.FrameAddr
	written map[fabric.FrameAddr]bool
	// settled is set when a sequence's live pass completes, with the live
	// generation then: until that moves, the twin must equal the device.
	settled    bool
	settledGen uint64
}

// syncTwin brings the twin to the live device's configuration and view,
// building it on first use.
func (e *Engine) syncTwin() *Engine {
	e.view.refresh()
	t := e.twin
	if t == nil {
		dev := fabric.NewDevice(e.Dev.Preset)
		tool := newRehearsalTool(dev)
		v := &view{dev: dev}
		tool.SetViewSink(v)
		// The router reads only the device geometry and is reset per plan,
		// and rehearsal and live pass never route at the same time, so the
		// twin shares the live engine's.
		t = &twin{
			eng:     &Engine{Dev: dev, Tool: tool, view: v, router: e.router},
			buf:     make([]uint32, dev.FrameWords()),
			written: map[fabric.FrameAddr]bool{},
		}
		e.twin = t
	}
	tw := t.eng
	t.settled = false
	// The twin's own dirty frames first: copying the live ones moves its
	// generation.
	stale := tw.Dev.FramesChangedSince(t.ownGen)
	liveGen := e.Dev.Generation()
	stale = append(stale, e.Dev.FramesChangedSince(t.liveGen)...)
	for _, addr := range stale {
		// Both lists come from the devices' own frame tables: the copy
		// cannot fail.
		_ = e.Dev.ReadFrameInto(addr, t.buf)
		_ = tw.Dev.WriteFrame(addr.Major, addr.Minor, t.buf)
	}
	t.liveGen = liveGen
	t.ownGen = tw.Dev.Generation()
	tw.view.copyFrom(e.view)
	tw.ForcePlainProcedure = e.ForcePlainProcedure
	return tw
}

// RelocateCLBs relocates a sequence of CLBs — the CLBs of a whole-design
// move, in order, possibly over several stages — in two passes.
//
// The rehearsal plans, routes and executes every cell of every step on the
// host-side twin: the same plan and execute code, through a tool with no
// transport and with no clock. Each cell is planned against the occupancy
// its predecessors leave behind, exactly as the live pass will find it. A
// step whose source CLB has no active cell is skipped. If any cell fails to
// plan, the call returns that error before a single frame is staged: a
// doomed sequence costs no port time, no rollback and no live state.
//
// Only then does the live pass run the recorded plans on the device, with
// the same bursts and wait points as relocating the cells one by one, and
// without routing again. Before its first burst the delivery barrier gets
// every frame the rehearsal wrote (DeliveryBarrier.PreStage). after, when
// set, runs once per step once that step's cells are live, with whether the
// step moved anything; an error from it stops the pass. A transport or
// clock failure during the live pass still leaves earlier steps relocated:
// the caller owns rollback.
func (e *Engine) RelocateCLBs(steps []CLBStep, after func(i int, moved bool) error) ([][]*CellMove, error) {
	planStart := time.Now()
	plans, frames, err := e.rehearse(steps)
	e.Stats.PlanSeconds += time.Since(planStart).Seconds()
	if err != nil {
		return nil, err
	}
	if err := e.Tool.preStage(frames); err != nil {
		return nil, err
	}
	// The live pass leaves the occupancy view alone: the twin's view already
	// holds its outcome, and the live engine adopts it once the pass is done.
	e.Tool.SetViewSink(nil)
	moves, err := e.livePass(steps, plans, after)
	t := e.twin
	if err != nil {
		// Stopped part-way: re-derive what the pass may have written.
		e.view.refreshFrames(frames)
		e.Tool.SetViewSink(e.view)
		return moves, err
	}
	e.view, t.eng.view = t.eng.view, e.view
	e.view.dev, t.eng.view.dev = e.Dev, t.eng.Dev
	e.view.gen = e.Dev.Generation()
	e.Tool.SetViewSink(e.view)
	t.eng.Tool.SetViewSink(t.eng.view)
	// The twin now holds the live frames: the next sync copies only what
	// changes after this point.
	t.settled, t.settledGen = true, e.view.gen
	t.liveGen, t.ownGen = e.view.gen, t.eng.Dev.Generation()
	return moves, nil
}

// livePass runs a rehearsed sequence's cell plans on the live device.
func (e *Engine) livePass(steps []CLBStep, plans [][]*cellPlan, after func(i int, moved bool) error) ([][]*CellMove, error) {
	moves := make([][]*CellMove, len(steps))
	for i, cellPlans := range plans {
		for _, p := range cellPlans {
			if err := e.Tool.Flush(); err != nil {
				return moves, err
			}
			mv, err := e.stream(p, e.Tool.StreamInFlight())
			if err != nil {
				return moves, fmt.Errorf("relocate: CLB %v cell %d: %w", steps[i].From, p.from.Cell, err)
			}
			moves[i] = append(moves[i], mv)
		}
		if len(cellPlans) > 0 {
			e.Stats.CLBsRelocated++
		}
		if after != nil {
			if err := after(i, len(cellPlans) > 0); err != nil {
				return moves, err
			}
		}
	}
	return moves, nil
}

// VerifyTwin checks the rehearsal invariant: right after a sequence's live
// pass, the twin holds exactly the live device's frames, so the pass did
// what the rehearsal did, and the occupancy view the live engine adopted
// from the twin matches a rescan of the device. It returns nil when no
// sequence has completed since the live configuration last changed (the
// twin only re-synchronises when the next sequence starts).
func (e *Engine) VerifyTwin() error {
	t := e.twin
	if t == nil || !t.settled || e.Dev.Generation() != t.settledGen {
		return nil
	}
	live := make([]uint32, e.Dev.FrameWords())
	for _, col := range e.Dev.Columns() {
		for minor := 0; minor < col.Frames; minor++ {
			addr := fabric.FrameAddr{Major: col.Major, Minor: minor}
			_ = e.Dev.ReadFrameInto(addr, live)
			_ = t.eng.Dev.ReadFrameInto(addr, t.buf)
			if !slices.Equal(live, t.buf) {
				return fmt.Errorf("relocate: twin frame %v differs from the device", addr)
			}
		}
	}
	if !e.view.equal(newView(e.Dev)) {
		return fmt.Errorf("relocate: adopted occupancy view differs from a rescan of the device")
	}
	return nil
}

// rehearse plans and executes a sequence on the twin, returning each step's
// cell plans, each carrying the exact frames its execution writes, and every
// frame the sequence writes, in first-touched order (owned by the twin).
func (e *Engine) rehearse(steps []CLBStep) ([][]*cellPlan, []fabric.FrameAddr, error) {
	tw := e.syncTwin()
	t := e.twin
	t.frames = t.frames[:0]
	clear(t.written)
	plans := make([][]*cellPlan, len(steps))
	for i, st := range steps {
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			from := fabric.CellRef{Coord: st.From, Cell: cell}
			if !tw.view.inUse[from] {
				continue
			}
			tw.Tool.MarkTouched()
			p, err := tw.plan(from, fabric.CellRef{Coord: st.To, Cell: cell})
			if err == nil {
				err = tw.checkRAMColumns(p)
			}
			if err == nil {
				err = tw.execute(p)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("relocate: CLB %v cell %d: %w", st.From, cell, err)
			}
			p.frames = tw.Tool.TouchedFrames()
			for _, addr := range p.frames {
				if !t.written[addr] {
					t.written[addr] = true
					t.frames = append(t.frames, addr)
				}
			}
			plans[i] = append(plans[i], p)
		}
	}
	return plans, t.frames, nil
}

// RelocateCLB relocates every active cell of a CLB to the same cell indices
// of the destination CLB, one cell at a time ("CLBs relocation is performed
// individually") — the one-step case of RelocateCLBs.
func (e *Engine) RelocateCLB(from, to fabric.Coord) ([]*CellMove, error) {
	moves, err := e.RelocateCLBs([]CLBStep{{From: from, To: to}}, nil)
	if moves == nil {
		return nil, err
	}
	return moves[0], err
}
