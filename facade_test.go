package rlm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// mkCounter builds a tiny free-running sequential design.
func mkCounter(name string) *netlist.Netlist {
	nl := netlist.New(name)
	a := nl.Input("a")
	x := nl.LUT("x", fabric.LUTXor2, a, a)
	ff := nl.FF("r", x, netlist.None, false)
	nl.Output("q", ff)
	return nl
}

func TestSentinelErrors(t *testing.T) {
	s := newSys(t)
	nl, _ := itc99.Get("b02")
	if _, err := s.Load(nl, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}

	t.Run("duplicate", func(t *testing.T) {
		nl2, _ := itc99.Get("b02")
		_, err := s.Load(nl2, fabric.Rect{Row: 8, Col: 8, H: 4, W: 4})
		if !errors.Is(err, ErrDuplicateDesign) {
			t.Errorf("want ErrDuplicateDesign, got %v", err)
		}
	})
	t.Run("unknown-unload", func(t *testing.T) {
		if err := s.Unload("ghost"); !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("want ErrUnknownDesign, got %v", err)
		}
	})
	t.Run("unknown-move", func(t *testing.T) {
		err := s.Move("ghost", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4})
		if !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("want ErrUnknownDesign, got %v", err)
		}
	})
	t.Run("region-mismatch", func(t *testing.T) {
		err := s.Move("b02", fabric.Rect{Row: 8, Col: 8, H: 3, W: 4})
		if !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("want ErrRegionMismatch, got %v", err)
		}
	})
	t.Run("region-busy-load", func(t *testing.T) {
		_, err := s.Load(mkCounter("clash"), fabric.Rect{Row: 2, Col: 2, H: 4, W: 4})
		if !errors.Is(err, ErrRegionBusy) {
			t.Errorf("want ErrRegionBusy, got %v", err)
		}
	})
	t.Run("region-busy-move", func(t *testing.T) {
		if _, err := s.Load(mkCounter("bump"), fabric.Rect{Row: 10, Col: 10, H: 1, W: 1}); err != nil {
			t.Fatal(err)
		}
		err := s.Move("bump", fabric.Rect{Row: 1, Col: 1, H: 1, W: 1})
		if !errors.Is(err, ErrRegionBusy) {
			t.Errorf("want ErrRegionBusy, got %v", err)
		}
	})
	t.Run("no-space", func(t *testing.T) {
		huge := itc99.Generate(itc99.GenConfig{
			Name: "huge", Inputs: 4, Outputs: 4, FFs: 400, LUTs: 1200,
			Seed: 7, Style: itc99.FreeRunning,
		})
		_, err := s.Load(huge, fabric.Rect{})
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("want ErrNoSpace, got %v", err)
		}
	})
	t.Run("no-space-defrag", func(t *testing.T) {
		_, err := s.Defragment(DefragPolicy{NeedH: 200, NeedW: 200})
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("want ErrNoSpace, got %v", err)
		}
	})
	t.Run("plan-invalid", func(t *testing.T) {
		err := s.Plan().Move("ghost", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4}).Commit()
		if !errors.Is(err, ErrPlanInvalid) || !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("want ErrPlanInvalid wrapping ErrUnknownDesign, got %v", err)
		}
	})
}

func TestMoveStagedRejectsOccupiedCorridor(t *testing.T) {
	s := newSys(t)
	d, err := s.Load(mkCounter("walker"), fabric.Rect{Row: 0, Col: 0, H: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A block sits right on the single-step corridor.
	if _, err := s.Load(mkCounter("block"), fabric.Rect{Row: 1, Col: 1, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	frames0 := s.Stats().FramesWritten
	err = s.MoveStaged("walker", fabric.Rect{Row: 4, Col: 4, H: 1, W: 1}, 1)
	if !errors.Is(err, ErrRegionBusy) {
		t.Fatalf("want ErrRegionBusy, got %v", err)
	}
	// Rejected before any frame streamed; nothing moved.
	if got := s.Stats().FramesWritten; got != frames0 {
		t.Errorf("frames streamed for a rejected staged move: %d -> %d", frames0, got)
	}
	if d.Region != (fabric.Rect{Row: 0, Col: 0, H: 1, W: 1}) {
		t.Errorf("walker moved: %v", d.Region)
	}
	// A detour with larger hops (skipping the blocked corridor) works.
	if err := s.MoveStaged("walker", fabric.Rect{Row: 4, Col: 4, H: 1, W: 1}, 4); err != nil {
		t.Fatalf("detour staged move: %v", err)
	}
	if d.Region != (fabric.Rect{Row: 4, Col: 4, H: 1, W: 1}) {
		t.Errorf("walker region = %v", d.Region)
	}
}

// TestConcurrentReadsDuringMove runs observers against the facade while a
// relocation streams; run with -race.
func TestConcurrentReadsDuringMove(t *testing.T) {
	s := newSys(t)
	nl := mkCounter("mover")
	d, err := s.Load(nl, fabric.Rect{Row: 2, Col: 2, H: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(17)
	s.Engine().Clock = func(cycles int) error {
		for i := 0; i < cycles; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if err := ls.Step([]bool{rng>>40&1 == 1}); err != nil {
				return err
			}
		}
		return nil
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = s.Fragmentation()
				_ = s.Stats()
				_ = s.Designs()
				_, _ = s.Region("mover")
				_ = s.Utilisation()
			}
		}()
	}
	err = s.Move("mover", fabric.Rect{Row: 9, Col: 9, H: 1, W: 1})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if got, _ := s.Region("mover"); got != (fabric.Rect{Row: 9, Col: 9, H: 1, W: 1}) {
		t.Errorf("region = %v", got)
	}
}

// TestLoadRollbackOnFailure is the regression test for the Load resource
// leak: a placement that fails midway (here: pad exhaustion after some of
// the design's input pads were already configured) must leave no pads
// reserved, no cells configured, no area booked — and a subsequent load
// must succeed.
func TestLoadRollbackOnFailure(t *testing.T) {
	s, err := New(WithDevice(fabric.TestDevice), WithPort(SelectMAP))
	if err != nil {
		t.Fatal(err)
	}
	// TestDevice is 8x12: 16 pads per west/east edge. Fill most of the
	// west edge so the next design exhausts it partway through binding.
	wide := itc99.Generate(itc99.GenConfig{
		Name: "wide", Inputs: 12, Outputs: 2, FFs: 2, LUTs: 14,
		Seed: 3, Style: itc99.FreeRunning,
	})
	if _, err := s.Load(wide, fabric.Rect{Row: 0, Col: 0, H: 4, W: 8}); err != nil {
		t.Fatal(err)
	}
	freeCLBs := s.Area().FreeCLBs()
	padCount := func() int {
		n := 0
		for pos := 0; pos < s.Device().Rows; pos++ {
			for k := 0; k < fabric.PadsPerEdgeTile; k++ {
				p := fabric.PadRef{Side: fabric.West, Pos: pos, K: k}
				if s.Device().ReadPad(p).Input {
					n++
				}
			}
		}
		return n
	}
	padsBefore := padCount()
	if padsBefore != 12 {
		t.Fatalf("setup: %d west input pads, want 12", padsBefore)
	}

	// 6 inputs > 4 remaining west pads: bindPads fails after configuring
	// some of them.
	greedy := itc99.Generate(itc99.GenConfig{
		Name: "greedy", Inputs: 6, Outputs: 1, FFs: 1, LUTs: 7,
		Seed: 4, Style: itc99.FreeRunning,
	})
	if _, err := s.Load(greedy, fabric.Rect{Row: 5, Col: 0, H: 3, W: 6}); err == nil {
		t.Fatal("greedy load unexpectedly succeeded")
	}

	if got := padCount(); got != padsBefore {
		t.Errorf("leaked pads: %d configured west inputs, want %d", got, padsBefore)
	}
	if got := s.Area().FreeCLBs(); got != freeCLBs {
		t.Errorf("leaked area: %d free CLBs, want %d", got, freeCLBs)
	}
	if got := len(s.Designs()); got != 1 {
		t.Errorf("designs = %v", s.Designs())
	}
	// The failed region must be completely clean on the fabric.
	for _, c := range (fabric.Rect{Row: 5, Col: 0, H: 3, W: 6}).Coords() {
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			if s.Device().ReadCell(fabric.CellRef{Coord: c, Cell: cell}).InUse() {
				t.Fatalf("cell %v/%d configured after failed load", c, cell)
			}
		}
	}
	// A design that fits the remaining pads loads fine afterwards.
	ok := itc99.Generate(itc99.GenConfig{
		Name: "modest", Inputs: 3, Outputs: 1, FFs: 1, LUTs: 4,
		Seed: 5, Style: itc99.FreeRunning,
	})
	d, err := s.Load(ok, fabric.Rect{Row: 5, Col: 0, H: 3, W: 6})
	if err != nil {
		t.Fatalf("post-rollback load: %v", err)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := ls.Step([]bool{i%2 == 0, i%3 == 0, true}); err != nil {
			t.Fatalf("post-rollback design broken at cycle %d: %v", i, err)
		}
	}
}

func TestPlanCommit(t *testing.T) {
	s := newSys(t)
	nlA := itc99.Generate(itc99.GenConfig{
		Name: "alpha", Inputs: 3, Outputs: 2, FFs: 8, LUTs: 16,
		Seed: 99, Style: itc99.FreeRunning,
	})
	nlB, _ := itc99.Get("b02")
	err := s.Plan().
		Load(nlA, fabric.Rect{Row: 2, Col: 2, H: 4, W: 4}).
		Load(nlB, fabric.Rect{Row: 0, Col: 8, H: 4, W: 4}).
		Move("alpha", fabric.Rect{Row: 9, Col: 9, H: 4, W: 4}).
		Unload("b02").
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Designs(); len(got) != 1 || got[0] != "alpha" {
		t.Errorf("designs = %v", got)
	}
	if r, _ := s.Region("alpha"); r != (fabric.Rect{Row: 9, Col: 9, H: 4, W: 4}) {
		t.Errorf("alpha region = %v", r)
	}
}

func TestPlanValidateLeavesSystemUntouched(t *testing.T) {
	s := newSys(t)
	nlA, _ := itc99.Get("b01")
	nlB, _ := itc99.Get("b02")
	frames0 := s.Stats().FramesWritten
	err := s.Plan().
		Load(nlA, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}).
		Load(nlB, fabric.Rect{Row: 2, Col: 2, H: 4, W: 4}). // overlaps the first
		Commit()
	if !errors.Is(err, ErrPlanInvalid) || !errors.Is(err, ErrRegionBusy) {
		t.Fatalf("want ErrPlanInvalid wrapping ErrRegionBusy, got %v", err)
	}
	if got := s.Stats().FramesWritten; got != frames0 {
		t.Errorf("invalid plan streamed %d frames", got-frames0)
	}
	if len(s.Designs()) != 0 {
		t.Errorf("designs = %v", s.Designs())
	}
}

// TestPlanRollbackMidPlan forces a physical failure that the dry-run
// cannot see (a squatter cell configured outside the area book-keeping)
// and checks the whole transaction rolls back.
func TestPlanRollbackMidPlan(t *testing.T) {
	s := newSys(t)
	nlA, _ := itc99.Get("b01")
	if _, err := s.Load(nlA, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}
	// Squat on the move target behind the book-keeping's back.
	squat := fabric.CellRef{Coord: fabric.Coord{Row: 9, Col: 9}, Cell: 0}
	s.Device().WriteCell(squat, fabric.CellConfig{Used: true, LUT: fabric.LUTConst1})

	nlB, _ := itc99.Get("b02")
	err := s.Plan().
		Load(nlB, fabric.Rect{Row: 0, Col: 6, H: 4, W: 4}).
		Move("b01", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4}). // lands on the squatter
		Commit()
	if err == nil {
		t.Fatal("plan unexpectedly committed")
	}
	// All-or-nothing: the already-executed load is rolled back too.
	if got := s.Designs(); len(got) != 1 || got[0] != "b01" {
		t.Errorf("designs after rollback = %v", got)
	}
	if r, _ := s.Region("b01"); r != (fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}) {
		t.Errorf("b01 region after rollback = %v", r)
	}
	if !s.Device().ReadCell(squat).InUse() {
		t.Error("squatter cell lost in rollback")
	}
	// b01 still works: load-free smoke run.
	d, _ := s.Design("b01")
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		in := make([]bool, len(nlA.Inputs()))
		if err := ls.Step(in); err != nil {
			t.Fatalf("b01 broken after rollback: %v", err)
		}
	}
}

func TestEventStream(t *testing.T) {
	s := newSys(t)
	ch, cancel := s.Subscribe(128)
	nl := mkCounter("evt")
	if _, err := s.Load(nl, fabric.Rect{Row: 2, Col: 2, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("evt", fabric.Rect{Row: 5, Col: 5, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Unload("evt"); err != nil {
		t.Fatal(err)
	}
	cancel()
	var kinds []EventKind
	for e := range ch {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{DesignLoaded, CLBRelocated, DesignMoved, DesignUnloaded}
	got := fmt.Sprint(kinds)
	if got != fmt.Sprint(want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}

// TestLaggingSubscriberCountsDrops: a subscriber whose buffer is full misses
// events rather than stalling the system, and the next event it receives
// says how many it missed; a keeping-up subscriber sees no drops.
func TestLaggingSubscriberCountsDrops(t *testing.T) {
	s := newSys(t)
	lag, cancelLag := s.Subscribe(1)
	defer cancelLag()
	all, cancelAll := s.Subscribe(128)
	if _, err := s.Load(mkCounter("evt"), fabric.Rect{Row: 2, Col: 2, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("evt", fabric.Rect{Row: 5, Col: 5, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	published := len(all) // DesignLoaded, CLBRelocated, DesignMoved
	if first := <-lag; first.Kind != DesignLoaded || first.Dropped != 0 {
		t.Fatalf("first lagging event = %v (dropped %d), want design-loaded with none dropped", first, first.Dropped)
	}
	if err := s.Unload("evt"); err != nil {
		t.Fatal(err)
	}
	next := <-lag
	if next.Kind != DesignUnloaded || next.Dropped != published-1 {
		t.Fatalf("next lagging event = %v (dropped %d), want design-unloaded after %d dropped", next, next.Dropped, published-1)
	}
	cancelAll()
	for e := range all {
		if e.Dropped != 0 {
			t.Fatalf("a keeping-up subscriber saw %d drops before %v", e.Dropped, e)
		}
	}
}
