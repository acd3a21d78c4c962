package rlm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/itc99"
)

// faultSystem builds a system with a fault plan hooked into its transport,
// returning the plan for fault control.
func faultSystem(t *testing.T, seed uint64, extra ...Option) (*System, *faultport.Hook) {
	t.Helper()
	flaky := faultport.New(seed)
	opts := append([]Option{
		WithDevice(fabric.TestDevice),
		withFaultHook(flaky),
	}, extra...)
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys, flaky
}

// maskFaultStats zeroes the counters the fault layer owns, so a faulty run
// can be bit-compared against a fault-free twin: everything else — frames,
// book-keeping, TCK cycles, tick cursor — must still be identical.
func maskFaultStats(st hostState) hostState {
	st.stats.FaultsDetected = 0
	st.stats.FaultRetries = 0
	st.stats.RetrySeconds = 0
	return st
}

// TestChaosRetryBitIdenticalToFaultFree is the degradation ladder's first
// rung, as a chaos property: a transient transport fault injected after any
// frame budget must be absorbed by the retry ladder — every facade operation
// of the scripted workout still succeeds, and the final configuration image,
// host book-keeping and cycle accounting are bit-identical to a fault-free
// twin's (the retry traffic is its own class). Run with -race.
func TestChaosRetryBitIdenticalToFaultFree(t *testing.T) {
	clean, err := New(WithDevice(fabric.TestDevice))
	if err != nil {
		t.Fatal(err)
	}
	crashScript(t, clean)
	want := maskFaultStats(captureState(clean))

	budgets := []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}
	if testing.Short() {
		budgets = []int{0, 3, 21, 144}
	}
	detected := 0
	for _, budget := range budgets {
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			sys, flaky := faultSystem(t, 7, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2}))
			events, cancel := sys.Subscribe(256)
			defer cancel()
			flaky.TripAfter(budget)
			crashScript(t, sys) // every op must succeed; the script fatals otherwise
			st := sys.Stats()
			if st.RetriesExhausted != 0 {
				t.Fatalf("transient fault exhausted retries: %+v", st)
			}
			detected += st.FaultsDetected
			if st.FaultsDetected > 0 {
				if st.FaultRetries == 0 {
					t.Fatalf("fault detected but never retried: %+v", st)
				}
				cancel()
				sawRetryOK := false
				for e := range events {
					if e.Kind == RetrySucceeded {
						sawRetryOK = true
					}
				}
				if !sawRetryOK {
					t.Fatal("fault detected but no RetrySucceeded event published")
				}
			}
			if diffs := diffStates(maskFaultStats(captureState(sys)), want); len(diffs) > 0 {
				t.Fatalf("faulty run diverges from fault-free twin: %s", diffs[0])
			}
		})
	}
	if detected == 0 {
		t.Fatal("no budget ever tripped a fault; the chaos sweep tested nothing")
	}
}

// condemnColumns arms persistent write failures on every frame of the CLB
// columns carrying the given array columns, returning the condemned frame
// count.
func condemnColumns(t *testing.T, dev *fabric.Device, flaky *faultport.Hook, cols ...int) int {
	t.Helper()
	n := 0
	for _, c := range cols {
		major := dev.MajorOfArrayCol(c)
		col, ok := dev.ColumnByMajor(major)
		if !ok || col.Kind != fabric.ColCLB {
			t.Fatalf("array col %d: no CLB configuration column", c)
		}
		for minor := 0; minor < col.Frames; minor++ {
			flaky.FailFrames(fabric.FrameAddr{Major: major, Minor: minor})
			n++
		}
	}
	return n
}

// TestPersistentFaultQuarantinesAndEvacuates is the ladder's last rung:
// a persistent per-frame write failure survives every retry, the operation
// fails typed (ErrRetriesExhausted) and rolls back, the condemned columns
// are quarantined out of the logic space, and the design resident on them
// is evacuated to healthy space — after which explicit placement into the
// condemned columns is refused (ErrQuarantined) and auto-placement avoids
// them.
func TestPersistentFaultQuarantinesAndEvacuates(t *testing.T) {
	sys, flaky := faultSystem(t, 11, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}))
	home := fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}
	if _, err := sys.Load(mkCounter("vic"), home); err != nil {
		t.Fatal(err)
	}
	events, cancel := sys.Subscribe(256)
	defer cancel()

	condemned := condemnColumns(t, sys.Device(), flaky, 0, 1)
	err := sys.Move("vic", fabric.Rect{Row: 4, Col: 0, H: 2, W: 2})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("move across condemned columns: %v, want ErrRetriesExhausted", err)
	}

	st := sys.Stats()
	if st.RetriesExhausted != 1 || st.FaultsDetected == 0 {
		t.Fatalf("ladder counters: %+v", st)
	}
	if st.FramesQuarantined != condemned {
		t.Fatalf("FramesQuarantined = %d, want %d (both columns, whole)", st.FramesQuarantined, condemned)
	}
	if st.DesignsEvacuated != 1 {
		t.Fatalf("DesignsEvacuated = %d, want 1", st.DesignsEvacuated)
	}
	if !sys.Area().QuarantineOverlaps(home) {
		t.Fatal("condemned columns not quarantined in the area manager")
	}
	region, ok := sys.Region("vic")
	if !ok {
		t.Fatal("design lost by the evacuation")
	}
	if sys.Area().QuarantineOverlaps(region) {
		t.Fatalf("design evacuated onto quarantined space: %v", region)
	}

	cancel()
	saw := map[EventKind]int{}
	var evac Event
	for e := range events {
		saw[e.Kind]++
		if e.Kind == DesignEvacuated {
			evac = e
		}
	}
	for _, k := range []EventKind{FaultDetected, RetriesExhausted, FrameQuarantined, DesignEvacuated} {
		if saw[k] == 0 {
			t.Errorf("event %v never published (saw %v)", k, saw)
		}
	}
	if evac.Design != "vic" || evac.Region != region {
		t.Errorf("DesignEvacuated = %+v, want vic -> %v", evac, region)
	}

	// Explicit placement into the condemned columns is refused before any
	// frame streams; a busy-region error would be misleading (the space can
	// never free up).
	if _, err := sys.Load(mkCounter("x"), fabric.Rect{Row: 6, Col: 0, H: 2, W: 2}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("load into quarantined columns: %v, want ErrQuarantined", err)
	}
	// Auto-placement must route around the mask.
	d, err := sys.Load(mkCounter("auto"), fabric.Rect{})
	if err != nil {
		t.Fatalf("auto-placed load after quarantine: %v", err)
	}
	if sys.Area().QuarantineOverlaps(d.Region) {
		t.Fatalf("auto-placement chose quarantined space: %v", d.Region)
	}
	// The evacuated design is still live: it moves on healthy fabric.
	if err := sys.Move("vic", fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}); err != nil {
		t.Fatalf("post-evacuation move: %v", err)
	}
}

// TestScrubRepairsSilentCorruption: a silent SEU — readback diverges from
// the golden shadow with no transport error — is found and repaired by one
// scrub pass, the repair is observable (report, Stats, event), and the scrub
// traffic stays out of the foreground cycle accounting.
func TestScrubRepairsSilentCorruption(t *testing.T) {
	sys, flaky := faultSystem(t, 23)
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	events, cancel := sys.Subscribe(64)
	defer cancel()

	addr := fabric.FrameAddr{Major: sys.Device().MajorOfArrayCol(0), Minor: 1}
	want, ok := sys.Engine().Tool.Shadow().Frame(addr)
	if !ok {
		t.Fatalf("frame %v missing from shadow", addr)
	}
	flaky.FlipBit(addr, 2, 7)
	if got, err := sys.Port().Read(bitstream.Scrub, addr); err != nil || frameWordsEqual(got, want) {
		t.Fatalf("SEU not visible on readback (err %v)", err)
	}

	cycles0 := sys.Port().Cycles()
	rep, err := sys.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || rep.FramesChecked == 0 {
		t.Fatalf("scrub pass did not run: %+v", rep)
	}
	if len(rep.Repairs) != 1 || rep.Repairs[0] != addr {
		t.Fatalf("repairs = %v, want [%v]", rep.Repairs, addr)
	}
	st := sys.Stats()
	if st.ScrubRepairs != 1 || st.ScrubChecked != rep.FramesChecked || st.ScrubSeconds <= 0 {
		t.Fatalf("scrub stats: %+v", st)
	}
	if sys.Port().Cycles() != cycles0 {
		t.Fatalf("scrub traffic leaked into foreground accounting: %d -> %d", cycles0, sys.Port().Cycles())
	}
	if got, err := sys.Port().Read(bitstream.Scrub, addr); err != nil || !frameWordsEqual(got, want) {
		t.Fatalf("frame not repaired (err %v)", err)
	}
	// A second pass over the repaired memory finds nothing.
	rep2, err := sys.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Repairs) != 0 {
		t.Fatalf("second pass repaired again: %v", rep2.Repairs)
	}
	cancel()
	sawRepair := false
	for e := range events {
		if e.Kind == ScrubRepair && e.Frame == addr {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Fatal("no ScrubRepair event published")
	}
}

// TestBackgroundScrubberRepairsUnderLoad runs the WithScrubber goroutine
// against concurrent foreground relocations (the stream-in-flight gate) and
// checks an injected SEU is repaired in the background. Run with -race.
func TestBackgroundScrubberRepairsUnderLoad(t *testing.T) {
	sys, flaky := faultSystem(t, 31, WithScrubber(200*time.Microsecond, 16))
	defer sys.Close()
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	flaky.FlipBit(fabric.FrameAddr{Major: sys.Device().MajorOfArrayCol(4), Minor: 0}, 1, 3)

	// Foreground churn while the scrubber sweeps.
	a := fabric.Rect{Row: 4, Col: 6, H: 2, W: 2}
	b := fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}
	cur := fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}
	deadline := time.Now().Add(10 * time.Second)
	for sys.Stats().ScrubRepairs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never repaired the SEU: %+v", sys.Stats())
		}
		next := a
		if cur == a {
			next = b
		}
		if err := sys.Move("c1", next); err != nil {
			t.Fatalf("foreground move: %v", err)
		}
		cur = next
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestCrashDuringRetryRecovers simulates a host crash inside the retry
// ladder — after the fault was detected, before the re-delivery attempt —
// and recovers from the journal prefix plus the delivered-frame mirror. The
// in-flight operation must roll back to the previous committed boundary,
// and the journal ends sealed and consistent.
func TestCrashDuringRetryRecovers(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	flaky := faultport.New(3)
	sys, err := New(WithDevice(fabric.TestDevice),
		WithJournal(jpath),
		WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2}),
		withFaultHook(flaky))
	if err != nil {
		t.Fatal(err)
	}
	mirror := map[fabric.FrameAddr][]uint32{}
	sys.onDelivered = func(updates []bitstream.FrameUpdate) {
		for _, u := range updates {
			mirror[u.Addr] = append([]uint32(nil), u.Data...)
		}
	}
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	oracle := captureState(sys)

	var capture *crashPoint
	sys.crashHook = func(stage string) {
		if stage != "retry" || capture != nil {
			return
		}
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatalf("reading journal at retry boundary: %v", err)
		}
		if off := sys.jrnl.j.Offset(); int64(len(data)) > off {
			data = data[:off]
		}
		capture = &crashPoint{stage: stage, jdata: append([]byte(nil), data...), frames: cloneFrames(mirror)}
	}
	flaky.TripAfter(0)
	// The live (uncrashed) system absorbs the transient via the ladder.
	if err := sys.Move("c1", fabric.Rect{Row: 4, Col: 4, H: 2, W: 2}); err != nil {
		t.Fatalf("move should have survived the transient: %v", err)
	}
	if capture == nil {
		t.Fatal("retry boundary never fired")
	}

	path := filepath.Join(dir, "crash-retry.journal")
	if err := os.WriteFile(path, capture.jdata, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(deviceFromFrames(t, capture.frames), path)
	if err != nil {
		t.Fatalf("recover from mid-retry crash: %v", err)
	}
	if rep.Action != "rolled-back" {
		t.Fatalf("action = %q, want rolled-back (retry window has no post state)", rep.Action)
	}
	if diffs := diffStates(captureState(rec), oracle); len(diffs) > 0 {
		t.Fatalf("recovered state diverges from pre-op boundary: %s", diffs[0])
	}
	// The recovered system is live and journals on.
	if err := rec.Move("c1", fabric.Rect{Row: 6, Col: 8, H: 2, W: 2}); err != nil {
		t.Fatalf("post-recovery move: %v", err)
	}
}

// TestRecoverWithFaultHook: a fault hook is not a port kind — a system
// journaled with one records its real transport, so Recover restores the
// accounting bit-identically with the hook re-passed (and the plan keeps
// acting on the recovered transport) or without it.
func TestRecoverWithFaultHook(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	flaky := faultport.New(5)
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath), withFaultHook(flaky))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Move("c1", fabric.Rect{Row: 4, Col: 6, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	want := captureState(sys)

	rec, rep, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath, withFaultHook(flaky))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "clean" {
		t.Fatalf("action = %q, want clean", rep.Action)
	}
	if diffs := diffStates(captureState(rec), want); len(diffs) > 0 {
		t.Fatalf("recovered state diverges (accounting restored under the hook): %s", diffs[0])
	}
	addr := fabric.FrameAddr{Major: rec.Device().MajorOfArrayCol(0), Minor: 1}
	flaky.FlipBit(addr, 2, 7)
	if scrub, err := rec.Scrub(0); err != nil || len(scrub.Repairs) != 1 {
		t.Fatalf("the re-passed hook does not act on the recovered transport: %+v, %v", scrub, err)
	}

	// Without the hook the recovery is the same, accounting included.
	rec2, _, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := diffStates(captureState(rec2), want); len(diffs) > 0 {
		t.Fatalf("hook-less recovery diverges: %s", diffs[0])
	}
}

// TestJournalRotationCompacts: with WithJournalRotation armed, the journal
// file is compacted in place after commit seals, so a long-running workout's
// journal stays bounded while recovery still lands on the exact final state.
func TestJournalRotationCompacts(t *testing.T) {
	dir := t.TempDir()

	plain, err := New(WithDevice(fabric.TestDevice), WithJournal(filepath.Join(dir, "plain.journal")))
	if err != nil {
		t.Fatal(err)
	}
	crashScript(t, plain)
	plainInfo, err := os.Stat(filepath.Join(dir, "plain.journal"))
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "rot.journal")
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath), WithJournalRotation(8192))
	if err != nil {
		t.Fatal(err)
	}
	shrank := false
	var prevBegin int64 = -1
	sys.crashHook = func(stage string) {
		if stage != "begin" {
			return
		}
		off := sys.jrnl.j.Offset()
		if prevBegin >= 0 && off < prevBegin {
			shrank = true
		}
		prevBegin = off
	}
	crashScript(t, sys)
	want := captureState(sys)
	if !shrank {
		t.Fatal("rotation never compacted the journal (threshold never crossed?)")
	}
	rotInfo, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if rotInfo.Size() >= plainInfo.Size() {
		t.Fatalf("rotated journal (%d bytes) not smaller than unrotated (%d bytes)",
			rotInfo.Size(), plainInfo.Size())
	}

	rec, rep, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath)
	if err != nil {
		t.Fatalf("recover from rotated journal: %v", err)
	}
	if rep.Action != "clean" {
		t.Fatalf("action = %q, want clean", rep.Action)
	}
	if diffs := diffStates(captureState(rec), want); len(diffs) > 0 {
		t.Fatalf("recovered state diverges after rotation: %s", diffs[0])
	}
}

// TestRollbackDrainsStalledStream is the regression for a rollback racing
// the background stream. The stall watchdog gives up on a harvest while a
// long unload burst is still shifting, so the operation fails and rolls
// back with the superseded stream in flight; the recovery burst must queue
// behind it instead of feeding the configuration logic under it. Run with
// -race: the race detector flags any interleaving of the two.
func TestRollbackDrainsStalledStream(t *testing.T) {
	flaky := faultport.New(19)
	sys, err := New(WithDevice(fabric.XCV50), withFaultHook(flaky), WithStallTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	nl := itc99.Generate(itc99.GenConfig{
		Name: "wide", Inputs: 4, Outputs: 4, FFs: 60, LUTs: 120,
		Seed: 5, Style: itc99.FreeRunning,
	})
	if _, err := sys.Load(nl, fabric.Rect{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Engine().Tool.AwaitStream(); err != nil {
		t.Fatal(err)
	}
	before := dumpFrames(sys.Device())
	flaky.SetStall(time.Hour) // every harvest gives up after the watchdog's 1 ms
	err = sys.Unload("wide")
	if !errors.Is(err, ErrPortStalled) {
		t.Fatalf("unload over a stalled harvest: %v, want ErrPortStalled", err)
	}
	if _, ok := sys.Design("wide"); !ok {
		t.Fatal("failed unload not rolled back")
	}
	flaky.SetStall(0)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	after := dumpFrames(sys.Device())
	for addr, want := range before {
		if !frameWordsEqual(after[addr], want) {
			t.Fatalf("frame %v not restored by the rollback", addr)
		}
	}
	// The burst itself outlasts the 1 ms watchdog; without it the system
	// serves the same operation.
	sys.Engine().Tool.StallTimeout = 0
	if err := sys.Unload("wide"); err != nil {
		t.Fatalf("unload after the stall cleared: %v", err)
	}
}
