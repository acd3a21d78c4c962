package rlm

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/place"
)

// ErrDeviceMismatch re-exports the journal's readback-mismatch sentinel: the
// journal's state references configuration the device readback does not show
// (wrong device, or the fabric lost state while the host was down).
var ErrDeviceMismatch = journal.ErrDeviceMismatch

// RecoverReport describes what Recover did to reconcile the journal tail
// against the device.
type RecoverReport struct {
	// Action is "clean" (the journal ended on a seal), "rolled-forward"
	// (the tail's shift had fully landed: its post state was installed and
	// sealed committed) or "rolled-back" (the tail was undone frame by frame
	// from its journaled pre-images and sealed aborted).
	Action string
	// Seq is the operation sequence number the installed state corresponds
	// to (0 when nothing ever committed).
	Seq uint64
	// TailOp names the unsealed tail operation that was reconciled ("" for a
	// clean journal).
	TailOp string
	// FramesChecked counts the frames read back through the configuration
	// port for the digest comparison.
	FramesChecked int
	// FramesRestored counts the frames rewritten through the port by a
	// roll-back (0 for clean and rolled-forward recoveries).
	FramesRestored int
	// RecoverySeconds is the configuration-port transport time the
	// reconciliation itself consumed (recovery-class traffic). It is
	// reported here and NOT added to the recovered system's accounting: the
	// restored counters are the never-crashed twin's, which is what makes
	// recovery transparent to the paper's cost model.
	RecoverySeconds float64
	// Designs lists the designs live in the recovered system.
	Designs []string
}

// Recover rebuilds a System from a crashed host's operation journal,
// reconciling the journal tail against the device readback. dev is the live
// device the crashed system was driving (in this reproduction the simulated
// fabric outlives the host model; a crash-torture harness hands in its
// mirror of everything the port delivered).
//
// The decision table:
//
//   - journal ends on a Commit/Abort seal → install the last committed
//     state; the device already matches it.
//   - unsealed tail WITH a Post record whose dirty-frame digests all match
//     the device readback → the shift completed before the crash: roll
//     forward (install the tail's post state, seal Commit).
//   - unsealed tail otherwise → the shift was interrupted: roll back by
//     rewriting every journaled pre-image the device diverges from, install
//     the last committed state, seal Abort.
//
// Either way the journal is left sealed and the returned System journals
// onto it, so recovery is idempotent and crash-safe itself. A journal whose
// committed state references designs the device readback no longer shows
// fails with ErrDeviceMismatch (wrapped), as does a device-geometry mismatch.
//
// Options are applied over the journal's recorded configuration.
func Recover(dev *fabric.Device, journalPath string, opts ...Option) (*System, *RecoverReport, error) {
	log, err := journal.Scan(journalPath)
	if err != nil {
		return nil, nil, fmt.Errorf("rlm: scanning journal: %w", err)
	}
	rs, err := journal.Replay(log)
	if err != nil {
		return nil, nil, fmt.Errorf("rlm: replaying journal: %w", err)
	}
	if rs.Init.Preset != dev.Name || rs.Init.Rows != dev.Rows || rs.Init.Cols != dev.Cols {
		return nil, nil, fmt.Errorf("%w: journal for %s %dx%d, device is %s %dx%d",
			ErrDeviceMismatch, rs.Init.Preset, rs.Init.Rows, rs.Init.Cols, dev.Name, dev.Rows, dev.Cols)
	}
	cfg := configFromInit(rs.Init)
	for _, o := range opts {
		o(&cfg)
	}
	s, err := newSystem(&cfg, dev)
	if err != nil {
		return nil, nil, err
	}
	// A fresh system's accounting (the link reset) is what a
	// nothing-ever-committed recovery keeps.
	counters := s.port.Counters()
	j, err := journal.OpenAppend(journalPath, rs.ValidLen)
	if err != nil {
		return nil, nil, fmt.Errorf("rlm: reopening journal: %w", err)
	}
	rep := &RecoverReport{Action: "clean"}
	target := rs.State
	if rs.Tail != nil {
		rep.TailOp = rs.Tail.Begin.Op
		forward := false
		if rs.Tail.Post != nil {
			forward, err = s.digestsMatch(rs.Tail.Post.Dirty, rep)
			if err != nil {
				j.Close()
				return nil, nil, err
			}
		}
		if forward {
			rep.Action = "rolled-forward"
			target = rs.Tail.Post.State
			err = sealTail(j, journal.RecCommit, rs.Tail.Begin.Seq)
		} else {
			rep.Action = "rolled-back"
			if err = s.applyUndo(rs.Tail.Undo, rep); err == nil {
				err = sealTail(j, journal.RecAbort, rs.Tail.Begin.Seq)
			}
		}
		if err != nil {
			j.Close()
			return nil, nil, err
		}
	}
	if err := s.installState(&target); err != nil {
		j.Close()
		return nil, nil, err
	}
	rep.Seq = target.Seq
	for _, ds := range target.Designs {
		rep.Designs = append(rep.Designs, ds.Name)
	}
	// Measure the reconciliation's own transport cost before the restored
	// counters overwrite it.
	rep.RecoverySeconds = s.port.Seconds(bitstream.Recovery)
	if target.Seq > 0 {
		s.engine.RestoreAccounting(target.Stats, target.LastTick)
		counters = countersFromState(&target)
	}
	s.port.RestoreCounters(counters)
	s.attachJournal(j, rs.LastSeq)
	s.jrnl.path = journalPath
	s.jrnl.rotate = cfg.journalRot
	s.startScrubber(cfg.scrubEvery, cfg.scrubBatch)
	return s, rep, nil
}

// configFromInit rebuilds the construction parameters the journal recorded.
func configFromInit(init journal.Init) config {
	var cfg config
	// Anything but "selectmap" is Boundary-Scan: "jtag", and "custom" in
	// journals written before fault hooks replaced substitute port models.
	if init.Port == "selectmap" {
		cfg.port = SelectMAP
	}
	cfg.clockHz = init.ClockHz
	cfg.appClockHz = init.AppClockHz
	cfg.serialCommit = init.Serial
	cfg.compress = init.Compress
	cfg.portWidth = init.PortWidth
	return cfg
}

// digestsMatch compares the tail's dirty-frame digests against device
// readback through the configuration port.
func (s *System) digestsMatch(dirty []journal.FrameDigest, rep *RecoverReport) (bool, error) {
	for _, d := range dirty {
		data, err := s.port.Read(bitstream.Recovery, d.Addr)
		if err != nil {
			return false, fmt.Errorf("%w: reading frame %v: %v", ErrDeviceMismatch, d.Addr, err)
		}
		rep.FramesChecked++
		if crcFrame(data) != d.CRC {
			return false, nil
		}
	}
	return true, nil
}

// applyUndo rewrites every journaled pre-image the device diverges from,
// first record per frame wins (the writer dedups, so this is belt and
// braces).
func (s *System) applyUndo(undo []journal.Undo, rep *RecoverReport) error {
	done := make(map[fabric.FrameAddr]bool, len(undo))
	for _, u := range undo {
		if done[u.Addr] {
			continue
		}
		done[u.Addr] = true
		cur, err := s.port.Read(bitstream.Recovery, u.Addr)
		if err != nil {
			return fmt.Errorf("%w: reading frame %v: %v", ErrDeviceMismatch, u.Addr, err)
		}
		rep.FramesChecked++
		if frameWordsEqual(cur, u.Words) {
			continue
		}
		// The diverged readback is the restore's delta baseline: a compressed
		// port ships only the runs the interrupted shift actually changed.
		if err := s.port.Write(bitstream.Recovery, []bitstream.FrameUpdate{{Addr: u.Addr, Data: u.Words, Prev: cur}}); err != nil {
			return fmt.Errorf("rlm: restoring frame %v: %w", u.Addr, err)
		}
		rep.FramesRestored++
	}
	return nil
}

func frameWordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sealTail appends and syncs the reconciliation seal.
func sealTail(j *journal.Journal, t journal.RecType, seq uint64) error {
	if err := j.Append(t, journal.Seal{Seq: seq}); err != nil {
		return fmt.Errorf("rlm: sealing recovered tail: %w", err)
	}
	if err := j.Sync(); err != nil {
		return fmt.Errorf("rlm: sealing recovered tail: %w", err)
	}
	return nil
}

// installState rebuilds the host book-keeping from a journaled state and
// validates it against the (already reconciled) device: every design the
// state claims must still show its cells in the readback.
func (s *System) installState(st *journal.State) error {
	for _, ds := range st.Designs {
		nl, err := netlist.FromNodes(ds.Name, ds.Nodes)
		if err != nil {
			return fmt.Errorf("%w: design %q: %v", journal.ErrMalformed, ds.Name, err)
		}
		for id, ref := range ds.CellOf {
			if !ds.Region.Contains(ref.Coord) {
				return fmt.Errorf("%w: design %q cell %v outside region %v",
					journal.ErrMalformed, ds.Name, ref, ds.Region)
			}
			if !s.dev.ReadCell(ref).InUse() {
				return fmt.Errorf("%w: design %q node %d expects cell %v, readback shows it empty",
					ErrDeviceMismatch, ds.Name, id, ref)
			}
		}
		d := &place.Design{
			Name:     ds.Name,
			Dev:      s.dev,
			NL:       nl,
			Region:   ds.Region,
			CellOf:   ds.CellOf,
			PadOf:    ds.PadOf,
			SourceOf: ds.SourceOf,
			Nets:     ds.Nets,
		}
		if d.CellOf == nil {
			d.CellOf = map[netlist.ID]fabric.CellRef{}
		}
		if d.PadOf == nil {
			d.PadOf = map[netlist.ID]fabric.PadRef{}
		}
		if d.SourceOf == nil {
			d.SourceOf = map[netlist.ID]fabric.NodeID{}
		}
		s.designs[ds.Name] = d
		s.regions[ds.Name] = ds.Alloc
	}
	for _, p := range st.Pads {
		s.pads[p] = true
	}
	// A zero-valued state (nothing ever committed) leaves the fresh area
	// manager alone; NextAlloc is 1 from the first commit on.
	if st.NextAlloc > 0 {
		allocs := make([]area.Alloc, 0, len(st.Allocs))
		for _, a := range st.Allocs {
			allocs = append(allocs, area.Alloc{ID: a.ID, Rect: a.Rect})
		}
		if err := s.area.Restore(allocs, st.NextAlloc); err != nil {
			return fmt.Errorf("%w: %v", journal.ErrMalformed, err)
		}
	}
	// Re-apply the journaled quarantine mask before anything else delivers
	// frames: the frame filter and the area mask are permanent, and the
	// journaled Stats already count the quarantine (record off).
	if len(st.Quarantined) > 0 {
		s.quarantineFramesLocked(st.Quarantined, false)
	}
	// Restore the health ledger on top of the mask: quarantineFramesLocked
	// already condemned the masked columns in the tracker (a backward-compat
	// default for journals without a ledger); a journaled ledger overrides it
	// with the exact states, rates and probe streaks.
	if len(st.Health) > 0 {
		cols := make([]health.Column, 0, len(st.Health))
		for _, h := range st.Health {
			cols = append(cols, health.Column{
				Major:       h.Major,
				State:       health.State(h.State),
				Rate:        h.Rate,
				CleanProbes: h.CleanProbes,
				CleanChecks: h.CleanChecks,
				Probes:      h.Probes,
				ProbeFails:  h.ProbeFails,
				Repairs:     h.Repairs,
			})
		}
		s.health.Restore(cols)
	}
	// Capture the reconciled device into the tool's shadow (the paper's
	// complete configuration copy) and rebuild routing occupancy from it.
	if err := s.engine.Tool.Sync(); err != nil {
		return err
	}
	s.rebuildRouterLocked()
	return nil
}
