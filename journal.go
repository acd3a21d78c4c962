package rlm

import (
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/netlist"
)

// sysJournal is the facade's write-ahead journal state. Each mutating facade
// operation journals Begin (intent) right after its checkpoint arms, Undo
// records (frame pre-images from the checkpoint's copy-on-write snapshot)
// before every flush delivers frames through the port, Post (the complete
// host book-keeping plus dirty-frame digests) once the operation's stream
// has fully shifted out, and a Commit or Abort seal. Recovery (rlm.Recover)
// reconciles an unsealed tail against device readback.
type sysJournal struct {
	j      *journal.Journal
	seq    uint64
	active bool
	op     string
	cp     *checkpoint
	// seen dedups undo records per operation: one pre-image per frame, the
	// first one journaled (which is the checkpoint-epoch content — retries
	// inside one op re-dirty frames without changing their epoch image).
	seen map[fabric.FrameAddr]bool
	// path/rotate drive opt-in journal rotation (WithJournalRotation): after
	// a commit seal, a file past rotate bytes is compacted in place. path is
	// empty when the journal was attached without a known file path.
	path   string
	rotate int64
}

// sysBarrier adapts the System to the frame tool's flush-ordering barrier.
type sysBarrier struct{ s *System }

// PreDeliver journals the pre-image of every not-yet-covered frame of the
// delivery and forces the records to stable storage — the write-ahead
// contract: by the time the port can have changed the device, the journal
// can undo it.
func (b sysBarrier) PreDeliver(addrs []fabric.FrameAddr) error { return b.journalUndo(addrs, false) }

// PreStage journals the pre-images of every frame a rehearsed relocation
// sequence will deliver, as one batch behind one sync, before the sequence
// stages anything; its flushes then find every frame covered. A frame the
// operation has not changed yet still holds its checkpoint-epoch content in
// the shadow, so that is its pre-image.
func (b sysBarrier) PreStage(addrs []fabric.FrameAddr) error { return b.journalUndo(addrs, true) }

func (b sysBarrier) journalUndo(addrs []fabric.FrameAddr, ahead bool) error {
	s := b.s
	js := s.jrnl
	if js == nil || !js.active || s.restoring {
		return nil
	}
	wrote := false
	for _, addr := range addrs {
		if js.seen[addr] {
			continue
		}
		pre, ok := js.cp.snap.Preimage(addr)
		if !ok && ahead {
			pre, ok = s.engine.Tool.Shadow().Frame(addr)
		}
		if !ok {
			// The frame did not change since the checkpoint epoch (an
			// identical rewrite); nothing to undo.
			continue
		}
		js.seen[addr] = true
		if err := js.j.Append(journal.RecUndo, journal.Undo{Seq: js.seq, Addr: addr, Words: pre}); err != nil {
			return err
		}
		wrote = true
	}
	if wrote {
		if err := js.j.Sync(); err != nil {
			return err
		}
		s.crash("undo")
	}
	return nil
}

// Delivered mirrors the delivered configuration out to the crash-torture
// hook (the harness maintains a "what the fabric holds" device from exactly
// these notifications).
func (b sysBarrier) Delivered(updates []bitstream.FrameUpdate) {
	s := b.s
	if s.onDelivered != nil {
		s.onDelivered(updates)
	}
	s.crash("delivered")
}

// crash invokes the crash-simulation hook (tests only; nil in production).
func (s *System) crash(stage string) {
	if s.crashHook != nil {
		s.crashHook(stage)
	}
}

// attachJournalLocked wires an open journal into the system: barrier on the
// frame tool, recovery notifications on.
func (s *System) attachJournal(j *journal.Journal, seq uint64) {
	s.jrnl = &sysJournal{j: j, seq: seq}
	s.engine.Tool.SetBarrier(sysBarrier{s})
}

// journalInit appends the opening record of a fresh journal.
func (s *System) journalInit(cfg *config) error {
	portKind := "jtag"
	if cfg.port == SelectMAP {
		portKind = "selectmap"
	}
	init := journal.Init{
		Preset:     s.dev.Name,
		Rows:       s.dev.Rows,
		Cols:       s.dev.Cols,
		Port:       portKind,
		ClockHz:    cfg.clockHz,
		AppClockHz: cfg.appClockHz,
		Serial:     cfg.serialCommit,
		Compress:   cfg.compress,
		PortWidth:  cfg.portWidth,
	}
	if err := s.jrnl.j.Append(journal.RecInit, init); err != nil {
		return err
	}
	return s.jrnl.j.Sync()
}

// journalBeginLocked opens one journaled operation over an armed checkpoint.
// Returns nil (no-op) on an unjournaled system. An error means the intent
// could not be made durable; the caller must fail the operation before any
// physical work.
func (s *System) journalBeginLocked(cp *checkpoint, op, design string, region fabric.Rect, detail string) error {
	js := s.jrnl
	if js == nil {
		return nil
	}
	js.seq++
	js.active = true
	js.op = op
	js.cp = cp
	js.seen = make(map[fabric.FrameAddr]bool)
	err := js.j.Append(journal.RecBegin, journal.Begin{
		Seq: js.seq, Op: op, Design: design, Region: region, Detail: detail,
	})
	if err == nil {
		err = js.j.Sync()
	}
	if err != nil {
		js.active = false
		return fmt.Errorf("rlm: journaling %s: %w", op, err)
	}
	s.crash("begin")
	return nil
}

// journalCommitLocked seals the active operation as committed: the full
// post-operation state and the dirty-frame digests land, then the commit
// seal. The caller (transact) has harvested the stream already, so every
// frame is delivered and its undo record journaled. An error leaves the
// operation unsealed; the caller rolls back physically and seals with
// journalAbortLocked, keeping journal and fabric in agreement.
func (s *System) journalCommitLocked() error {
	js := s.jrnl
	if js == nil || !js.active {
		return nil
	}
	state := s.journalStateLocked()
	state.Seq = js.seq
	dirty := js.cp.snap.Frames()
	digests := make([]journal.FrameDigest, 0, len(dirty))
	for _, addr := range dirty {
		if s.quarantined[addr] {
			// Condemned memory reads back garbage; a digest over it could
			// never match and would force recovery into a spurious roll-back.
			continue
		}
		data, ok := s.engine.Tool.Shadow().Frame(addr)
		if !ok {
			return fmt.Errorf("rlm: journal digest: frame %v missing from shadow", addr)
		}
		digests = append(digests, journal.FrameDigest{Addr: addr, CRC: crcFrame(data)})
	}
	err := js.j.Append(journal.RecPost, journal.Post{Seq: js.seq, State: state, Dirty: digests})
	if err == nil {
		err = js.j.Sync()
	}
	if err != nil {
		return fmt.Errorf("rlm: journaling post state: %w", err)
	}
	s.crash("post")
	err = js.j.Append(journal.RecCommit, journal.Seal{Seq: js.seq})
	if err == nil {
		err = js.j.Sync()
	}
	if err != nil {
		return fmt.Errorf("rlm: sealing commit: %w", err)
	}
	js.active = false
	js.cp = nil
	js.seen = nil
	s.crash("commit")
	s.maybeRotateLocked()
	return nil
}

// maybeRotateLocked compacts the journal file in place once it has grown
// past the opt-in rotation threshold. It runs only on a freshly sealed
// commit — never with an open tail, so the file Compact sees is sealed by
// construction. Best-effort: a failed compaction keeps appending to the
// original file; a failed reopen leaves the journal closed, so the next
// journaled operation fails with a typed error instead of losing records
// silently.
func (s *System) maybeRotateLocked() {
	js := s.jrnl
	if js == nil || js.rotate <= 0 || js.path == "" || js.j.Offset() < js.rotate {
		return
	}
	validLen := js.j.Offset()
	js.j.Close()
	if n, err := journal.Compact(js.path); err == nil {
		validLen = n
	}
	if j, err := journal.OpenAppend(js.path, validLen); err == nil {
		js.j = j
	}
}

// journalAbortLocked seals the active operation as rolled back (the physical
// rollback has already run). Best-effort: a failing abort append leaves the
// tail unsealed, which recovery resolves to the same roll-back outcome.
func (s *System) journalAbortLocked() {
	js := s.jrnl
	if js == nil || !js.active {
		return
	}
	if err := js.j.Append(journal.RecAbort, journal.Seal{Seq: js.seq}); err == nil {
		_ = js.j.Sync()
	}
	js.active = false
	js.cp = nil
	js.seen = nil
	s.crash("abort")
}

// countersFromState rebuilds the transport accounting a journaled state
// recorded.
func countersFromState(st *journal.State) bitstream.Counters {
	var c bitstream.Counters
	c[bitstream.Foreground] = bitstream.ClassCounters{Cycles: st.PortCycles, Traffic: bitstream.Traffic{
		WordsShifted: st.WordsShifted, FullWords: st.FullWords, FramesDelivered: st.FramesDelivered,
	}}
	for class := bitstream.Retry; class < bitstream.NumClasses; class++ {
		c[class] = st.Maintenance[class.String()]
	}
	return c
}

func crcFrame(words []uint32) uint32 {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return crc32.ChecksumIEEE(buf)
}

// journalStateLocked serialises the complete host book-keeping.
func (s *System) journalStateLocked() journal.State {
	c := s.port.Counters()
	fg := c[bitstream.Foreground]
	st := journal.State{
		Stats:           s.engine.Stats,
		LastTick:        s.engine.LastTick(),
		PortCycles:      fg.Cycles,
		WordsShifted:    fg.WordsShifted,
		FullWords:       fg.FullWords,
		FramesDelivered: fg.FramesDelivered,
	}
	for class := bitstream.Retry; class < bitstream.NumClasses; class++ {
		if c[class] != (bitstream.ClassCounters{}) {
			if st.Maintenance == nil {
				st.Maintenance = map[string]bitstream.ClassCounters{}
			}
			st.Maintenance[class.String()] = c[class]
		}
	}
	names := make([]string, 0, len(s.designs))
	for name := range s.designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.designs[name]
		ds := journal.DesignState{
			Name:     name,
			Region:   d.Region,
			Alloc:    s.regions[name],
			Nodes:    append([]netlist.Node(nil), d.NL.Nodes...),
			CellOf:   d.CellOf,
			PadOf:    d.PadOf,
			SourceOf: d.SourceOf,
			Nets:     d.Nets,
		}
		st.Designs = append(st.Designs, ds)
	}
	for p := range s.pads {
		st.Pads = append(st.Pads, p)
	}
	sort.Slice(st.Pads, func(i, j int) bool {
		a, b := st.Pads[i], st.Pads[j]
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.K < b.K
	})
	st.Allocs = make([]journal.Alloc, 0)
	allocs, next := s.area.Export()
	for _, a := range allocs {
		st.Allocs = append(st.Allocs, journal.Alloc{ID: a.ID, Rect: a.Rect})
	}
	st.NextAlloc = next
	for addr := range s.quarantined {
		st.Quarantined = append(st.Quarantined, addr)
	}
	sort.Slice(st.Quarantined, func(i, j int) bool {
		a, b := st.Quarantined[i], st.Quarantined[j]
		if a.Major != b.Major {
			return a.Major < b.Major
		}
		return a.Minor < b.Minor
	})
	for _, c := range s.health.Columns() {
		st.Health = append(st.Health, journal.ColumnHealth{
			Major:       c.Major,
			State:       uint8(c.State),
			Rate:        c.Rate,
			CleanProbes: c.CleanProbes,
			CleanChecks: c.CleanChecks,
			Probes:      c.Probes,
			ProbeFails:  c.ProbeFails,
			Repairs:     c.Repairs,
		})
	}
	return st
}
