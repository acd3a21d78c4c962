package journal

import (
	"encoding/json"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/relocate"
	"repro/internal/route"
)

// Init is the journal's opening record: everything needed to rebuild a
// matching System over the same device geometry before replaying state.
type Init struct {
	Preset     string  `json:"preset"`
	Rows       int     `json:"rows,omitempty"` // geometry cross-check
	Cols       int     `json:"cols,omitempty"`
	Port       string  `json:"port"` // "jtag" or "selectmap" ("custom" in older journals)
	ClockHz    float64 `json:"clock_hz,omitempty"`
	AppClockHz float64 `json:"app_clock_hz,omitempty"`
	Serial     bool    `json:"serial,omitempty"`
	// Compress records that the port delivered compressed (delta/MFWR)
	// write streams; recovery rebuilds the system compressed so its traffic
	// and cycle accounting stay bit-identical. Absent in older journals.
	Compress bool `json:"compress,omitempty"`
	// PortWidth is the SelectMAP data-port width in bits (0 = the 8-bit
	// default). Absent in older journals and on Boundary-Scan systems.
	PortWidth int `json:"port_width,omitempty"`
}

// Begin declares one facade operation's intent. Recovery never re-executes
// the intent (roll-forward installs the Post state instead); the record
// exists so an interrupted journal is self-describing.
type Begin struct {
	Seq    uint64      `json:"seq"`
	Op     string      `json:"op"` // load, unload, move, move-staged, plan, defrag-need, defrag-slide
	Design string      `json:"design,omitempty"`
	Region fabric.Rect `json:"region,omitempty"`
	Detail string      `json:"detail,omitempty"`
}

// Undo carries the pre-image of one frame the operation dirties, appended
// before the frame's new content is delivered through the port.
type Undo struct {
	Seq   uint64           `json:"seq"`
	Addr  fabric.FrameAddr `json:"addr"`
	Words []uint32         `json:"words"`
}

// FrameDigest is the CRC-32 of one frame's post-operation content; the
// recovery path compares these against device readback to decide between
// roll-forward and roll-back.
type FrameDigest struct {
	Addr fabric.FrameAddr `json:"addr"`
	CRC  uint32           `json:"crc"`
}

// Post carries the complete post-operation host state.
type Post struct {
	Seq   uint64        `json:"seq"`
	State State         `json:"state"`
	Dirty []FrameDigest `json:"dirty,omitempty"`
}

// Seal is the payload of RecCommit and RecAbort.
type Seal struct {
	Seq uint64 `json:"seq"`
}

// DesignState serialises one loaded design's complete book-keeping: the
// netlist content, the placement tables and the routed nets. Maps keyed by
// integer ids marshal deterministically (encoding/json sorts keys).
type DesignState struct {
	Name     string                        `json:"name"`
	Region   fabric.Rect                   `json:"region"`
	Alloc    int                           `json:"alloc"`
	Nodes    []netlist.Node                `json:"nodes"`
	CellOf   map[netlist.ID]fabric.CellRef `json:"cell_of"`
	PadOf    map[netlist.ID]fabric.PadRef  `json:"pad_of,omitempty"`
	SourceOf map[netlist.ID]fabric.NodeID  `json:"source_of,omitempty"`
	Nets     []route.RoutedNet             `json:"nets,omitempty"`
}

// Alloc is one area-manager allocation.
type Alloc struct {
	ID   int         `json:"id"`
	Rect fabric.Rect `json:"rect"`
}

// State is the complete host book-keeping at a committed operation
// boundary: designs, pad reservations, area occupancy, and the accounting
// counters (engine statistics, port cycle counter, engine tick cursor) that
// make a recovered system's TCK accounting bit-identical to a never-crashed
// twin's.
type State struct {
	Seq        uint64          `json:"seq"`
	Designs    []DesignState   `json:"designs,omitempty"`
	Pads       []fabric.PadRef `json:"pads,omitempty"`
	Allocs     []Alloc         `json:"allocs,omitempty"`
	NextAlloc  int             `json:"next_alloc"`
	Stats      relocate.Stats  `json:"stats"`
	PortCycles uint64          `json:"port_cycles"`
	LastTick   float64         `json:"last_tick"`
	// WordsShifted/FullWords/FramesDelivered mirror the port's write-traffic
	// counters (bitstream.Traffic) at the commit boundary; recovery restores
	// them alongside PortCycles. Absent in pre-compression journals, which
	// decode to zero counters.
	WordsShifted    uint64 `json:"words_shifted,omitempty"`
	FullWords       uint64 `json:"full_words,omitempty"`
	FramesDelivered uint64 `json:"frames_delivered,omitempty"`
	// Maintenance holds the transport's maintenance traffic classes
	// (retry, scrub, probe, recovery — keyed by class name) at the commit
	// boundary, so their accounting survives a crash like the foreground's.
	// Absent in older journals, which decode to zero counters.
	Maintenance map[string]bitstream.ClassCounters `json:"maintenance,omitempty"`
	// Quarantined lists the configuration frames masked out after persistent
	// write failures; recovery re-applies the mask (frame filter plus area
	// quarantine) before anything is delivered. Absent in pre-quarantine
	// journals, which decode to an empty mask.
	Quarantined []fabric.FrameAddr `json:"quarantined,omitempty"`
	// Health is the per-column health ledger (states, error rates, probe
	// history) of the self-healing layer; recovery restores it after
	// re-applying the quarantine mask. Absent in older journals, which
	// decode to a ledger derived from Quarantined alone.
	Health []ColumnHealth `json:"health,omitempty"`
}

// ColumnHealth serialises one column of the health ledger. State matches
// internal/health.State (0 healthy, 1 suspect, 2 quarantined, 3 probation);
// plain ints keep the journal schema free of the health package.
type ColumnHealth struct {
	Major       int     `json:"major"`
	State       uint8   `json:"state"`
	Rate        float64 `json:"rate,omitempty"`
	CleanProbes int     `json:"clean_probes,omitempty"`
	CleanChecks int     `json:"clean_checks,omitempty"`
	Probes      int     `json:"probes,omitempty"`
	ProbeFails  int     `json:"probe_fails,omitempty"`
	Repairs     int     `json:"repairs,omitempty"`
}

// TailOp is an operation whose records reach the end of the journal without
// a Commit or Abort seal — the crash window recovery must reconcile.
type TailOp struct {
	Begin Begin
	// Undo holds the journaled pre-images in append order. A frame can
	// appear once per operation (the writer dedups); recovery applies them
	// as a set.
	Undo []Undo
	// Post is non-nil when the operation journaled its post state (the
	// shift completed) but the seal did not land — the roll-forward case.
	Post *Post
}

// Replayed is the outcome of replaying a scanned journal.
type Replayed struct {
	Init Init
	// State is the last sealed (committed) state; zero-valued with Seq 0
	// when no operation ever committed.
	State State
	// Tail is the unsealed trailing operation, nil when the journal ends
	// clean.
	Tail *TailOp
	// LastSeq is the highest operation sequence number that appears in the
	// journal (sealed either way, or open in the tail); an appender resumes
	// numbering after it. State.Seq is NOT that number when the last
	// operations aborted.
	LastSeq uint64
	// Torn is carried over from the scan.
	Torn bool
	// ValidLen is carried over from the scan (where an appender resumes).
	ValidLen int64
}

// Replay walks a scanned log and folds it into the last durable state plus
// the unsealed tail. The record grammar is
//
//	Init (Begin (Undo|Post)* (Commit|Abort))* (Begin (Undo|Post)*)?
//
// and any violation fails with ErrMalformed (wrapped): the journal writer
// is the only producer, so a grammar break means corruption that passed the
// checksums, and recovery must not guess. An operation can carry several
// Post records (a commit whose seal failed to append is retried after a
// rollback, e.g. across defragmentation candidates); the LAST one is the
// roll-forward candidate, and the digest comparison against device readback
// decides whether it stands.
func Replay(log *Log) (*Replayed, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, ErrEmpty
	}
	out := &Replayed{Torn: log.Torn, ValidLen: log.ValidLen}
	if log.Records[0].Type != RecInit {
		return nil, fmt.Errorf("%w: first record is %v, want init", ErrMalformed, log.Records[0].Type)
	}
	if err := json.Unmarshal(log.Records[0].Payload, &out.Init); err != nil {
		return nil, fmt.Errorf("%w: init: %v", ErrMalformed, err)
	}
	var tail *TailOp
	for i, rec := range log.Records[1:] {
		switch rec.Type {
		case RecInit:
			return nil, fmt.Errorf("%w: duplicate init at record %d", ErrMalformed, i+1)
		case RecBegin:
			if tail != nil {
				return nil, fmt.Errorf("%w: begin inside open op %d", ErrMalformed, tail.Begin.Seq)
			}
			tail = &TailOp{}
			if err := json.Unmarshal(rec.Payload, &tail.Begin); err != nil {
				return nil, fmt.Errorf("%w: begin: %v", ErrMalformed, err)
			}
			if tail.Begin.Seq > out.LastSeq {
				out.LastSeq = tail.Begin.Seq
			}
		case RecUndo:
			if tail == nil {
				return nil, fmt.Errorf("%w: undo outside op body", ErrMalformed)
			}
			var u Undo
			if err := json.Unmarshal(rec.Payload, &u); err != nil {
				return nil, fmt.Errorf("%w: undo: %v", ErrMalformed, err)
			}
			if u.Seq != tail.Begin.Seq {
				return nil, fmt.Errorf("%w: undo seq %d inside op %d", ErrMalformed, u.Seq, tail.Begin.Seq)
			}
			tail.Undo = append(tail.Undo, u)
		case RecPost:
			if tail == nil {
				return nil, fmt.Errorf("%w: post outside op body", ErrMalformed)
			}
			var p Post
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return nil, fmt.Errorf("%w: post: %v", ErrMalformed, err)
			}
			if p.Seq != tail.Begin.Seq {
				return nil, fmt.Errorf("%w: post seq %d inside op %d", ErrMalformed, p.Seq, tail.Begin.Seq)
			}
			tail.Post = &p
		case RecCommit, RecAbort:
			if tail == nil {
				return nil, fmt.Errorf("%w: %v with no open op", ErrMalformed, rec.Type)
			}
			var s Seal
			if err := json.Unmarshal(rec.Payload, &s); err != nil {
				return nil, fmt.Errorf("%w: %v: %v", ErrMalformed, rec.Type, err)
			}
			if s.Seq != tail.Begin.Seq {
				return nil, fmt.Errorf("%w: %v seq %d seals op %d", ErrMalformed, rec.Type, s.Seq, tail.Begin.Seq)
			}
			if rec.Type == RecCommit {
				if tail.Post == nil {
					return nil, fmt.Errorf("%w: commit of op %d without post state", ErrMalformed, s.Seq)
				}
				out.State = tail.Post.State
			}
			tail = nil
		default:
			return nil, fmt.Errorf("%w: unknown record type %v", ErrMalformed, rec.Type)
		}
	}
	out.Tail = tail
	return out, nil
}
