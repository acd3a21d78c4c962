package relocate

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// FrameTool turns logical configuration edits (cell configs, PIP bits, pad
// bits) into partial-bitstream frame writes delivered through a
// configuration port. It maintains the shadow copy the paper's tool keeps
// for failure recovery, and it is the ONLY mutation path the relocation
// engine uses — everything the engine does is real partial reconfiguration.
//
// Frame writes are staged write-through: the device sees each frame the
// moment it is staged (rewriting identical bits is glitch-free, so the later
// port delivery of the same data is harmless), while the packet stream is
// coalesced — one sync/CRC-bracketed partial bitstream per Apply, or per
// whole batch when the caller brackets several operations with
// BeginBatch/EndBatch. A frame staged twice in one batch streams once, with
// its final content.
type FrameTool struct {
	dev    *fabric.Device
	port   *bitstream.Transport
	shadow *bitstream.Shadow

	// VerifyHook, when set, is invoked after every frame write (the
	// harness re-settles the simulator and checks for glitches there).
	// Setting it disables write coalescing: every frame streams on its
	// own so the hook observes the same per-frame sequence the paper's
	// cautious tool produced.
	VerifyHook func() error
	// ReadbackVerify reads every written frame back through the port and
	// compares — the cautious mode of the paper's tool. It roughly doubles
	// the Boundary-Scan traffic per relocation (see the ablation bench).
	// Like VerifyHook it forces per-frame streaming.
	ReadbackVerify bool

	// Serial awaits every burst right after enqueueing it, so nothing is
	// ever in flight between operations — the pipelined/serial bit-identity
	// property tests and ablations use it.
	Serial bool

	frames  int
	genSeen uint64

	batchDepth int
	// pending is the set of frames staged but not yet streamed; content is
	// not kept here — Flush reads each frame from the shadow, which always
	// holds the latest staged (and designer-reconciled) data.
	pending    []fabric.FrameAddr
	pendingSet map[fabric.FrameAddr]bool

	touched  []fabric.FrameAddr
	touchSet map[fabric.FrameAddr]bool

	// streamingSet tracks every frame of every UNDELIVERED streamed burst: a
	// new write targeting one of them must first drain the queue, because on
	// a real part the in-flight stream and the new write would race on the
	// configuration port. streamBursts holds the per-burst frame lists in
	// enqueue order; finished bursts are pruned lazily against the port's
	// completed-burst counter, so a frame stops gating the moment its burst
	// has fully shifted out — no blocking await needed. A frame appears in
	// at most one unpruned burst: staging it again while its burst is live
	// is exactly what the gate serialises.
	streamBursts [][]fabric.FrameAddr
	burstsDone   uint64
	streamingSet map[fabric.FrameAddr]bool

	// Retry, when set, is the transport fault-tolerance delegate: every
	// stream error surfacing at AwaitStream is handed to it together with
	// the unharvested frame set, and a nil return absorbs the fault. The
	// run-time manager's re-delivery ladder hangs here — AwaitStream is the
	// single point transport faults of the batched pipeline surface, whether
	// at an operation's harvest, the stage gate's serial drain, or the
	// engine's disjointness fallback. The delegate must not call back into
	// AwaitStream (it re-delivers through the port directly).
	Retry func(cause error, addrs []fabric.FrameAddr) error
	// StallTimeout, when positive, arms a watchdog on every harvest: if the
	// stream has not drained within the deadline the harvest fails with
	// bitstream.ErrStalled (wrapped), which feeds the Retry delegate like
	// any other transport fault. The stream keeps shifting; the next drain
	// collects it.
	StallTimeout time.Duration
	// unharvested accumulates the distinct frames of every burst enqueued
	// since the last clean AwaitStream — the conservative re-delivery
	// superset: the drain counts failed bursts completed, so a sticky
	// stream error cannot name the burst it belongs to, but every burst
	// with an unconfirmed outcome is in this set. Under write-through
	// staging, re-sending the whole set from the shadow is correct (an
	// already-delivered frame gets a glitch-free identical rewrite).
	unharvested    []fabric.FrameAddr
	unharvestedSet map[fabric.FrameAddr]bool

	// quarantined frames are condemned configuration memory: staged writes
	// to them still update the shadow and the device model (the host view
	// stays coherent), but Flush silently drops them from port delivery and
	// the cautious readback mode skips them — nothing live may depend on a
	// quarantined frame (the area manager's mask guarantees that).
	quarantined map[fabric.FrameAddr]bool

	// Delta baselines for compressed delivery. lastSent holds, per frame,
	// the content most recently handed to the port (captured lazily from the
	// pre-staging shadow on a frame's first-ever stage, so the initial
	// baseline is what the fabric held at power-up); Flush diffs each
	// delivery against it. confirmed trails lastSent: it only advances when
	// a delivery's outcome is confirmed (a clean harvest, a synchronous
	// write, a designer-path reconciliation), and it is the baseline the
	// facade's re-delivery ladder diffs against — a failed burst's frames
	// genuinely re-ship their changed runs. Both maps alias shadow slices
	// (the shadow replaces slices wholesale, never mutates in place), and a
	// stale entry is always safe: under write-through staging a too-old
	// baseline only enlarges the shipped delta.
	lastSent  map[fabric.FrameAddr][]uint32
	confirmed map[fabric.FrameAddr][]uint32

	sink ViewSink

	// barrier, when set, observes the flush ordering: PreDeliver fires
	// after the frames of a flush (or a designer-path reconciliation) are
	// known but before their content is delivered through the port, and a
	// PreDeliver error aborts the delivery. The run-time manager's journal
	// hangs here — undo records must be durable before the device-visible
	// write they cover.
	barrier DeliveryBarrier

	// scratch is a rehearsal tool's frame buffer (nil on a live tool).
	scratch []uint32
}

// DeliveryBarrier observes the points at which frames become part of the
// delivered configuration. PreDeliver is called with the frame set of one
// delivery before any of it reaches the port; returning an error aborts the
// delivery (nothing is streamed). Delivered is called with the delivered
// updates at enqueue time, when the burst's content is fixed. The updates'
// data slices are owned by the shadow; observers must not retain or mutate
// them.
//
// PreStage is PreDeliver's batch form for a rehearsed relocation sequence:
// it is called once, before the sequence stages its first frame, with every
// frame the sequence will deliver, so their undo records can be made durable
// together. The frames still reach PreDeliver at their flushes.
type DeliveryBarrier interface {
	PreDeliver(addrs []fabric.FrameAddr) error
	PreStage(addrs []fabric.FrameAddr) error
	Delivered(updates []bitstream.FrameUpdate)
}

// SetBarrier attaches the flush-ordering barrier (nil detaches).
func (ft *FrameTool) SetBarrier(b DeliveryBarrier) { ft.barrier = b }

// ViewSink receives logical-level change notifications from the tool's write
// path — the touched-reporting that lets a derived occupancy structure (the
// engine's view) stay current with markUsed/markFree-style deltas instead of
// re-deriving the whole device per write. The contract:
//
//   - CellTouched / NodesTouched / PadTouched fire after each logical write
//     through the tool, naming exactly the resources whose configuration the
//     write can have changed (for a PIP toggle: the source and sink node;
//     for a sink clear: the sink plus its previously enabled sources).
//   - Synced fires whenever the tool reconciles configuration that changed
//     through another path (designer-level placement, a rollback's recovery
//     stream), carrying the dirty frame set from Device.FramesChangedSince
//     or the checkpoint being rolled back.
//   - Advanced fires when the device generation moved with no configuration
//     change the sink has not already seen (a flush re-delivering staged
//     frames through the port).
type ViewSink interface {
	CellTouched(ref fabric.CellRef)
	NodesTouched(nodes ...fabric.NodeID)
	PadTouched(pad fabric.PadRef)
	Synced(addrs []fabric.FrameAddr)
	Advanced()
}

// SetViewSink attaches the touched-reporting sink (nil detaches).
func (ft *FrameTool) SetViewSink(s ViewSink) { ft.sink = s }

// NewFrameTool builds a tool over a device and transport. The shadow is
// initialised from the device's current configuration.
func NewFrameTool(dev *fabric.Device, port *bitstream.Transport) (*FrameTool, error) {
	shadow, err := bitstream.NewShadow(dev)
	if err != nil {
		return nil, err
	}
	return &FrameTool{
		dev: dev, port: port, shadow: shadow, genSeen: dev.Generation(),
		pendingSet:   make(map[fabric.FrameAddr]bool),
		touchSet:     make(map[fabric.FrameAddr]bool),
		streamingSet: make(map[fabric.FrameAddr]bool),
		lastSent:     make(map[fabric.FrameAddr][]uint32),
		confirmed:    make(map[fabric.FrameAddr][]uint32),
	}, nil
}

// newRehearsalTool builds a tool with no transport over a host-side twin of
// the device, for rehearsing a relocation sequence before it streams. Its
// writes go straight into the twin's frames — no shadow, no batching, no
// stream, no barrier — while still reporting to the view sink and to the
// touched-frame recording, so a rehearsal learns every frame its live pass
// will write.
func newRehearsalTool(dev *fabric.Device) *FrameTool {
	return &FrameTool{
		dev: dev, genSeen: dev.Generation(),
		pendingSet: make(map[fabric.FrameAddr]bool),
		touchSet:   make(map[fabric.FrameAddr]bool),
		scratch:    make([]uint32, dev.FrameWords()),
	}
}

// rehearsing reports whether the tool is a rehearsal twin's (no transport).
func (ft *FrameTool) rehearsing() bool { return ft.port == nil }

// editFrames groups edits by frame, in first-touched order. For each frame
// it takes a writable copy of the frame's content from base, sets or clears
// that frame's edited bits in it and hands the result to write. Apply and a
// rehearsal differ only in those two: the shadow and staging for the live
// tool, the twin device's frames for a rehearsal.
func editFrames(edits []Edit, base func(fabric.FrameAddr) ([]uint32, error), write func(fabric.FrameAddr, []uint32) error) error {
	var buf [8]fabric.FrameAddr
	order := buf[:0]
	for _, e := range edits {
		if !slices.Contains(order, e.Addr) {
			order = append(order, e.Addr)
		}
	}
	for _, addr := range order {
		data, err := base(addr)
		if err != nil {
			return err
		}
		for _, e := range edits {
			if e.Addr != addr {
				continue
			}
			if e.On {
				data[e.Bit/32] |= 1 << (e.Bit % 32)
			} else {
				data[e.Bit/32] &^= 1 << (e.Bit % 32)
			}
		}
		if err := write(addr, data); err != nil {
			return err
		}
	}
	return nil
}

// applyTwin writes a set of edits into the twin's frames, one read-modify-
// write per distinct frame through the tool's reused frame buffer.
func (ft *FrameTool) applyTwin(edits []Edit) error {
	return editFrames(edits, func(addr fabric.FrameAddr) ([]uint32, error) {
		return ft.scratch, ft.dev.ReadFrameInto(addr, ft.scratch)
	}, func(addr fabric.FrameAddr, data []uint32) error {
		if err := ft.dev.WriteFrame(addr.Major, addr.Minor, data); err != nil {
			return err
		}
		ft.touch(addr)
		return nil
	})
}

// preStage hands a rehearsed sequence's frame set to the barrier before the
// sequence stages anything. Quarantined frames never ship, so they are left
// out, as Flush leaves them out of PreDeliver.
func (ft *FrameTool) preStage(addrs []fabric.FrameAddr) error {
	if ft.barrier == nil {
		return nil
	}
	kept := make([]fabric.FrameAddr, 0, len(addrs))
	for _, addr := range addrs {
		if !ft.quarantined[addr] {
			kept = append(kept, addr)
		}
	}
	return ft.barrier.PreStage(kept)
}

// Sync refreshes the recovery shadow from the device if the configuration
// changed through a path other than this tool (checkpointing after a new
// design is loaded by the development flow).
func (ft *FrameTool) Sync() error { return ft.sync() }

// sync reconciles the shadow when the configuration changed through a path
// other than this tool (e.g. the development tool loading a new design) —
// the paper's tool accepts "a complete configuration file" as input; this
// is the equivalent import. Only the frames that actually changed are
// re-read, and their pre-images flow into any open snapshots, so a
// checkpoint covers designer-path writes too. The view sink re-derives the
// columns the dirty frames can influence.
func (ft *FrameTool) sync() error {
	addrs, err := ft.reconcile()
	if err == nil && ft.sink != nil && len(addrs) > 0 {
		ft.sink.Synced(addrs)
	}
	return err
}

// SyncDeclared refreshes the recovery shadow like Sync, but the caller
// declares exactly which cells, nodes and pads its designer-path writes can
// have changed, so the view sink updates by targeted deltas instead of the
// dirty-frame sweep (a frame bit can affect nodes hex-reach columns away, so
// the sweep re-derives far more than a small splice actually touched). The
// declaration must be complete: an undeclared change would leave the derived
// occupancy stale. The facade's warm-load path uses it — the template splice
// knows its precise footprint.
func (ft *FrameTool) SyncDeclared(cells []fabric.CellRef, nodes []fabric.NodeID, pads []fabric.PadRef) error {
	if ft.dev.Generation() == ft.genSeen {
		return nil
	}
	if _, err := ft.reconcile(); err != nil {
		return err
	}
	if ft.sink != nil {
		for _, ref := range cells {
			ft.sink.CellTouched(ref)
		}
		ft.sink.NodesTouched(nodes...)
		for _, p := range pads {
			ft.sink.PadTouched(p)
		}
		ft.sink.Advanced()
	}
	return nil
}

// reconcile re-reads into the shadow every frame changed outside the tool
// since the last reconciliation and returns their addresses. Designer-path
// content is already on the fabric, so it is also the delta baseline of the
// frames' next port delivery; the barrier still sees it as a delivery, so
// pre-images journal before anything else builds on the reconciled state.
func (ft *FrameTool) reconcile() ([]fabric.FrameAddr, error) {
	g := ft.dev.Generation()
	if g == ft.genSeen {
		return nil, nil
	}
	addrs := ft.dev.FramesChangedSince(ft.genSeen)
	var updates []bitstream.FrameUpdate
	if ft.barrier != nil && len(addrs) > 0 {
		updates = make([]bitstream.FrameUpdate, 0, len(addrs))
	}
	for _, addr := range addrs {
		data, err := ft.dev.ReadFrame(addr.Major, addr.Minor)
		if err != nil {
			return nil, err
		}
		ft.shadow.NoteOwned(addr, data)
		ft.lastSent[addr] = data
		ft.confirmed[addr] = data
		if updates != nil {
			updates = append(updates, bitstream.FrameUpdate{Addr: addr, Data: data})
		}
	}
	ft.genSeen = g
	if ft.barrier != nil && len(addrs) > 0 {
		if err := ft.barrier.PreDeliver(addrs); err != nil {
			return nil, err
		}
		ft.barrier.Delivered(updates)
	}
	return addrs, nil
}

// QuarantineFrame excludes a frame from port delivery. The caller (the
// facade's fault-tolerance layer) has established that writes to the frame
// fail persistently and has masked the corresponding logic out of the area
// manager; the tool treats the frame as dead memory until an explicit
// UnquarantineFrame (the facade's probe/release cycle) revives it.
func (ft *FrameTool) QuarantineFrame(addr fabric.FrameAddr) {
	if ft.quarantined == nil {
		ft.quarantined = make(map[fabric.FrameAddr]bool)
	}
	ft.quarantined[addr] = true
}

// UnquarantineFrame returns a frame to port delivery after its column
// passed the facade's probe/release cycle. The caller has re-verified the
// configuration memory and restored the area manager's mask.
func (ft *FrameTool) UnquarantineFrame(addr fabric.FrameAddr) {
	delete(ft.quarantined, addr)
}

// FrameQuarantined reports whether a frame is excluded from port delivery.
func (ft *FrameTool) FrameQuarantined(addr fabric.FrameAddr) bool { return ft.quarantined[addr] }

// Port returns the configuration transport.
func (ft *FrameTool) Port() *bitstream.Transport { return ft.port }

// Shadow returns the recovery copy.
func (ft *FrameTool) Shadow() *bitstream.Shadow { return ft.shadow }

// FramesWritten returns the cumulative frame count pushed through the port.
func (ft *FrameTool) FramesWritten() int { return ft.frames }

// Edit is one configuration bit change: frame-level address plus bit index.
type Edit struct {
	Addr fabric.FrameAddr
	Bit  int
	On   bool
}

// Apply delivers a set of edits as frame writes. Edits to the same frame
// coalesce into one write; frames are staged in first-touched order. Outside
// a batch the staged frames flush as one partial bitstream before Apply
// returns; inside a batch they coalesce with neighbouring operations until
// the batch ends (or a caller forces a Flush). When VerifyHook or
// ReadbackVerify is set, every frame streams individually and the hook runs
// after each, preserving the cautious per-frame probing mode.
func (ft *FrameTool) Apply(edits []Edit) error {
	if len(edits) == 0 {
		return nil
	}
	if ft.rehearsing() {
		return ft.applyTwin(edits)
	}
	if err := ft.sync(); err != nil {
		return err
	}
	perFrame := ft.VerifyHook != nil || ft.ReadbackVerify
	err := editFrames(edits, func(addr fabric.FrameAddr) ([]uint32, error) {
		base, ok := ft.shadow.Frame(addr)
		if !ok {
			return nil, fmt.Errorf("relocate: no shadow for frame %v", addr)
		}
		return slices.Clone(base), nil
	}, func(addr fabric.FrameAddr, data []uint32) error {
		if err := ft.stage(addr, data); err != nil {
			return err
		}
		if !perFrame {
			return nil
		}
		// The cautious modes are strictly serial: deliver the frame and
		// drain the stream before probing, as the paper's tool did.
		if err := ft.Flush(); err != nil {
			return err
		}
		if err := ft.AwaitStream(); err != nil {
			return err
		}
		if ft.ReadbackVerify && !ft.quarantined[addr] {
			got, err := ft.port.Read(bitstream.Foreground, addr)
			if err != nil {
				return fmt.Errorf("relocate: readback of %v: %w", addr, err)
			}
			want, _ := ft.shadow.Frame(addr)
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("relocate: readback mismatch in %v word %d", addr, i)
				}
			}
		}
		if ft.VerifyHook != nil {
			if err := ft.VerifyHook(); err != nil {
				return fmt.Errorf("relocate: after writing %v: %w", addr, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if ft.batchDepth == 0 {
		return ft.Flush()
	}
	return nil
}

// stage commits one frame write: the shadow and the device take the data
// immediately (write-through, so every read path stays coherent inside a
// batch), and the frame joins the pending set. A frame staged twice in one
// batch streams once — Flush reads the shadow, which holds the final data.
// The slice is owned by the tool from here on.
//
// Writing a frame that is part of an in-flight background stream first
// drains the stream (serial fallback): the queued burst carries the frame's
// previous staged content, and delivering it after this write would roll the
// configuration back to stale data. This gate is what makes the pipelined
// commit bit-identical to serial mode for ANY operation mix — the engine's
// disjointness pre-check merely avoids hitting it mid-procedure.
func (ft *FrameTool) stage(addr fabric.FrameAddr, data []uint32) error {
	if len(ft.streamingSet) > 0 && ft.streamingSet[addr] {
		ft.pruneStreams()
	}
	if len(ft.streamingSet) > 0 && ft.streamingSet[addr] {
		if err := ft.AwaitStream(); err != nil {
			return err
		}
	}
	if _, ok := ft.lastSent[addr]; !ok {
		// First-ever stage of this frame: the pre-staging shadow content is
		// what the fabric has held since power-up — the initial delta
		// baseline for compressed delivery.
		if prev, ok := ft.shadow.Frame(addr); ok {
			ft.lastSent[addr] = prev
			ft.confirmed[addr] = prev
		}
	}
	ft.shadow.NoteOwned(addr, data)
	if err := ft.dev.WriteFrame(addr.Major, addr.Minor, data); err != nil {
		return err
	}
	ft.genSeen = ft.dev.Generation()
	ft.frames++
	ft.touch(addr)
	if !ft.pendingSet[addr] {
		ft.pendingSet[addr] = true
		ft.pending = append(ft.pending, addr)
	}
	return nil
}

// Flush stages every pending frame into one partial bitstream, sorted by
// frame address so consecutive frames share FDRI bursts. It is a no-op when
// nothing is pending. The burst is enqueued for background shift-out and
// Flush returns while it is still streaming — stage-stream; AwaitStream is
// the matching harvest. With Serial set Flush harvests before returning.
//
// Designer-path writes may have landed since the frames were staged — in a
// batched plan, a Load places directly onto the device between two ops'
// tool writes, possibly into frames that are also pending here (one frame
// carries bits of every row of its column). So Flush first reconciles the
// shadow with the device (capturing those writes' pre-images into any open
// snapshots) and re-reads each pending frame from the reconciled shadow, so
// the port delivers the merged content and the generation cursor never
// jumps over a write the flush did not itself produce.
func (ft *FrameTool) Flush() error {
	if len(ft.pending) == 0 {
		return nil
	}
	if err := ft.sync(); err != nil {
		return err
	}
	addrs := ft.pending
	ft.pending = nil
	ft.pendingSet = make(map[fabric.FrameAddr]bool)
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Major != addrs[j].Major {
			return addrs[i].Major < addrs[j].Major
		}
		return addrs[i].Minor < addrs[j].Minor
	})
	if len(ft.quarantined) > 0 {
		kept := addrs[:0]
		for _, addr := range addrs {
			if !ft.quarantined[addr] {
				kept = append(kept, addr)
			}
		}
		if addrs = kept; len(addrs) == 0 {
			// Everything staged was condemned memory; the device model took
			// the writes at stage time and nothing ships.
			return nil
		}
	}
	updates := make([]bitstream.FrameUpdate, 0, len(addrs))
	for _, addr := range addrs {
		data, ok := ft.shadow.Frame(addr)
		if !ok {
			return fmt.Errorf("relocate: pending frame %v missing from shadow", addr)
		}
		updates = append(updates, bitstream.FrameUpdate{Addr: addr, Data: data, Prev: ft.lastSent[addr]})
	}
	if ft.barrier != nil {
		// The journal's ordering contract: undo records for every frame of
		// this delivery are durable before the port sees any of it.
		if err := ft.barrier.PreDeliver(addrs); err != nil {
			return err
		}
	}
	// Stage-stream: the burst shifts out in the background. The words are
	// built from the shadow's current slices at enqueue time (the stream
	// copies the data), so later staging cannot mutate an in-flight burst.
	// Every frame gates conflicting writes until the burst completes
	// (pruneStreams) or the stream is awaited.
	for _, addr := range addrs {
		ft.streamingSet[addr] = true
		if !ft.unharvestedSet[addr] {
			if ft.unharvestedSet == nil {
				ft.unharvestedSet = make(map[fabric.FrameAddr]bool)
			}
			ft.unharvestedSet[addr] = true
			ft.unharvested = append(ft.unharvested, addr)
		}
	}
	ft.streamBursts = append(ft.streamBursts, addrs)
	// The burst's content is fixed at enqueue: it is the delta baseline of
	// the next delivery, whatever the shift-out's outcome (confirmed only
	// advances at a clean harvest).
	for _, u := range updates {
		ft.lastSent[u.Addr] = u.Data
	}
	ft.port.Stream(updates)
	if ft.barrier != nil {
		// The delivered view is already determined here even though the
		// shift-out completes later.
		ft.barrier.Delivered(updates)
	}
	if ft.Serial {
		return ft.AwaitStream()
	}
	return nil
}

// pruneStreams retires the frames of every burst the background worker has
// finished shifting out since the last check — the non-blocking side of the
// in-flight tracking.
func (ft *FrameTool) pruneStreams() {
	if len(ft.streamBursts) == 0 {
		return
	}
	done := ft.port.CompletedBursts()
	for ft.burstsDone < done && len(ft.streamBursts) > 0 {
		for _, addr := range ft.streamBursts[0] {
			delete(ft.streamingSet, addr)
		}
		ft.streamBursts = ft.streamBursts[1:]
		ft.burstsDone++
	}
}

// AwaitStream blocks until every burst Flush enqueued has shifted out and
// returns the first transport error among them, clearing the streaming set
// either way. A stream error is first offered to the Retry delegate (when
// one is installed) with the unharvested frame set; a clean harvest —
// including one the delegate salvaged — confirms every enqueued burst and
// empties the set. A no-op when nothing is in flight.
func (ft *FrameTool) AwaitStream() error {
	err := ft.harvest()
	ft.retireStreams()
	if err != nil && ft.Retry != nil {
		err = ft.Retry(err, ft.unharvested)
	}
	if err == nil {
		ft.confirmUnharvested()
	}
	return err
}

// ConfirmedBaseline returns the last frame content whose port delivery was
// confirmed — the delta baseline the facade's re-delivery ladder diffs
// against, so a failed burst's frames genuinely re-ship their changed runs.
func (ft *FrameTool) ConfirmedBaseline(addr fabric.FrameAddr) ([]uint32, bool) {
	data, ok := ft.confirmed[addr]
	return data, ok
}

// harvest performs the blocking transport await under the stall watchdog
// (when StallTimeout is set); on timeout it returns bitstream.ErrStalled
// (wrapped) with the stream still shifting.
func (ft *FrameTool) harvest() error { return ft.port.AwaitWithin(ft.StallTimeout) }

// HarvestPending drains the in-flight stream without the watchdog and
// without the Retry delegate, discarding its error. A rollback and Close
// use it: the stream is superseded (the recovery stream overwrites whatever
// it delivered, and re-delivering it would only double-count the fault the
// rollback already answers for) or has no operation left to answer to, but
// nothing may touch the configuration logic until it has fully shifted out.
func (ft *FrameTool) HarvestPending() {
	clean := ft.port.Await() == nil
	ft.retireStreams()
	if clean {
		ft.confirmUnharvested()
	}
	// The superseded content is confirmed-or-overwritten either way; the
	// unharvested set must not leak into a later fault's re-delivery.
	ft.unharvested = nil
	clear(ft.unharvestedSet)
}

// retireStreams forgets the in-flight tracking after a drain.
func (ft *FrameTool) retireStreams() {
	ft.streamBursts = nil
	ft.burstsDone = ft.port.CompletedBursts()
	clear(ft.streamingSet)
}

// confirmUnharvested advances the confirmed delta baseline of every frame
// enqueued since the last clean harvest, and empties the unharvested set.
func (ft *FrameTool) confirmUnharvested() {
	for _, addr := range ft.unharvested {
		if data, ok := ft.lastSent[addr]; ok {
			ft.confirmed[addr] = data
		}
	}
	ft.unharvested = nil
	clear(ft.unharvestedSet)
}

// StreamInFlight reports whether a background stream is still shifting out.
func (ft *FrameTool) StreamInFlight() bool {
	ft.pruneStreams()
	return len(ft.streamBursts) > 0
}

// StreamDisjoint reports whether none of the given frames is part of an
// in-flight stream — the engine's overlap rule: op N+1 may start executing
// while op N's stream shifts out only if their frame sets are disjoint.
func (ft *FrameTool) StreamDisjoint(addrs []fabric.FrameAddr) bool {
	ft.pruneStreams()
	if len(ft.streamingSet) == 0 {
		return true
	}
	for _, addr := range addrs {
		if ft.streamingSet[addr] {
			return false
		}
	}
	return true
}

// BeginBatch opens (or nests) a coalescing batch: staged frames accumulate
// until the outermost EndBatch, a Flush, or a per-frame verification mode
// forces delivery.
func (ft *FrameTool) BeginBatch() { ft.batchDepth++ }

// EndBatch closes one batch level and flushes when the outermost level
// closes.
func (ft *FrameTool) EndBatch() error {
	if ft.batchDepth > 0 {
		ft.batchDepth--
	}
	if ft.batchDepth == 0 {
		return ft.Flush()
	}
	return nil
}

// InBatch runs fn inside one batch level. The batch always closes — a
// failing fn still gets its pending frames flushed (they are dead only if
// the caller rolls back, which drops them via AbortPending) — and a flush
// failure surfaces only when fn itself succeeded.
func (ft *FrameTool) InBatch(fn func() error) error {
	ft.BeginBatch()
	err := fn()
	if endErr := ft.EndBatch(); err == nil {
		err = endErr
	}
	return err
}

// AbortPending drops the pending stream without delivering it. Used by
// rollback: the recovery bitstream supersedes whatever the failed operation
// still had queued (the device already took the staged writes, and the
// recovery stream overwrites them).
func (ft *FrameTool) AbortPending() {
	ft.pending = nil
	ft.pendingSet = make(map[fabric.FrameAddr]bool)
}

// touch records a staged frame in the touched-frame recording.
func (ft *FrameTool) touch(addr fabric.FrameAddr) {
	if !ft.touchSet[addr] {
		ft.touchSet[addr] = true
		ft.touched = append(ft.touched, addr)
	}
}

// MarkTouched resets the touched-frame recording and returns. The engine
// brackets each relocation with MarkTouched/TouchedFrames so every CellMove
// reports exactly the frame set it wrote.
func (ft *FrameTool) MarkTouched() {
	ft.touched = ft.touched[:0]
	for addr := range ft.touchSet {
		delete(ft.touchSet, addr)
	}
}

// TouchedFrames returns a copy of the distinct frames staged since the last
// MarkTouched, in first-touched order.
func (ft *FrameTool) TouchedFrames() []fabric.FrameAddr {
	out := make([]fabric.FrameAddr, len(ft.touched))
	copy(out, ft.touched)
	return out
}

// BeginSnapshot synchronises the shadow with the device and opens a
// frame-granular copy-on-write checkpoint: from here on the shadow saves the
// pre-image of every frame that changes (tool writes and designer-path
// writes alike — the latter are captured by the next sync), so a rollback
// replays only what the operation touched.
func (ft *FrameTool) BeginSnapshot() (*bitstream.Snapshot, error) {
	if err := ft.sync(); err != nil {
		return nil, err
	}
	return ft.shadow.Begin(), nil
}

// Restore rolls the configuration back to a snapshot taken with
// BeginSnapshot — the paper's recovery path, proportional to the change
// instead of the device. The in-flight stream is superseded: it drains in
// full first (HarvestPending), so the recovery burst is strictly ordered
// after it. The shadow then syncs, so designer-path writes since the
// checkpoint are part of the dirty set, and the pre-image of every dirty
// frame streams through the transport as one recovery-class writing burst.
// Whatever happened to that burst, the pending (dead) stream of the failed
// operation is dropped, the shadow rolls back to the checkpoint state and
// the view sink is handed the dirty set, which it restores its occupancy
// picture from instead of rescanning the device. The snapshot stays armed,
// so the same checkpoint can back another attempt.
//
// Restore returns the pre-images it delivered. On error the shadow holds the
// checkpoint state but the device may not: the caller must stream a full
// recovery.
func (ft *FrameTool) Restore(snap *bitstream.Snapshot) ([]bitstream.FrameUpdate, error) {
	ft.HarvestPending()
	err := ft.sync()
	var restored []bitstream.FrameUpdate
	if err == nil {
		restored = snap.Recovery()
		if len(restored) > 0 {
			err = ft.port.Write(bitstream.Recovery, restored)
		}
	}
	dirty := snap.Frames()
	ft.AbortPending()
	snap.Rollback()
	// The recovery stream physically re-delivered every dirty frame in full;
	// the rolled-back shadow content is the new delta baseline for both maps.
	for _, addr := range dirty {
		if data, ok := ft.shadow.Frame(addr); ok {
			ft.lastSent[addr] = data
			ft.confirmed[addr] = data
		}
	}
	ft.genSeen = ft.dev.Generation()
	if ft.sink != nil && len(dirty) > 0 {
		ft.sink.Synced(dirty)
	}
	return restored, err
}

// cellEdits builds the edits that set a cell's configuration word.
func (ft *FrameTool) cellEdits(ref fabric.CellRef, cc fabric.CellConfig) []Edit {
	start, width := ft.dev.CellSlotRange(ref.Cell)
	word := cc.Encode()
	var edits []Edit
	for i := 0; i < width; i++ {
		major, minor, bit := ft.dev.BitAddr(ref.Coord, start+i)
		edits = append(edits, Edit{
			Addr: fabric.FrameAddr{Major: major, Minor: minor},
			Bit:  bit,
			On:   word>>i&1 == 1,
		})
	}
	return edits
}

// pipEdit builds the edit toggling one PIP bit of a sink.
func (ft *FrameTool) pipEdit(c fabric.Coord, sinkLocal, bit int, on bool) Edit {
	start, _ := ft.dev.PIPSlotRange(sinkLocal)
	major, minor, fbit := ft.dev.BitAddr(c, start+bit)
	return Edit{Addr: fabric.FrameAddr{Major: major, Minor: minor}, Bit: fbit, On: on}
}

// WriteCell applies a cell configuration through the port.
//
// The sink is notified even when Apply fails: a multi-frame write can stage
// some frames before a per-frame verification rejects a later one, and the
// sink's re-derivation reads the device truth, so notifying on error keeps
// the view honest for callers that continue without a rollback.
func (ft *FrameTool) WriteCell(ref fabric.CellRef, cc fabric.CellConfig) error {
	err := ft.Apply(ft.cellEdits(ref, cc))
	if ft.sink != nil {
		ft.sink.CellTouched(ref)
	}
	return err
}

// SetPIP toggles the PIP from src to the sink node through the port.
func (ft *FrameTool) SetPIP(src, sink fabric.NodeID, on bool) error {
	if pad, ok := ft.dev.PadOfNode(sink); ok {
		return ft.setPadPIP(pad, src, on)
	}
	c, local, ok := ft.dev.SplitNode(sink)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("relocate: node %d is not a configurable sink", sink)
	}
	bit, ok := ft.dev.PIPBitFor(c, local, src)
	if !ok {
		return fmt.Errorf("relocate: no PIP from %d to %d", src, sink)
	}
	err := ft.Apply([]Edit{ft.pipEdit(c, local, bit, on)})
	if ft.sink != nil {
		ft.sink.NodesTouched(src, sink) // on error too — see WriteCell
	}
	return err
}

// SetPath enables (or disables) every PIP along a node path in path order.
func (ft *FrameTool) SetPath(path []fabric.NodeID, on bool) error {
	for i := 1; i < len(path); i++ {
		if err := ft.SetPIP(path[i-1], path[i], on); err != nil {
			return err
		}
	}
	return nil
}

// ClearSinkPIPs disables every enabled PIP of a sink node.
func (ft *FrameTool) ClearSinkPIPs(sink fabric.NodeID) error {
	c, local, ok := ft.dev.SplitNode(sink)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("relocate: node %d is not a configurable sink", sink)
	}
	// The previously enabled sources lose a consumer; report them alongside
	// the sink so the view can re-derive their occupancy.
	srcs := ft.dev.EnabledSourceNodes(c, local)
	mask := ft.dev.PIPMask(c, local)
	var edits []Edit
	for b := 0; mask != 0; b++ {
		if mask>>b&1 == 1 {
			edits = append(edits, ft.pipEdit(c, local, b, false))
			mask &^= 1 << b
		}
	}
	err := ft.Apply(edits)
	if ft.sink != nil && len(edits) > 0 {
		ft.sink.NodesTouched(append(srcs, sink)...) // on error too — see WriteCell
	}
	return err
}

func (ft *FrameTool) setPadPIP(pad fabric.PadRef, src fabric.NodeID, on bool) error {
	pc := ft.dev.ReadPad(pad)
	srcs := ft.dev.PadOutSourceNodes(pad)
	found := false
	for b, n := range srcs {
		if n == src {
			if on {
				pc.OutMask |= 1 << b
				pc.Output = true
			} else {
				pc.OutMask &^= 1 << b
			}
			found = true
		}
	}
	if !found {
		return fmt.Errorf("relocate: node %d does not feed pad %v", src, pad)
	}
	// Pad config lives in one frame; rebuild it via the designer path on a
	// scratch copy is not available, so edit the frame bits directly.
	return ft.writePad(pad, pc)
}

func (ft *FrameTool) writePad(pad fabric.PadRef, pc fabric.PadConfig) error {
	// Compute the pad's frame and splice the 8-bit config.
	addr := ft.dev.PadConfigFrame(pad)
	_, _, bitBase := ft.dev.PadBitAddr(pad)
	word := pc.Encode()
	var edits []Edit
	for i := 0; i < 8; i++ {
		edits = append(edits, Edit{Addr: addr, Bit: bitBase + i, On: word>>i&1 == 1})
	}
	err := ft.Apply(edits)
	if ft.sink != nil {
		ft.sink.PadTouched(pad) // on error too — see WriteCell
	}
	return err
}

// WritePadConfig applies a pad configuration through the port.
func (ft *FrameTool) WritePadConfig(pad fabric.PadRef, pc fabric.PadConfig) error {
	return ft.writePad(pad, pc)
}
