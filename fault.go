package rlm

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
)

// This file is the facade's transport fault-tolerance ladder. With a
// RetryPolicy armed, the ladder installs itself as the frame tool's Retry
// delegate: every transport fault of the batched pipeline surfaces at a
// Tool.AwaitStream — an operation's end-of-op harvest, the stage gate's
// serial drain, or the engine's disjointness fallback — and the delegate
// re-delivers the unharvested frames from the host shadow (the paper's
// complete configuration copy), escalating to per-frame readback-verify.
// Only when every attempt fails does the operation roll back — and the
// frames the final verify condemned are quarantined: masked out of the
// frame tool's delivery, their columns masked out of the area manager's
// logic space, and resident designs evacuated to healthy space.
//
// The write-through staging model makes the re-delivery set well-defined
// even though the port cannot say WHICH burst failed (its drain continues
// past errors and counts failed bursts completed): the shadow and device
// model take every write at stage time, so re-delivering the whole
// unharvested superset re-sends correct final content, and re-sending an
// already-delivered frame is a glitch-free identical rewrite.

// RetryPolicy bounds the fault-tolerance ladder WithRetryPolicy arms.
type RetryPolicy struct {
	// MaxRetries is the number of re-delivery attempts after a transport
	// fault before the operation is failed (and rolled back).
	MaxRetries int
	// Backoff is the wait before the first retry, doubling per attempt.
	// Zero retries immediately — what the deterministic tests use.
	Backoff time.Duration
	// VerifyAfter escalates re-delivery to per-frame readback-verify from
	// this attempt number on (1 verifies every retry; 0 defaults to 2, so
	// the first retry is a cheap blind re-send and persistent faults are
	// caught on the second).
	VerifyAfter int
}

// DefaultRetryPolicy is a sensible production ladder: three attempts, one
// millisecond initial backoff, readback-verify from the second attempt.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, VerifyAfter: 2}
}

// armRetryLadder installs the ladder as the frame tool's Retry delegate
// (newSystem calls it when WithRetryPolicy was given).
func (s *System) armRetryLadder() {
	if s.retry == nil || s.retry.MaxRetries <= 0 {
		return
	}
	s.engine.Tool.Retry = s.retryDeliveryLocked
}

// finishOpLocked is the success epilogue shared by every journaled facade
// operation: harvest the batched stream (the retry ladder fires inside the
// await when armed), then seal the commit. The caller rolls back and seals
// an abort when it returns an error.
func (s *System) finishOpLocked(cp *checkpoint) error {
	if err := s.engine.Tool.Flush(); err != nil {
		return err
	}
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return err
	}
	return s.journalCommitLocked()
}

// finishLoadLocked is Load's epilogue. Without a journal and without a
// retry policy, Load keeps the two-stage commit pipeline: the burst goes on
// shifting out in the background after Load returns, and a stale transport
// error surfaces at the next operation's drain — safe under write-through
// staging, and the overlap is the pipeline's point. With either armed the
// op needs a harvest point of its own (the journal's commit barrier, or a
// fault boundary the ladder can own), so it finishes like every other.
func (s *System) finishLoadLocked(cp *checkpoint) error {
	if s.jrnl == nil && (s.retry == nil || s.retry.MaxRetries <= 0) {
		return nil
	}
	return s.finishOpLocked(cp)
}

// retryDeliveryLocked is the bounded re-delivery ladder, installed as the
// frame tool's Retry delegate: cause surfaced at an AwaitStream and addrs is
// the unharvested frame set. It runs under the operation's lock (every tool
// call path holds it). On success the operation proceeds as if the fault
// never happened (the retry traffic is the transport's retry class, never
// foreground). On exhaustion a final readback-verify condemns the frames
// that still fail, parks them in s.pendingBad for the failed operation's
// post-rollback quarantine sweep, and the returned error wraps
// ErrRetriesExhausted.
func (s *System) retryDeliveryLocked(cause error, addrs []fabric.FrameAddr) error {
	pol := *s.retry
	s.engine.Stats.FaultsDetected++
	s.publish(Event{Kind: FaultDetected, Err: cause})
	s.noteFaultEvidenceLocked(addrs)
	verifyFrom := pol.VerifyAfter
	if verifyFrom <= 0 {
		verifyFrom = 2
	}
	updates := s.redeliverySetLocked(addrs)
	backoff := pol.Backoff
	err := cause
	for attempt := 1; attempt <= pol.MaxRetries; attempt++ {
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		s.crash("retry")
		s.engine.Stats.FaultRetries++
		if err = s.redeliver(updates, attempt >= verifyFrom); err == nil {
			s.publish(Event{Kind: RetrySucceeded, Steps: attempt})
			return nil
		}
	}
	s.engine.Stats.RetriesExhausted++
	bad, _ := s.verifyFrames(updates)
	s.pendingBad = append(s.pendingBad, bad...)
	err = fmt.Errorf("%w after %d attempt(s): %v", ErrRetriesExhausted, pol.MaxRetries, err)
	s.publish(Event{Kind: RetriesExhausted, Steps: pol.MaxRetries, Err: err})
	return err
}

// noteFaultEvidenceLocked feeds a transport fault into the health tracker's
// per-column error rate, one observation per distinct column of the
// unharvested set. The only transition fault evidence can drive is
// healthy → suspect (advisory, no masking), so applying the changes here —
// inside an active operation — never touches the journal.
func (s *System) noteFaultEvidenceLocked(addrs []fabric.FrameAddr) {
	seen := make(map[int]bool)
	var changes []*health.Change
	for _, a := range addrs {
		if seen[a.Major] {
			continue
		}
		seen[a.Major] = true
		changes = append(changes, s.health.NoteFault(a.Major))
	}
	s.applyHealthChangesLocked(changes, true)
}

// redeliverySetLocked builds the sorted re-delivery set from the unharvested
// frames, minus quarantined memory, each with its current (golden) shadow
// content. Each update carries the tool's confirmed baseline as its delta
// Prev, so a compressed port re-ships exactly the runs the failed burst was
// carrying instead of whole frames.
func (s *System) redeliverySetLocked(unharvested []fabric.FrameAddr) []bitstream.FrameUpdate {
	addrs := append([]fabric.FrameAddr(nil), unharvested...)
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Major != addrs[j].Major {
			return addrs[i].Major < addrs[j].Major
		}
		return addrs[i].Minor < addrs[j].Minor
	})
	updates := make([]bitstream.FrameUpdate, 0, len(addrs))
	for _, a := range addrs {
		if s.quarantined[a] {
			continue
		}
		if data, ok := s.engine.Tool.Shadow().Frame(a); ok {
			u := bitstream.FrameUpdate{Addr: a, Data: data}
			if prev, ok := s.engine.Tool.ConfirmedBaseline(a); ok {
				u.Prev = prev
			}
			updates = append(updates, u)
		}
	}
	return updates
}

// redeliver re-sends the set synchronously (no background stream: the retry
// must know the outcome), readback-verifying each frame when asked. An empty
// set means the fault belonged to a burst whose frames all committed already
// — under write-through staging the device content is correct and there is
// nothing to re-send, so the retry trivially succeeds.
func (s *System) redeliver(updates []bitstream.FrameUpdate, verify bool) error {
	if len(updates) == 0 {
		return nil
	}
	if err := s.port.Write(bitstream.Retry, updates); err != nil {
		return err
	}
	if !verify {
		return nil
	}
	_, err := s.verifyFrames(updates)
	return err
}

// verifyFrames reads each frame back through the port and compares against
// the intended content, returning the frames that diverge (or fail to read).
func (s *System) verifyFrames(updates []bitstream.FrameUpdate) ([]fabric.FrameAddr, error) {
	var bad []fabric.FrameAddr
	for _, u := range updates {
		got, err := s.port.Read(bitstream.Retry, u.Addr)
		if err != nil || !frameWordsEqual(got, u.Data) {
			bad = append(bad, u.Addr)
		}
	}
	if len(bad) > 0 {
		return bad, fmt.Errorf("rlm: %d frame(s) failed readback-verify", len(bad))
	}
	return nil, nil
}

// quarantineSweepLocked consumes the verified-bad frames a failed operation
// left in s.pendingBad — after its rollback and abort seal, so the sweep's
// own journaled operations (evacuations) open on a sealed journal. No-op
// when nothing is pending.
func (s *System) quarantineSweepLocked() {
	bad := s.pendingBad
	s.pendingBad = nil
	if len(bad) == 0 {
		return
	}
	if s.quarantineFramesLocked(bad, true) {
		s.evacuateLocked()
		// The mask changed outside any journaled op (the failed op already
		// sealed its abort); seal the new mask so a crash cannot lose it.
		s.journalHealthLocked()
	}
}

// quarantineFramesLocked condemns the full configuration column of every
// given frame: a frame carries bits of every row of its column, so finer
// masking could still route live logic through the bad memory. The frame
// tool stops delivering to the frames, CLB columns are masked out of the
// area manager's logic space, and — when record is set — events are
// published and Stats counted. Recovery re-applies a journaled mask with
// record off (the journaled Stats already counted it). Returns whether any
// new frame was quarantined.
func (s *System) quarantineFramesLocked(bad []fabric.FrameAddr, record bool) bool {
	added := false
	for _, addr := range bad {
		if s.quarantined == nil {
			s.quarantined = make(map[fabric.FrameAddr]bool)
		}
		if s.quarantined[addr] {
			continue
		}
		col, ok := s.dev.ColumnByMajor(addr.Major)
		if !ok {
			continue
		}
		for minor := 0; minor < col.Frames; minor++ {
			fa := fabric.FrameAddr{Major: addr.Major, Minor: minor}
			if s.quarantined[fa] {
				continue
			}
			s.quarantined[fa] = true
			s.engine.Tool.QuarantineFrame(fa)
			if record {
				s.engine.Stats.FramesQuarantined++
			}
		}
		if col.Kind == fabric.ColCLB {
			s.area.Quarantine(fabric.Rect{Row: 0, Col: col.ArrayCol, H: s.dev.Rows, W: 1})
		}
		// Keep the health ledger in lockstep with the mask (the Change is
		// discarded: the masking side effects are exactly this code).
		s.health.Condemn(addr.Major)
		added = true
		if record {
			s.publish(Event{Kind: FrameQuarantined, Frame: addr})
			s.publish(Event{Kind: CapacityChanged, Capacity: s.capacityLocked()})
		}
	}
	return added
}

// evacuateLocked relocates every design whose region now overlaps
// quarantined logic space to healthy space, best-effort and in name order.
// Each evacuation is its own journaled operation; a fault during one engages
// the ladder like any other delivery, but a failed evacuation never sweeps
// again from its own error path (sweeps run only from top-level operation
// epilogues), so the quarantine cannot recurse. A design with no healthy
// placement stays where it is (its configuration is still host-coherent;
// only its physical substrate is suspect), which the caller's event stream
// makes observable.
func (s *System) evacuateLocked() {
	names := make([]string, 0, len(s.designs))
	for name := range s.designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.designs[name]
		if !s.area.QuarantineOverlaps(d.Region) {
			continue
		}
		from := d.Region
		to, ok := s.area.FindPlacement(d.Region.H, d.Region.W, area.BestFit)
		if !ok {
			continue
		}
		if err := s.evacuateOneLocked(name, to); err == nil {
			s.engine.Stats.DesignsEvacuated++
			s.publish(Event{Kind: DesignEvacuated, Design: name, From: from, Region: to})
		}
	}
}

// evacuateOneLocked performs one evacuation move as a self-contained
// journaled operation.
func (s *System) evacuateOneLocked(name string, to fabric.Rect) error {
	snap, err := s.checkpointLocked()
	if err != nil {
		return err
	}
	defer s.releaseCheckpointLocked(snap)
	if err := s.journalBeginLocked(snap, "evacuate", name, to, ""); err != nil {
		return err
	}
	err = s.moveRaw(name, to)
	if err == nil {
		err = s.engine.Tool.Flush()
	}
	if err == nil {
		err = s.engine.Tool.AwaitStream()
	}
	if err == nil {
		err = s.journalCommitLocked()
	}
	if err != nil {
		s.restoreLocked(snap, err)
		s.journalAbortLocked()
		return err
	}
	return nil
}
