// Package faultport is a deterministic, seedable fault model for the
// configuration transport: a bitstream.FaultHook the transport consults at
// its three fault points. It is the single fault model the facade's
// robustness tests, the fuzz harness, and chaos experiments share:
//
//   - a transient stream failure after N delivered frames (TripAfter): the
//     transport error surfaces once and then heals, the model of a glitched
//     shift;
//   - persistent per-frame write failure (FailFrames): every write touching
//     a condemned frame errors, and readback of the frame returns
//     deterministically corrupted content — the model of stuck configuration
//     memory;
//   - silent SEU bit-flips (FlipBit): readback shows the flipped bit, writes
//     succeed and clear it — the model a scrubber exists to repair;
//   - stalls (SetStall): wall-clock delay on every harvest, a hung-transport
//     model with no cycle-accounting effect — the facade's stall watchdog
//     exists to bound it.
//
// Faults are injected on the update list before encoding, so persistent
// frame faults stay visible even when compression elides a frame's words.
// The hook never changes what a burst costs: a faulted streamed burst still
// re-delivers in full (under write-through staging the device already holds
// its content, so only the error signal differs — exactly what the facade's
// retry ladder consumes), and a faulted writing burst still shifts but
// applies nothing. Foreground accounting and device content therefore stay
// identical to a fault-free twin's.
//
// All mutators are safe to call while bursts are in flight; a fixed seed
// makes every injected corruption reproducible.
package faultport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// Hook is a fault plan attached to a bitstream.Transport with SetHook. The
// zero plan is fully healthy; compose faults with TripAfter, FailFrames,
// FlipBit and SetStall at any time.
type Hook struct {
	mu     sync.Mutex
	seed   uint64
	budget int // frames until a transient trip; < 0 = disarmed
	bad    map[fabric.FrameAddr]bool
	flips  map[fabric.FrameAddr]map[int]uint32 // addr -> word index -> xor mask
	stall  time.Duration
	faults int
}

// New builds a healthy fault plan. The seed drives the deterministic
// readback corruption of persistently failed frames; the same seed
// reproduces the same bit pattern.
func New(seed uint64) *Hook {
	return &Hook{seed: seed, budget: -1}
}

// TripAfter arms a transient stream fault: once `frames` more frames have
// been accepted, the delivery that crosses the budget reports a transport
// error and the fault clears itself — a retry of the same content succeeds.
// TripAfter(0) trips on the next delivery.
func (f *Hook) TripAfter(frames int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = frames
}

// Disarm cancels a pending transient trip.
func (f *Hook) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = -1
}

// FailFrames condemns frames persistently: every write touching one errors,
// and readback returns seed-deterministic corruption until HealFrames.
func (f *Hook) FailFrames(addrs ...fabric.FrameAddr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bad == nil {
		f.bad = make(map[fabric.FrameAddr]bool, len(addrs))
	}
	for _, a := range addrs {
		f.bad[a] = true
	}
}

// HealFrames lifts the persistent failure from the given frames.
func (f *Hook) HealFrames(addrs ...fabric.FrameAddr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range addrs {
		delete(f.bad, a)
	}
}

// FlipBit injects a silent SEU: readback of addr shows the given bit
// inverted, writes succeed normally, and any write covering the frame clears
// the flip (the configuration memory was rewritten). Flipping the same bit
// twice cancels out.
func (f *Hook) FlipBit(addr fabric.FrameAddr, word, bit int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flips == nil {
		f.flips = make(map[fabric.FrameAddr]map[int]uint32)
	}
	m := f.flips[addr]
	if m == nil {
		m = make(map[int]uint32)
		f.flips[addr] = m
	}
	m[word] ^= 1 << uint(bit%32)
	if m[word] == 0 {
		delete(m, word)
	}
	if len(m) == 0 {
		delete(f.flips, addr)
	}
}

// SetStall delays every harvest by d of wall-clock time (0 disables) — the
// model of a hung transport that stops responding at exactly the point the
// host blocks on it. Stalls never change cycle
// accounting or delivered content; they exist so a stall watchdog has
// something to catch.
func (f *Hook) SetStall(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = d
}

// Faults returns the number of faults injected so far (trips plus persistent
// write failures; silent flips are not counted until something reads them).
func (f *Hook) Faults() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// Inject implements bitstream.FaultHook: it applies the armed fault plan to
// one outgoing delivery and returns the injected error, if any.
func (f *Hook) Inject(updates []bitstream.FrameUpdate) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.budget >= 0 {
		if len(updates) <= f.budget {
			f.budget -= len(updates)
		} else {
			// Transient: the trip fires once and the fault heals itself.
			n := f.budget
			f.budget = -1
			f.faults++
			err = fmt.Errorf("faultport: injected transient stream failure after %d frames", n)
		}
	}
	for _, u := range updates {
		if f.bad[u.Addr] {
			f.faults++
			if err == nil {
				err = fmt.Errorf("faultport: persistent write failure at frame F%d.%d", u.Addr.Major, u.Addr.Minor)
			}
		}
		// A rewrite refreshes the frame's configuration memory: SEUs clear.
		delete(f.flips, u.Addr)
	}
	return err
}

// Stall implements bitstream.FaultHook.
func (f *Hook) Stall() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stall
}

// Corrupt implements bitstream.FaultHook, applying the readback fault model:
// persistent-bad frames come back seed-deterministically corrupted, SEU
// flips show their inverted bits.
func (f *Hook) Corrupt(addr fabric.FrameAddr, words []uint32) []uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.bad[addr] && f.flips[addr] == nil {
		return words
	}
	out := make([]uint32, len(words))
	copy(out, words)
	if f.bad[addr] {
		for i := range out {
			out[i] ^= corruptMask(f.seed, addr, i)
		}
	}
	for w, mask := range f.flips[addr] {
		if w >= 0 && w < len(out) {
			out[w] ^= mask
		}
	}
	return out
}

// corruptMask is the deterministic per-word corruption pattern of a
// persistently failed frame: a splitmix64 of (seed, addr, word index), with
// bit 0 forced so every word visibly differs.
func corruptMask(seed uint64, addr fabric.FrameAddr, word int) uint32 {
	x := seed ^ uint64(addr.Major)<<40 ^ uint64(addr.Minor)<<20 ^ uint64(word)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return uint32(x^(x>>31)) | 1
}

var _ bitstream.FaultHook = (*Hook)(nil)
