package jtag

import (
	"fmt"

	"repro/internal/bitstream"
)

// Link drives a Chain as the Boundary-Scan link of a bitstream.Transport:
// every write burst goes in through CFG_IN and every readback comes out
// through CFG_OUT, one TCK cycle per TAP step. Bit-level TAP stepping is by
// far the slowest stage of the paper's flow, which is why the transport
// shifts streamed bursts on its background worker.
type Link struct {
	Chain *Chain
}

// DefaultTCKHz is the paper's Boundary-Scan test clock frequency.
const DefaultTCKHz = 20e6

// NewLink wires a Boundary-Scan chain to a configuration controller.
func NewLink(ctrl *bitstream.Controller) *Link {
	return &Link{Chain: NewChain(ctrl, 0x0050C093 /* Virtex-family-style idcode */)}
}

// NewPort builds a Boundary-Scan transport over a configuration controller,
// clocked at tckHz, with the TAP reset.
func NewPort(ctrl *bitstream.Controller, tckHz float64) *bitstream.Transport {
	return bitstream.NewTransport(ctrl, NewLink(ctrl), tckHz)
}

// Name implements bitstream.Link.
func (l *Link) Name() string { return "Boundary-Scan" }

// Reset implements bitstream.Link: five TMS-high cycles force
// Test-Logic-Reset, one more parks in Run-Test/Idle.
func (l *Link) Reset() uint64 {
	for i := 0; i < 5; i++ {
		l.Chain.Step(true, false)
	}
	l.Chain.Step(false, false)
	return 6
}

// BurstCycles implements bitstream.Link: the TCK cost of one CFG_IN burst
// is the IR load (4 entry states, IRLength shifts, 2 exit states) plus the
// DR shift (3 entry states, 32 per word, 2 exit states). It must match what
// loadIR and shiftDRIn actually step — Burst asserts the two agree.
func (l *Link) BurstCycles(n int) uint64 {
	return uint64(IRLength+6) + uint64(32*n+5)
}

// Burst implements bitstream.Link: the words shift through CFG_IN.
func (l *Link) Burst(words []uint32) error {
	step, n := l.counting()
	loadIR(step, InstrCfgIn)
	shiftDRIn(step, words)
	if err := l.Chain.Err(); err != nil {
		return err
	}
	if *n != l.BurstCycles(len(words)) {
		return fmt.Errorf("jtag: burst stepped %d cycles, accounted %d", *n, l.BurstCycles(len(words)))
	}
	return nil
}

// Readback implements bitstream.Link: the request goes in through CFG_IN
// and the frame data comes back through CFG_OUT.
func (l *Link) Readback(req []uint32, n int) ([]uint32, uint64, error) {
	step, cycles := l.counting()
	loadIR(step, InstrCfgIn)
	shiftDRIn(step, req)
	loadIR(step, InstrCfgOut)
	out := shiftDROut(step, n)
	return out, *cycles, l.Chain.Err()
}

// counting returns a step function over the chain and the cycle count it
// accumulates.
func (l *Link) counting() (stepFn, *uint64) {
	n := new(uint64)
	return func(tms, tdi bool) bool {
		*n++
		return l.Chain.Step(tms, tdi)
	}, n
}

// stepFn advances a TAP by one TCK cycle and returns TDO.
type stepFn func(tms, tdi bool) bool

// loadIR shifts an instruction into the IR and returns to Run-Test/Idle.
func loadIR(step stepFn, code uint8) {
	step(true, false)  // Select-DR
	step(true, false)  // Select-IR
	step(false, false) // Capture-IR
	step(false, false) // Shift-IR (first shift happens in this state)
	for i := 0; i < IRLength; i++ {
		last := i == IRLength-1
		step(last, code>>i&1 == 1) // exit on last bit
	}
	step(true, false)  // Update-IR
	step(false, false) // Run-Test/Idle
}

// shiftDRIn shifts words into the current data register MSB-first and
// returns to Run-Test/Idle.
func shiftDRIn(step stepFn, words []uint32) {
	step(true, false)  // Select-DR
	step(false, false) // Capture-DR
	step(false, false) // Shift-DR
	total := len(words) * 32
	n := 0
	for _, w := range words {
		for b := 31; b >= 0; b-- {
			n++
			step(n == total, w>>b&1 == 1)
		}
	}
	step(true, false)  // Update-DR
	step(false, false) // Run-Test/Idle
}

// shiftDROut shifts n words out of the current data register.
func shiftDROut(step stepFn, nWords int) []uint32 {
	step(true, false)  // Select-DR
	step(false, false) // Capture-DR
	step(false, false) // Shift-DR
	out := make([]uint32, nWords)
	total := nWords * 32
	n := 0
	for i := range out {
		var w uint32
		for b := 0; b < 32; b++ {
			n++
			bit := step(n == total, false)
			w <<= 1
			if bit {
				w |= 1
			}
		}
		out[i] = w
	}
	step(true, false)  // Update-DR
	step(false, false) // Run-Test/Idle
	return out
}

var _ bitstream.Link = (*Link)(nil)
