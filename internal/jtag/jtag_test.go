package jtag

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

func TestTAPStateTable(t *testing.T) {
	// Spot-check canonical IEEE 1149.1 transitions.
	cases := []struct {
		from State
		tms  bool
		to   State
	}{
		{TestLogicReset, true, TestLogicReset},
		{TestLogicReset, false, RunTestIdle},
		{RunTestIdle, true, SelectDRScan},
		{SelectDRScan, false, CaptureDR},
		{SelectDRScan, true, SelectIRScan},
		{CaptureDR, false, ShiftDR},
		{ShiftDR, false, ShiftDR},
		{ShiftDR, true, Exit1DR},
		{Exit1DR, true, UpdateDR},
		{Exit1DR, false, PauseDR},
		{PauseDR, true, Exit2DR},
		{Exit2DR, false, ShiftDR},
		{UpdateDR, false, RunTestIdle},
		{SelectIRScan, false, CaptureIR},
		{SelectIRScan, true, TestLogicReset},
		{ShiftIR, true, Exit1IR},
		{Exit1IR, true, UpdateIR},
		{UpdateIR, false, RunTestIdle},
	}
	for _, c := range cases {
		if got := c.from.Next(c.tms); got != c.to {
			t.Errorf("%v --tms=%v--> %v, want %v", c.from, c.tms, got, c.to)
		}
	}
}

func TestFiveTMSHighAlwaysResets(t *testing.T) {
	// From any state, five TCKs with TMS high reach Test-Logic-Reset.
	for s := State(0); s < 16; s++ {
		cur := s
		for i := 0; i < 5; i++ {
			cur = cur.Next(true)
		}
		if cur != TestLogicReset {
			t.Errorf("from %v, 5xTMS=1 ends in %v", s, cur)
		}
	}
}

func newLink(t *testing.T) *Link {
	t.Helper()
	l := NewLink(bitstream.NewController(fabric.NewDevice(fabric.TestDevice)))
	l.Reset()
	return l
}

func TestLoadIRSetsInstruction(t *testing.T) {
	l := newLink(t)
	loadIR(l.Chain.Step, InstrCfgIn)
	if l.Chain.Instr() != InstrCfgIn {
		t.Errorf("instr = %#x, want CFG_IN", l.Chain.Instr())
	}
	if l.Chain.State() != RunTestIdle {
		t.Errorf("state after LoadIR = %v", l.Chain.State())
	}
	loadIR(l.Chain.Step, InstrCfgOut)
	if l.Chain.Instr() != InstrCfgOut {
		t.Errorf("instr = %#x, want CFG_OUT", l.Chain.Instr())
	}
}

func TestIDCodeReadback(t *testing.T) {
	l := newLink(t)
	loadIR(l.Chain.Step, InstrIDCode)
	// IDCODE shifts LSB-first out of a 32-bit register; shiftDROut
	// assembles MSB-first, so the word comes back bit-reversed.
	out := shiftDROut(l.Chain.Step, 1)
	var rev uint32
	for b := 0; b < 32; b++ {
		if out[0]>>b&1 == 1 {
			rev |= 1 << (31 - b)
		}
	}
	if rev != 0x0050C093 {
		t.Errorf("idcode = %#x, want 0x0050C093", rev)
	}
}

func TestConfigWriteThroughBoundaryScan(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	p := NewPort(bitstream.NewController(dev), DefaultTCKHz)
	fw := dev.FrameWords()
	data := make([]uint32, fw)
	data[5] = 0xCAFEF00D
	addr := fabric.FrameAddr{Major: dev.MajorOfArrayCol(4), Minor: 11}
	if err := p.Write(bitstream.Foreground, []bitstream.FrameUpdate{{Addr: addr, Data: data}}); err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadFrame(addr.Major, addr.Minor)
	if err != nil {
		t.Fatal(err)
	}
	if got[5] != 0xCAFEF00D {
		t.Errorf("frame word = %#x", got[5])
	}
}

func TestReadbackThroughBoundaryScan(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	p := NewPort(bitstream.NewController(dev), DefaultTCKHz)
	c := fabric.Coord{Row: 3, Col: 2}
	dev.WriteCell(fabric.CellRef{Coord: c, Cell: 1}, fabric.CellConfig{LUT: 0x5A5A, FF: true})
	addr := fabric.FrameAddr{Major: dev.MajorOfArrayCol(2), Minor: 0}
	got, err := p.Read(bitstream.Foreground, addr)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dev.ReadFrame(addr.Major, addr.Minor)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("readback word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestWriteAtTwentyMHzTakesMilliseconds(t *testing.T) {
	// Sanity-anchor for the paper's headline: shifting one full CLB column
	// through Boundary-Scan at 20 MHz costs on the order of milliseconds.
	dev := fabric.NewDevice(fabric.TestDevice)
	p := NewPort(bitstream.NewController(dev), DefaultTCKHz)
	fw := dev.FrameWords()
	var ups []bitstream.FrameUpdate
	major := dev.MajorOfArrayCol(0)
	for m := 0; m < fabric.FramesPerCLBColumn; m++ {
		ups = append(ups, bitstream.FrameUpdate{
			Addr: fabric.FrameAddr{Major: major, Minor: m},
			Data: make([]uint32, fw),
		})
	}
	if err := p.Write(bitstream.Foreground, ups); err != nil {
		t.Fatal(err)
	}
	ms := p.Elapsed() * 1e3
	if ms < 0.1 || ms > 50 {
		t.Errorf("column write = %.3f ms, outside plausible range", ms)
	}
}

func TestChainBypass(t *testing.T) {
	l := newLink(t)
	loadIR(l.Chain.Step, InstrBypass)
	// Bypass register delays the stream by one bit: shift 8 bits of
	// pattern, observe it one cycle later.
	l.Chain.Step(true, false)
	l.Chain.Step(false, false)
	l.Chain.Step(false, false) // now in Shift-DR
	pattern := []bool{true, false, true, true, false, false, true, false}
	var got []bool
	for i, b := range pattern {
		got = append(got, l.Chain.Step(i == len(pattern)-1, b))
	}
	for i := 1; i < len(pattern); i++ {
		if got[i] != pattern[i-1] {
			t.Errorf("bypass bit %d = %v, want %v", i, got[i], pattern[i-1])
		}
	}
}

// TestBatchedColumnWriteType2Stream drives a whole-column batched update —
// large enough that the FDRI burst needs a Type-2 (extended word count)
// header — through the Boundary-Scan port and verifies every frame landed.
// This is the stream shape the batched commit pipeline produces when many
// operations coalesce into one partial bitstream.
func TestBatchedColumnWriteType2Stream(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV800)
	ctrl := bitstream.NewController(dev)
	p := NewPort(ctrl, DefaultTCKHz)

	col, ok := dev.ColumnByMajor(2)
	if !ok {
		t.Fatal("no major 2")
	}
	fw := dev.FrameWords()
	if total := (col.Frames + 1) * fw; total <= 0x7FF {
		t.Fatalf("column burst is %d words; test needs a Type-2-sized stream", total)
	}
	updates := make([]bitstream.FrameUpdate, col.Frames)
	for m := range updates {
		data := make([]uint32, fw)
		for w := range data {
			data[w] = uint32(m)<<16 | uint32(w)
		}
		updates[m] = bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: 2, Minor: m}, Data: data}
	}
	if err := p.Write(bitstream.Foreground, updates); err != nil {
		t.Fatalf("batched column write: %v", err)
	}
	for m := 0; m < col.Frames; m++ {
		got, err := dev.ReadFrame(2, m)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if want := uint32(m)<<16 | uint32(w); got[w] != want {
				t.Fatalf("frame %d word %d = %#x, want %#x", m, w, got[w], want)
			}
		}
	}
	// Readback through the port survives the big session too.
	back, err := p.Read(bitstream.Foreground, fabric.FrameAddr{Major: 2, Minor: col.Frames - 1})
	if err != nil {
		t.Fatal(err)
	}
	if back[3] != uint32(col.Frames-1)<<16|3 {
		t.Fatalf("port readback word 3 = %#x", back[3])
	}
}

func TestUnalignedCfgInReportsError(t *testing.T) {
	l := newLink(t)
	loadIR(l.Chain.Step, InstrCfgIn)
	// Shift 33 bits: not word aligned -> chain error on Update-DR.
	l.Chain.Step(true, false)
	l.Chain.Step(false, false)
	l.Chain.Step(false, false)
	for i := 0; i < 33; i++ {
		l.Chain.Step(i == 32, false)
	}
	l.Chain.Step(true, false) // Update-DR
	l.Chain.Step(false, false)
	if l.Chain.Err() == nil {
		t.Error("unaligned CFG_IN shift not detected")
	}
}
