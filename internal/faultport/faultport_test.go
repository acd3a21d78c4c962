package faultport

import (
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/jtag"
)

// newPort builds a Boundary-Scan transport with a fresh fault plan hooked in.
func newPort(t *testing.T, seed uint64) (*Hook, *bitstream.Transport, *fabric.Device) {
	t.Helper()
	dev := fabric.NewDevice(fabric.TestDevice)
	p := jtag.NewPort(bitstream.NewController(dev), jtag.DefaultTCKHz)
	h := New(seed)
	p.SetHook(h)
	return h, p, dev
}

func frameUpdate(dev *fabric.Device, major, minor int, fill uint32) bitstream.FrameUpdate {
	words, err := dev.ReadFrame(major, minor)
	if err != nil {
		panic(err)
	}
	data := make([]uint32, len(words))
	for i := range data {
		data[i] = fill
	}
	return bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: major, Minor: minor}, Data: data}
}

// TestTripAfterBudgetAcrossBursts: the transient budget counts frames across
// deliveries, the trip fires once on the burst that crosses it, stays sticky
// until the next await, and the fault heals itself.
func TestTripAfterBudgetAcrossBursts(t *testing.T) {
	h, p, dev := newPort(t, 1)
	h.TripAfter(3)

	// Two frames: under budget, enqueues cleanly.
	p.Stream([]bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 1), frameUpdate(dev, 0, 1, 1)})
	// Two more: crosses the budget of 3 — the error arms, sticky.
	p.Stream([]bitstream.FrameUpdate{frameUpdate(dev, 0, 2, 1), frameUpdate(dev, 0, 3, 1)})
	err := p.Await()
	if err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("await after trip: %v, want injected transient failure", err)
	}
	if h.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", h.Faults())
	}
	// The await consumed the sticky error, and the trip self-disarmed: the
	// same traffic now succeeds.
	p.Stream([]bitstream.FrameUpdate{frameUpdate(dev, 0, 4, 1)})
	if err := p.Await(); err != nil {
		t.Fatalf("await after self-heal: %v", err)
	}
	// Even the "failed" burst was enqueued in full (write-through: the
	// fault poisons the error signal, never the data), so all three bursts
	// completed at the protocol level.
	if n := p.CompletedBursts(); n != 3 {
		t.Fatalf("completed bursts = %d, want 3", n)
	}
}

// TestDisarmCancelsTrip: a disarmed trip never fires.
func TestDisarmCancelsTrip(t *testing.T) {
	h, p, dev := newPort(t, 1)
	h.TripAfter(0)
	h.Disarm()
	p.Stream([]bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 2)})
	if err := p.Await(); err != nil {
		t.Fatalf("await after disarm: %v", err)
	}
	if h.Faults() != 0 {
		t.Fatalf("faults = %d, want 0", h.Faults())
	}
}

// TestPersistentFailure: writes touching a condemned frame error (and a
// writing burst applies nothing), readback is deterministically corrupted by
// the seed, and HealFrames lifts it all.
func TestPersistentFailure(t *testing.T) {
	h, p, dev := newPort(t, 42)
	bad := fabric.FrameAddr{Major: 1, Minor: 0}
	h.FailFrames(bad)

	if err := p.Write(bitstream.Foreground, []bitstream.FrameUpdate{frameUpdate(dev, 1, 0, 3)}); err == nil {
		t.Fatal("write to condemned frame succeeded")
	}
	// Nothing was delivered: the device still holds the original content.
	orig, err := dev.ReadFrame(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range orig {
		if w == 3 {
			t.Fatalf("word %d delivered despite the synchronous failure", i)
		}
	}

	// Readback corruption is deterministic in the seed.
	c1, err := p.Read(bitstream.Foreground, bad)
	if err != nil {
		t.Fatal(err)
	}
	h2, p2, _ := newPort(t, 42)
	h2.FailFrames(bad)
	c2, err := p2.Read(bitstream.Foreground, bad)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	differsFromDevice := false
	for i := range c1 {
		if c1[i] != c2[i] {
			same = false
		}
		if c1[i] != orig[i] {
			differsFromDevice = true
		}
	}
	if !same {
		t.Fatal("same seed produced different corruption")
	}
	if !differsFromDevice {
		t.Fatal("condemned readback not corrupted")
	}
	h3, p3, _ := newPort(t, 43)
	h3.FailFrames(bad)
	c3, err := p3.Read(bitstream.Foreground, bad)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range c1 {
		if c1[i] != c3[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical corruption")
	}

	h.HealFrames(bad)
	if err := p.Write(bitstream.Foreground, []bitstream.FrameUpdate{frameUpdate(dev, 1, 0, 3)}); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	got, err := p.Read(bitstream.Foreground, bad)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range got {
		if w != 3 {
			t.Fatalf("word %d after heal = %#x, want 3", i, w)
		}
	}
}

// TestFlipBit: an SEU shows only on readback, a write covering the frame
// clears it, and flipping the same bit twice cancels out.
func TestFlipBit(t *testing.T) {
	h, p, dev := newPort(t, 7)
	addr := fabric.FrameAddr{Major: 2, Minor: 1}
	clean, err := p.Read(bitstream.Foreground, addr)
	if err != nil {
		t.Fatal(err)
	}
	clean = append([]uint32(nil), clean...)

	h.FlipBit(addr, 1, 5)
	got, err := p.Read(bitstream.Foreground, addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != clean[1]^(1<<5) {
		t.Fatalf("word 1 = %#x, want %#x", got[1], clean[1]^(1<<5))
	}
	for i := range got {
		if i != 1 && got[i] != clean[i] {
			t.Fatalf("word %d disturbed by a single-bit flip", i)
		}
	}
	// The device model itself is untouched: the flip lives in the readback
	// signal only.
	devWords, err := dev.ReadFrame(addr.Major, addr.Minor)
	if err != nil {
		t.Fatal(err)
	}
	if devWords[1] != clean[1] {
		t.Fatal("SEU leaked into the device model")
	}

	// A rewrite of the frame refreshes the memory: the flip clears.
	if err := p.Write(bitstream.Foreground, []bitstream.FrameUpdate{{Addr: addr, Data: clean}}); err != nil {
		t.Fatal(err)
	}
	got, err = p.Read(bitstream.Foreground, addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != clean[1] {
		t.Fatal("write did not clear the SEU")
	}

	// Double flip cancels.
	h.FlipBit(addr, 2, 9)
	h.FlipBit(addr, 2, 9)
	got, err = p.Read(bitstream.Foreground, addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != clean[2] {
		t.Fatal("double flip did not cancel")
	}
}

// TestAccountingPassthrough: the hook is accounting-transparent — a healthy
// hooked run matches an unhooked twin bit for bit in cycles, elapsed time
// and traffic, and the port name is the transport's.
func TestAccountingPassthrough(t *testing.T) {
	_, p, dev := newPort(t, 9)
	twinDev := fabric.NewDevice(fabric.TestDevice)
	twin := jtag.NewPort(bitstream.NewController(twinDev), jtag.DefaultTCKHz)

	burst := []bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 5), frameUpdate(dev, 0, 1, 6)}
	p.Stream(burst)
	if err := p.Await(); err != nil {
		t.Fatal(err)
	}
	twin.Stream(burst)
	if err := twin.Await(); err != nil {
		t.Fatal(err)
	}
	if p.Counters() != twin.Counters() {
		t.Fatalf("counters: hooked %+v, twin %+v", p.Counters(), twin.Counters())
	}
	if p.Elapsed() != twin.Elapsed() {
		t.Fatalf("elapsed: hooked %v, twin %v", p.Elapsed(), twin.Elapsed())
	}
	if p.Name() != twin.Name() {
		t.Fatalf("name: hooked %q, twin %q", p.Name(), twin.Name())
	}
}
