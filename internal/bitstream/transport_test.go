package bitstream_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/jtag"
)

// recorder wraps a link and logs, in delivery order, every burst and
// readback it performs; the first burst is held back so a racing delivery
// would overtake it.
type recorder struct {
	bitstream.Link
	mu    sync.Mutex
	log   []string
	delay time.Duration
}

func (r *recorder) Burst(words []uint32) error {
	r.mu.Lock()
	delay := r.delay
	r.delay = 0
	r.mu.Unlock()
	time.Sleep(delay)
	err := r.Link.Burst(words)
	r.note(fmt.Sprintf("burst/%d", len(words)))
	return err
}

func (r *recorder) Readback(req []uint32, n int) ([]uint32, uint64, error) {
	out, cycles, err := r.Link.Readback(req, n)
	r.note("readback")
	return out, cycles, err
}

func (r *recorder) note(s string) {
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
}

// transportEnv is one transport under test with its device.
type transportEnv struct {
	dev  *fabric.Device
	p    *bitstream.Transport
	rec  *recorder
	hook *faultport.Hook
	// perWord is the minimum clock cost of one stream word on this link.
	perWord uint64
	hz      float64
}

// frame returns an update of frame (major, minor) filled with fill.
func (e *transportEnv) frame(major, minor int, fill uint32) bitstream.FrameUpdate {
	data := make([]uint32, e.dev.FrameWords())
	for i := range data {
		data[i] = fill + uint32(i)
	}
	return bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: major, Minor: minor}, Data: data}
}

func (e *transportEnv) deviceHolds(t *testing.T, u bitstream.FrameUpdate) bool {
	t.Helper()
	got, err := e.dev.ReadFrame(u.Addr.Major, u.Addr.Minor)
	if err != nil {
		t.Fatal(err)
	}
	return wordsEqual(got, u.Data)
}

func wordsEqual(a, b []uint32) bool {
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

// TestTransportConformance runs one table of checks over every link the
// transport drives — Boundary-Scan, SelectMAP at each data width, and a
// fault-hooked Boundary-Scan with a healthy plan — so the interfaces share
// one contract: bursts cost their closed form, streams, writing bursts and
// readbacks are strictly ordered, elided bursts still complete, maintenance
// classes never touch the foreground counters, and recovery restores.
func TestTransportConformance(t *testing.T) {
	type link struct {
		name    string
		mk      func(*bitstream.Controller) bitstream.Link
		hz      float64
		perWord uint64
		hooked  bool
	}
	selectMAP := func(width int) link {
		return link{
			name:    fmt.Sprintf("selectmap-%d", width),
			mk:      func(c *bitstream.Controller) bitstream.Link { return &bitstream.SelectMAP{Ctrl: c, WidthBits: width} },
			hz:      50e6,
			perWord: uint64(32 / width),
		}
	}
	boundaryScan := func(c *bitstream.Controller) bitstream.Link { return jtag.NewLink(c) }
	links := []link{
		{name: "jtag", mk: boundaryScan, hz: jtag.DefaultTCKHz, perWord: 32},
		selectMAP(8), selectMAP(16), selectMAP(32),
		{name: "jtag-faulthook", mk: boundaryScan, hz: jtag.DefaultTCKHz, perWord: 32, hooked: true},
	}

	checks := []struct {
		name       string
		hookedOnly bool
		run        func(t *testing.T, e *transportEnv)
	}{
		{name: "write-lands-and-reads-back", run: func(t *testing.T, e *transportEnv) {
			u := e.frame(e.dev.MajorOfArrayCol(4), 11, 0xCAFE0000)
			if err := e.p.Write(bitstream.Foreground, []bitstream.FrameUpdate{u}); err != nil {
				t.Fatal(err)
			}
			if !e.deviceHolds(t, u) {
				t.Fatal("write did not land")
			}
			got, err := e.p.Read(bitstream.Foreground, u.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if !wordsEqual(got, u.Data) {
				t.Fatal("readback differs from the written frame")
			}
			// A designer-path write reads back too.
			ref := fabric.CellRef{Coord: fabric.Coord{Row: 3, Col: 2}, Cell: 1}
			e.dev.WriteCell(ref, fabric.CellConfig{LUT: 0x5A5A, FF: true})
			addr := fabric.FrameAddr{Major: e.dev.MajorOfArrayCol(2), Minor: 0}
			want, _ := e.dev.ReadFrame(addr.Major, addr.Minor)
			if got, err = e.p.Read(bitstream.Foreground, addr); err != nil || !wordsEqual(got, want) {
				t.Fatalf("readback of a designer write: %v", err)
			}
			if e.p.Elapsed() <= 0 {
				t.Fatal("transport consumed no time")
			}
		}},
		{name: "cycles-match-closed-form", run: func(t *testing.T, e *transportEnv) {
			updates := []bitstream.FrameUpdate{e.frame(1, 0, 1), e.frame(1, 1, 2), e.frame(3, 4, 3)}
			words := len(bitstream.Partial(e.dev, updates))
			c0 := e.p.Cycles()
			e.p.Stream(updates)
			// The Boundary-Scan link asserts stepped == closed form per burst.
			if err := e.p.Await(); err != nil {
				t.Fatal(err)
			}
			if e.deviceHolds(t, updates[0]) {
				t.Fatal("a streamed burst is a re-delivery: it must apply nothing")
			}
			used := e.p.Cycles() - c0
			if min := e.perWord * uint64(words); used < min || used > min+64 {
				t.Fatalf("burst of %d words cost %d cycles, want within [%d, %d]", words, used, min, min+64)
			}
			c1 := e.p.Cycles()
			if err := e.p.Write(bitstream.Foreground, updates); err != nil {
				t.Fatal(err)
			}
			if e.p.Cycles()-c1 != used {
				t.Fatalf("writing burst cost %d cycles, streamed %d", e.p.Cycles()-c1, used)
			}
			if e.p.Elapsed() != float64(e.p.Cycles())/e.hz {
				t.Fatal("Elapsed inconsistent with the cycle count")
			}
		}},
		{name: "stream-write-readback-ordered", run: func(t *testing.T, e *transportEnv) {
			a := e.frame(2, 0, 0xA0000000)
			b := e.frame(2, 0, 0xB0000000)
			e.rec.delay = 20 * time.Millisecond
			e.p.Stream([]bitstream.FrameUpdate{a})
			if err := e.p.Write(bitstream.Retry, []bitstream.FrameUpdate{b}); err != nil {
				t.Fatal(err)
			}
			got, err := e.p.Read(bitstream.Retry, b.Addr)
			if err != nil {
				t.Fatal(err)
			}
			n := len(bitstream.Partial(e.dev, []bitstream.FrameUpdate{a}))
			want := fmt.Sprint([]string{fmt.Sprintf("burst/%d", n), fmt.Sprintf("burst/%d", n), "readback"})
			if log := fmt.Sprint(e.rec.log); log != want {
				t.Fatalf("delivery order %s, want %s", log, want)
			}
			// The stream re-delivered (applied nothing); the write applied.
			if !wordsEqual(got, b.Data) || !e.deviceHolds(t, b) {
				t.Fatal("the writing burst did not land after the stream")
			}
		}},
		{name: "elided-burst-completes", run: func(t *testing.T, e *transportEnv) {
			e.p.SetCompress(true)
			cur, _ := e.dev.ReadFrame(5, 1)
			u := bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: 5, Minor: 1}, Data: cur, Prev: cur}
			c0, done0 := e.p.Counters(), e.p.CompletedBursts()
			e.p.Stream([]bitstream.FrameUpdate{u})
			if err := e.p.Await(); err != nil {
				t.Fatal(err)
			}
			if e.p.CompletedBursts() != done0+1 {
				t.Fatalf("elided burst never completed: %d -> %d", done0, e.p.CompletedBursts())
			}
			if c := e.p.Counters(); c[bitstream.Foreground].Cycles != c0[bitstream.Foreground].Cycles || c[bitstream.Foreground].WordsShifted != c0[bitstream.Foreground].WordsShifted {
				t.Fatalf("elided burst was charged: %+v -> %+v", c0[bitstream.Foreground], c[bitstream.Foreground])
			}
		}},
		{name: "maintenance-classes-spare-foreground", run: func(t *testing.T, e *transportEnv) {
			fg := e.p.Counters()[bitstream.Foreground]
			for class := bitstream.Retry; class < bitstream.NumClasses; class++ {
				u := e.frame(6, int(class), uint32(class)<<24)
				if err := e.p.Write(class, []bitstream.FrameUpdate{u}); err != nil {
					t.Fatal(err)
				}
				if _, err := e.p.Read(class, u.Addr); err != nil {
					t.Fatal(err)
				}
				if cc := e.p.Counters()[class]; cc.Cycles == 0 || cc.WordsShifted == 0 || cc.FramesDelivered != 1 {
					t.Fatalf("%v traffic not accounted to its class: %+v", class, cc)
				}
				if e.p.Seconds(class) <= 0 {
					t.Fatalf("%v consumed no time", class)
				}
			}
			if got := e.p.Counters()[bitstream.Foreground]; got != fg {
				t.Fatalf("maintenance traffic moved the foreground counters: %+v -> %+v", fg, got)
			}
		}},
		{name: "restore-round-trips", run: func(t *testing.T, e *transportEnv) {
			shadow, err := bitstream.NewShadow(e.dev)
			if err != nil {
				t.Fatal(err)
			}
			snap := shadow.Begin()
			saved := e.p.Counters()
			for i, u := range []bitstream.FrameUpdate{e.frame(1, 2, 7), e.frame(4, 0, 8)} {
				shadow.Note(u.Addr, u.Data)
				e.p.Stream([]bitstream.FrameUpdate{e.frame(1, i, 9)})
				if err := e.p.Write(bitstream.Scrub, []bitstream.FrameUpdate{u}); err != nil {
					t.Fatal(err)
				}
			}
			// A recovery-class burst of the snapshot's pre-images restores
			// the device.
			restore := snap.Recovery()
			if err := e.p.Write(bitstream.Recovery, restore); err != nil {
				t.Fatal(err)
			}
			for _, u := range restore {
				if !e.deviceHolds(t, u) {
					t.Fatalf("recovery burst did not restore %v", u.Addr)
				}
			}
			// The accounting restores exactly, and keeps counting from there.
			e.p.RestoreCounters(saved)
			if e.p.Counters() != saved {
				t.Fatalf("counters did not restore: %+v, want %+v", e.p.Counters(), saved)
			}
			e.p.Stream([]bitstream.FrameUpdate{e.frame(1, 0, 1)})
			if err := e.p.Await(); err != nil || e.p.Cycles() <= saved[bitstream.Foreground].Cycles {
				t.Fatalf("counting after a restore: %v", err)
			}
		}},
		{name: "hook-spares-recovery", hookedOnly: true, run: func(t *testing.T, e *transportEnv) {
			u := e.frame(3, 3, 0xD0000000)
			e.hook.FailFrames(u.Addr)
			if err := e.p.Write(bitstream.Retry, []bitstream.FrameUpdate{u}); err == nil || e.deviceHolds(t, u) {
				t.Fatalf("faulted write: err %v, landed %v; want an error and nothing applied", err, e.deviceHolds(t, u))
			}
			if e.p.Counters()[bitstream.Retry].Cycles == 0 {
				t.Fatal("a faulted write must still pay for its shift")
			}
			if err := e.p.Write(bitstream.Recovery, []bitstream.FrameUpdate{u}); err != nil || !e.deviceHolds(t, u) {
				t.Fatalf("recovery write over a failed frame: %v", err)
			}
			got, err := e.p.Read(bitstream.Recovery, u.Addr)
			if err != nil || !wordsEqual(got, u.Data) {
				t.Fatalf("recovery readback corrupted: %v", err)
			}
			if got, _ := e.p.Read(bitstream.Scrub, u.Addr); wordsEqual(got, u.Data) {
				t.Fatal("scrub readback of a failed frame not corrupted")
			}
			e.hook.SetStall(50 * time.Millisecond)
			e.p.Stream([]bitstream.FrameUpdate{u})
			if err := e.p.AwaitWithin(5 * time.Millisecond); !errors.Is(err, bitstream.ErrStalled) {
				t.Fatalf("stalled harvest: %v, want ErrStalled", err)
			}
			e.hook.SetStall(0)
			if err := e.p.Await(); err == nil {
				t.Fatal("the stalled burst's injected fault was lost")
			}
		}},
	}

	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			for _, c := range checks {
				if c.hookedOnly && !l.hooked {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					dev := fabric.NewDevice(fabric.TestDevice)
					ctrl := bitstream.NewController(dev)
					e := &transportEnv{dev: dev, rec: &recorder{Link: l.mk(ctrl)}, perWord: l.perWord, hz: l.hz}
					e.p = bitstream.NewTransport(ctrl, e.rec, l.hz)
					if l.hooked {
						e.hook = faultport.New(11)
						e.p.SetHook(e.hook)
					}
					c.run(t, e)
				})
			}
		})
	}
}
