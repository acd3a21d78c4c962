package bitstream

import (
	"testing"

	"repro/internal/fabric"
)

func snapTestShadow(t *testing.T) (*fabric.Device, *Shadow) {
	t.Helper()
	dev := fabric.NewDevice(fabric.TestDevice)
	s, err := NewShadow(dev)
	if err != nil {
		t.Fatal(err)
	}
	return dev, s
}

func frameOf(t *testing.T, s *Shadow, addr fabric.FrameAddr) []uint32 {
	t.Helper()
	f, ok := s.Frame(addr)
	if !ok {
		t.Fatalf("no frame %v", addr)
	}
	return f
}

func TestSnapshotCapturesPreimagesOnce(t *testing.T) {
	dev, s := snapTestShadow(t)
	addr := fabric.FrameAddr{Major: 1, Minor: 2}
	orig := append([]uint32{}, frameOf(t, s, addr)...)

	sn := s.Begin()
	if got := sn.Frames(); len(got) != 0 {
		t.Fatalf("fresh snapshot dirty: %v", got)
	}
	d1 := make([]uint32, dev.FrameWords())
	d1[0] = 0xAAAA0001
	s.Note(addr, d1)
	d2 := make([]uint32, dev.FrameWords())
	d2[0] = 0xAAAA0002
	s.Note(addr, d2)

	pre, ok := sn.Preimage(addr)
	if !ok {
		t.Fatal("no pre-image captured")
	}
	// First touch wins: the pre-image is the epoch state, not d1.
	for i := range pre {
		if pre[i] != orig[i] {
			t.Fatalf("pre-image word %d = %#x, want %#x", i, pre[i], orig[i])
		}
	}
	if got := sn.Frames(); len(got) != 1 || got[0] != addr {
		t.Fatalf("dirty set = %v", got)
	}
}

func TestSnapshotRollbackRestoresAndRearms(t *testing.T) {
	dev, s := snapTestShadow(t)
	addr := fabric.FrameAddr{Major: 2, Minor: 0}
	orig := append([]uint32{}, frameOf(t, s, addr)...)

	sn := s.Begin()
	mut := make([]uint32, dev.FrameWords())
	mut[1] = 0xDEADBEEF
	s.Note(addr, mut)
	sn.Rollback()

	got := frameOf(t, s, addr)
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("rollback left word %d = %#x", i, got[i])
		}
	}
	// Re-armed: a second round of mutation is captured again.
	s.Note(addr, mut)
	if _, ok := sn.Preimage(addr); !ok {
		t.Fatal("snapshot not re-armed after rollback")
	}
	sn.Rollback()
	got = frameOf(t, s, addr)
	if got[1] != orig[1] {
		t.Fatal("second rollback failed")
	}
}

func TestSnapshotReleaseStopsCapture(t *testing.T) {
	dev, s := snapTestShadow(t)
	addr := fabric.FrameAddr{Major: 3, Minor: 1}
	sn := s.Begin()
	sn.Release()
	sn.Release() // idempotent
	mut := make([]uint32, dev.FrameWords())
	mut[0] = 7
	s.Note(addr, mut)
	if _, ok := sn.Preimage(addr); ok {
		t.Fatal("released snapshot captured a pre-image")
	}
}

func TestNestedSnapshotsSeeConsistentEpochs(t *testing.T) {
	dev, s := snapTestShadow(t)
	addr := fabric.FrameAddr{Major: 1, Minor: 0}
	orig := append([]uint32{}, frameOf(t, s, addr)...)

	outer := s.Begin()
	v1 := make([]uint32, dev.FrameWords())
	v1[0] = 1
	s.Note(addr, v1)

	inner := s.Begin()
	v2 := make([]uint32, dev.FrameWords())
	v2[0] = 2
	s.Note(addr, v2)

	// Inner rollback → back to v1; outer still holds the original.
	inner.Rollback()
	if got := frameOf(t, s, addr); got[0] != 1 {
		t.Fatalf("inner rollback → %#x, want 1", got[0])
	}
	inner.Release()
	outer.Rollback()
	if got := frameOf(t, s, addr); got[0] != orig[0] {
		t.Fatalf("outer rollback → %#x, want %#x", got[0], orig[0])
	}
	outer.Release()
}

// TestSnapshotRecoveryWordsRoundTrip streams a snapshot's recovery bitstream
// through a controller and checks the device comes back bit-identical.
func TestSnapshotRecoveryWordsRoundTrip(t *testing.T) {
	dev, s := snapTestShadow(t)
	ctrl := NewController(dev)

	sn := s.Begin()
	// Dirty a scattered set of frames (consecutive and isolated) through the
	// "tool path": note the shadow, write the device.
	addrs := []fabric.FrameAddr{
		{Major: 1, Minor: 3}, {Major: 1, Minor: 4}, {Major: 1, Minor: 5},
		{Major: 4, Minor: 0}, {Major: 6, Minor: 7},
	}
	for i, addr := range addrs {
		mut := make([]uint32, dev.FrameWords())
		mut[0] = uint32(0xC0DE0000 + i)
		s.Note(addr, mut)
		if err := dev.WriteFrame(addr.Major, addr.Minor, mut); err != nil {
			t.Fatal(err)
		}
	}
	updates := sn.Recovery()
	if len(updates) == 0 {
		t.Fatal("no recovery stream for a dirty snapshot")
	}
	if err := ctrl.Feed(Partial(dev, updates)...); err != nil {
		t.Fatalf("recovery stream rejected: %v", err)
	}
	sn.Rollback()
	for _, addr := range addrs {
		got, err := dev.ReadFrame(addr.Major, addr.Minor)
		if err != nil {
			t.Fatal(err)
		}
		want := frameOf(t, s, addr)
		for w := range got {
			if got[w] != want[w] {
				t.Fatalf("frame %v word %d: device %#x shadow %#x", addr, w, got[w], want[w])
			}
		}
		if got[0] >= 0xC0DE0000 {
			t.Fatalf("frame %v still holds mutated data", addr)
		}
	}
	if sn.Recovery() != nil {
		t.Fatal("clean snapshot produced a recovery stream")
	}
}

func TestPartialStreamWordsExact(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	fw := dev.FrameWords()
	mk := func(addrs ...fabric.FrameAddr) []FrameUpdate {
		out := make([]FrameUpdate, len(addrs))
		for i, a := range addrs {
			out[i] = FrameUpdate{Addr: a, Data: make([]uint32, fw)}
		}
		return out
	}
	cases := [][]FrameUpdate{
		mk(fabric.FrameAddr{Major: 1, Minor: 0}),
		mk(fabric.FrameAddr{Major: 1, Minor: 0}, fabric.FrameAddr{Major: 1, Minor: 1}),
		mk(fabric.FrameAddr{Major: 1, Minor: 0}, fabric.FrameAddr{Major: 3, Minor: 5}),
	}
	// A run long enough to need a Type-2 FDRI header.
	var big []FrameUpdate
	for m := 0; m < fabric.FramesPerCLBColumn; m++ {
		big = append(big, FrameUpdate{Addr: fabric.FrameAddr{Major: 2, Minor: m}, Data: make([]uint32, fw)})
	}
	cases = append(cases, big)
	for i, updates := range cases {
		want := len(Partial(dev, updates))
		got := partialStreamWords(fw, updates)
		if got != want {
			t.Errorf("case %d: sized %d words, stream is %d", i, got, want)
		}
	}
}
