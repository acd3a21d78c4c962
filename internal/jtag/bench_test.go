package jtag

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

func BenchmarkFrameWriteOverBoundaryScan(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	p := NewPort(bitstream.NewController(dev), DefaultTCKHz)
	data := make([]uint32, dev.FrameWords())
	addr := fabric.FrameAddr{Major: 3, Minor: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = uint32(i)
		if err := p.Write(bitstream.Foreground, []bitstream.FrameUpdate{{Addr: addr, Data: data}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Cycles())/float64(b.N), "TCK-cycles/frame")
}

func BenchmarkReadbackOverBoundaryScan(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	p := NewPort(bitstream.NewController(dev), DefaultTCKHz)
	addr := fabric.FrameAddr{Major: 3, Minor: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Read(bitstream.Foreground, addr); err != nil {
			b.Fatal(err)
		}
	}
}
