package fabric

import (
	"slices"
	"testing"
)

// TestAppendFanoutMatchesFanoutOf checks the appending enumerator against
// FanoutOf on every node of XCV50, pads included, through one reused
// buffer, and that the reused buffer makes it allocation-free.
func TestAppendFanoutMatchesFanoutOf(t *testing.T) {
	d := NewDevice(XCV50)
	n := int(d.PadBase()) + d.NumPads()
	var buf []PIPEdge
	for i := 0; i < n; i++ {
		buf = d.AppendFanout(buf[:0], NodeID(i))
		if want := d.FanoutOf(NodeID(i)); !slices.Equal(buf, want) {
			t.Fatalf("node %d: AppendFanout %v, FanoutOf %v", i, buf, want)
		}
	}
	prefix := []PIPEdge{{Sink: 7}}
	if got := d.AppendFanout(prefix, d.NodeIDAt(Coord{Row: 3, Col: 3}, LocalOutX(0))); got[0].Sink != 7 || len(got) < 2 {
		t.Fatalf("AppendFanout did not append after the existing elements: %v", got)
	}

	tile := d.NodeIDAt(Coord{Row: 5, Col: 5}, LocalSingle(East, 2))
	pad := d.PadNodeID(PadRef{Side: West, Pos: 4, K: 1})
	buf = make([]PIPEdge, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = d.AppendFanout(buf[:0], tile)
		buf = d.AppendFanout(buf[:0], pad)
	}); allocs != 0 {
		t.Errorf("AppendFanout into a large enough buffer allocates %.0f times per call pair", allocs)
	}
}
