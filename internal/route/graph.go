package route

import (
	"sync"

	"repro/internal/fabric"
)

// graph is the routing graph of one device geometry in compressed sparse
// row form: the fanout of node n is edges[off[n]:off[n+1]], in
// fabric.FanoutOf order (the order the search expands it in). The fabric's
// PIP templates depend only on the array's rows and columns, so one graph
// serves every device of that geometry. It is immutable once built and
// shared read-only by every router in the process.
type graph struct {
	off   []uint32
	edges []fabric.NodeID
}

func (g *graph) fanout(n fabric.NodeID) []fabric.NodeID {
	return g.edges[g.off[n]:g.off[n+1]]
}

// graphs caches one graph per (Rows, Cols). Building under the lock keeps
// concurrent first routers of one geometry from building it twice.
var graphs struct {
	mu sync.Mutex
	m  map[[2]int]*graph
}

// graphFor returns the shared routing graph of dev's geometry, building it
// on first use.
func graphFor(dev *fabric.Device) *graph {
	key := [2]int{dev.Rows, dev.Cols}
	graphs.mu.Lock()
	defer graphs.mu.Unlock()
	if g := graphs.m[key]; g != nil {
		return g
	}
	g := buildGraph(dev)
	if graphs.m == nil {
		graphs.m = make(map[[2]int]*graph)
	}
	graphs.m[key] = g
	return g
}

// buildGraph enumerates every node's fanout through one reused buffer: a
// counting pass sizes the edge array exactly, a filling pass writes it, so
// the only allocations are the graph itself.
//
// A tile node's fanout size depends only on which of its PIP template
// offsets stay on the array, and no template reaches further than
// fabric.HexSpan. Every tile at least HexSpan from both borders of a
// dimension therefore sizes like the first such tile, so the counting pass
// enumerates only tiles near a border and copies the rest.
func buildGraph(dev *fabric.Device) *graph {
	n := int(dev.PadBase()) + dev.NumPads()
	g := &graph{off: make([]uint32, n+1)}
	inner := func(i, size int) int {
		if i >= fabric.HexSpan && i < size-fabric.HexSpan {
			return fabric.HexSpan
		}
		return i
	}
	var buf []fabric.PIPEdge
	for i := 0; i < n; i++ {
		rep := i
		if c, local, ok := dev.SplitNode(fabric.NodeID(i)); ok {
			rep = int(dev.NodeIDAt(fabric.Coord{Row: inner(c.Row, dev.Rows), Col: inner(c.Col, dev.Cols)}, local))
		}
		size := g.off[rep+1] - g.off[rep]
		if rep == i {
			buf = dev.AppendFanout(buf[:0], fabric.NodeID(i))
			size = uint32(len(buf))
		}
		g.off[i+1] = g.off[i] + size
	}
	g.edges = make([]fabric.NodeID, 0, g.off[n])
	for i := 0; i < n; i++ {
		buf = dev.AppendFanout(buf[:0], fabric.NodeID(i))
		for _, e := range buf {
			g.edges = append(g.edges, e.Sink)
		}
	}
	return g
}
