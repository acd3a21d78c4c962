package route

import (
	"testing"

	"repro/internal/fabric"
)

func BenchmarkRouteAcrossDevice(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	src := dev.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	sink := dev.NodeIDAt(fabric.Coord{Row: 25, Col: 39}, fabric.LocalPinI(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRouter(dev)
		if _, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteFanout16(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	src := dev.NodeIDAt(fabric.Coord{Row: 14, Col: 20}, fabric.LocalOutXQ(0))
	var sinks []fabric.NodeID
	for i := 0; i < 16; i++ {
		sinks = append(sinks, dev.NodeIDAt(
			fabric.Coord{Row: 6 + (i%4)*5, Col: 8 + (i/4)*8}, fabric.LocalPinI(i%4, i/4%4)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRouter(dev)
		if _, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: sinks}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAll is the router-only gate bench for the bounded-search
// work: a mixed net set (one cross-device net, one moderate fanout, several
// short local nets — the relocation engine's typical mix) routed on ONE
// reused router. B/op and allocs/op pin the allocation-flat property: the
// per-iteration allocations must track the returned paths, not the search
// volume.
func BenchmarkRouteAll(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	r := NewRouter(dev)
	nets := []Net{
		{Name: "cross", Source: dev.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 25, Col: 39}, fabric.LocalPinI(1, 1))}},
		{Name: "fan", Source: dev.NodeIDAt(fabric.Coord{Row: 14, Col: 20}, fabric.LocalOutXQ(0)),
			Sinks: []fabric.NodeID{
				dev.NodeIDAt(fabric.Coord{Row: 10, Col: 16}, fabric.LocalPinI(0, 0)),
				dev.NodeIDAt(fabric.Coord{Row: 18, Col: 24}, fabric.LocalPinI(1, 2)),
				dev.NodeIDAt(fabric.Coord{Row: 12, Col: 26}, fabric.LocalPinI(2, 1)),
			}},
		{Name: "loc1", Source: dev.NodeIDAt(fabric.Coord{Row: 5, Col: 5}, fabric.LocalOutX(1)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 7, Col: 6}, fabric.LocalPinI(0, 3))}},
		{Name: "loc2", Source: dev.NodeIDAt(fabric.Coord{Row: 20, Col: 8}, fabric.LocalOutXQ(2)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 21, Col: 10}, fabric.LocalPinBX(1))}},
		{Name: "loc3", Source: dev.NodeIDAt(fabric.Coord{Row: 9, Col: 30}, fabric.LocalOutX(3)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 8, Col: 33}, fabric.LocalPinCE(2))}},
	}
	// One unmeasured call first, so the measured loop shows the
	// steady-state allocation behaviour of a reused router (engines keep
	// one router for their lifetime).
	if _, err := r.RouteAll(nets); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		if _, err := r.RouteAll(nets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewRouter gates a router's per-node footprint on XCV200: the
// routing graph is shared per geometry (built once, before the timer), so
// B/op is the router's own stamped session, search and tree state.
func BenchmarkNewRouter(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	NewRouter(dev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routerSink = NewRouter(dev)
	}
}

// routerSink and graphSink keep the benchmarked constructors' results alive.
var (
	routerSink *Router
	graphSink  *graph
)

// BenchmarkBuildGraph is the one-time cost of the shared XCV200 routing
// graph: time, and allocation that should equal the graph's own size.
func BenchmarkBuildGraph(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphSink = buildGraph(dev)
	}
}
