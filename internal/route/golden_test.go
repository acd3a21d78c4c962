package route

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fabric"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/routes.golden from the current router")

const goldenPath = "testdata/routes.golden"

// goldenCase is one routing scenario of the golden corpus: a fresh router
// over a device, optional set-up (blocks, Greedy), then one routing call.
type goldenCase struct {
	name   string
	preset fabric.Preset
	run    func(d *fabric.Device, r *Router) ([]RoutedNet, error)
}

// writeRouted serialises routed nets: per net its Tree in order, then each
// sink's path in the net's Sinks order. Every node of every path is written,
// so any change in search order that changes a path shows up as a diff.
func writeRouted(w *bytes.Buffer, routed []RoutedNet, err error) {
	if err != nil {
		fmt.Fprintf(w, "error %s\n", err)
		return
	}
	for i := range routed {
		rn := &routed[i]
		fmt.Fprintf(w, "net %s src %d tree%s\n", rn.Name, rn.Source, nodeList(rn.Tree))
		for _, s := range rn.Sinks {
			fmt.Fprintf(w, "  sink %d path%s\n", s, nodeList(rn.Paths[s]))
		}
	}
}

func nodeList(ns []fabric.NodeID) string {
	var b strings.Builder
	for _, n := range ns {
		fmt.Fprintf(&b, " %d", n)
	}
	return b.String()
}

// benchMix is BenchmarkRouteAll's net set: one cross-device net, one
// moderate fanout and three short local nets.
func benchMix(d *fabric.Device) []Net {
	at := d.NodeIDAt
	return []Net{
		{Name: "cross", Source: at(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0)),
			Sinks: []fabric.NodeID{at(fabric.Coord{Row: 25, Col: 39}, fabric.LocalPinI(1, 1))}},
		{Name: "fan", Source: at(fabric.Coord{Row: 14, Col: 20}, fabric.LocalOutXQ(0)),
			Sinks: []fabric.NodeID{
				at(fabric.Coord{Row: 10, Col: 16}, fabric.LocalPinI(0, 0)),
				at(fabric.Coord{Row: 18, Col: 24}, fabric.LocalPinI(1, 2)),
				at(fabric.Coord{Row: 12, Col: 26}, fabric.LocalPinI(2, 1)),
			}},
		{Name: "loc1", Source: at(fabric.Coord{Row: 5, Col: 5}, fabric.LocalOutX(1)),
			Sinks: []fabric.NodeID{at(fabric.Coord{Row: 7, Col: 6}, fabric.LocalPinI(0, 3))}},
		{Name: "loc2", Source: at(fabric.Coord{Row: 20, Col: 8}, fabric.LocalOutXQ(2)),
			Sinks: []fabric.NodeID{at(fabric.Coord{Row: 21, Col: 10}, fabric.LocalPinBX(1))}},
		{Name: "loc3", Source: at(fabric.Coord{Row: 9, Col: 30}, fabric.LocalOutX(3)),
			Sinks: []fabric.NodeID{at(fabric.Coord{Row: 8, Col: 33}, fabric.LocalPinCE(2))}},
	}
}

// negotiatedNets packs 60 random nets onto the smallest device: their first
// round overlaps, so RouteAll needs several PathFinder rounds.
func negotiatedNets(d *fabric.Device) []Net { return randomNets(d, 1, 60, 3) }

// randomNets draws deterministic pseudo-random pin-to-pin nets.
func randomNets(d *fabric.Device, seed int64, count, maxSinks int) []Net {
	rng := rand.New(rand.NewSource(seed))
	tile := func() fabric.Coord { return fabric.Coord{Row: rng.Intn(d.Rows), Col: rng.Intn(d.Cols)} }
	// Terminals are never shared between nets: a pin claimed twice is
	// congestion no negotiation can resolve.
	taken := map[fabric.NodeID]bool{}
	fresh := func(n fabric.NodeID) bool {
		if taken[n] {
			return false
		}
		taken[n] = true
		return true
	}
	var nets []Net
	for i := 0; i < count; i++ {
		src := d.NodeIDAt(tile(), fabric.LocalOutX(rng.Intn(fabric.CellsPerCLB)))
		if rng.Intn(2) == 0 {
			src = d.NodeIDAt(tile(), fabric.LocalOutXQ(rng.Intn(fabric.CellsPerCLB)))
		}
		var sinks []fabric.NodeID
		for k := 1 + rng.Intn(maxSinks); k > 0; k-- {
			cell := rng.Intn(fabric.CellsPerCLB)
			var s fabric.NodeID
			switch rng.Intn(4) {
			case 0:
				s = d.NodeIDAt(tile(), fabric.LocalPinBX(cell))
			case 1:
				s = d.NodeIDAt(tile(), fabric.LocalPinCE(cell))
			default:
				s = d.NodeIDAt(tile(), fabric.LocalPinI(cell, rng.Intn(fabric.LUTInputs)))
			}
			if fresh(s) {
				sinks = append(sinks, s)
			}
		}
		if !fresh(src) || len(sinks) == 0 {
			continue
		}
		nets = append(nets, Net{Name: fmt.Sprintf("r%d", i), Source: src, Sinks: sinks})
	}
	return nets
}

// blockRandom hard-blocks a deterministic scatter of wire starts.
func blockRandom(d *fabric.Device, r *Router, seed int64, count int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		c := fabric.Coord{Row: rng.Intn(d.Rows), Col: rng.Intn(d.Cols)}
		dir := fabric.Dir(rng.Intn(4))
		if rng.Intn(4) == 0 {
			r.Block(d.NodeIDAt(c, fabric.LocalHex(dir, rng.Intn(fabric.HexesPerDir))))
		} else {
			r.Block(d.NodeIDAt(c, fabric.LocalSingle(dir, rng.Intn(fabric.SinglesPerDir))))
		}
	}
}

// padNets mixes pad-source nets, pad-sink nets and a multi-sink net whose
// first sink is an output pad.
func padNets(d *fabric.Device) []Net {
	pad := func(s fabric.Dir, pos, k int) fabric.NodeID {
		return d.PadNodeID(fabric.PadRef{Side: s, Pos: pos, K: k})
	}
	pin := func(row, col, cell, k int) fabric.NodeID {
		return d.NodeIDAt(fabric.Coord{Row: row, Col: col}, fabric.LocalPinI(cell, k))
	}
	out := func(row, col, cell int) fabric.NodeID {
		return d.NodeIDAt(fabric.Coord{Row: row, Col: col}, fabric.LocalOutX(cell))
	}
	return []Net{
		{Name: "inW", Source: pad(fabric.West, 3, 0), Sinks: []fabric.NodeID{pin(3, 4, 2, 1), pin(5, 6, 0, 0)}},
		{Name: "inN", Source: pad(fabric.North, 10, 1), Sinks: []fabric.NodeID{pin(4, 9, 1, 3)}},
		{Name: "inS", Source: pad(fabric.South, 2, 0), Sinks: []fabric.NodeID{pin(10, 3, 3, 2)}},
		{Name: "outE", Source: out(5, 20, 3), Sinks: []fabric.NodeID{pad(fabric.East, 5, 1)}},
		{Name: "outN", Source: out(6, 8, 2), Sinks: []fabric.NodeID{pad(fabric.North, 8, 0), pin(2, 8, 1, 1)}},
		{Name: "outW", Source: out(12, 4, 1), Sinks: []fabric.NodeID{pin(12, 2, 0, 2), pad(fabric.West, 13, 1)}},
		{Name: "thru", Source: pad(fabric.West, 9, 1), Sinks: []fabric.NodeID{pad(fabric.East, 9, 0)}},
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"routeall-bench-mix", fabric.XCV200, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			return r.RouteAll(benchMix(d))
		}},
		{"routeall-bench-mix-reset-reuse", fabric.XCV200, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			// The second call on one router after Reset must route exactly
			// like a fresh router: stale stamps from the first call must not
			// leak into it.
			blockRandom(d, r, 7, 4000)
			if _, err := r.RouteAll(randomNets(d, 8, 12, 3)); err != nil {
				return nil, err
			}
			r.Reset()
			return r.RouteAll(benchMix(d))
		}},
		{"routeall-negotiated", fabric.TestDevice, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			return r.RouteAll(negotiatedNets(d))
		}},
		{"routeall-random-xcv200", fabric.XCV200, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			return r.RouteAll(randomNets(d, 1, 40, 4))
		}},
		{"routeall-random-blocked-xcv50", fabric.XCV50, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			blockRandom(d, r, 2, 6000)
			return r.RouteAll(randomNets(d, 3, 60, 3))
		}},
		{"disjoint-blocked-xcv50", fabric.XCV50, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			blockRandom(d, r, 4, 5000)
			return r.RouteDisjoint(randomNets(d, 5, 50, 2))
		}},
		{"disjoint-corridor", fabric.TestDevice, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			var nets []Net
			for i := 0; i < 6; i++ {
				nets = append(nets, Net{Name: fmt.Sprintf("d%d", i),
					Source: d.NodeIDAt(fabric.Coord{Row: i, Col: 0}, fabric.LocalOutX(i%4)),
					Sinks:  []fabric.NodeID{d.NodeIDAt(fabric.Coord{Row: 7 - i, Col: 11}, fabric.LocalPinI(i%4, 0))}})
			}
			for c := 3; c <= 8; c++ {
				for i := 0; i < fabric.SinglesPerDir; i += 2 {
					r.Block(d.NodeIDAt(fabric.Coord{Row: 3, Col: c}, fabric.LocalSingle(fabric.East, i)))
				}
			}
			return r.RouteDisjoint(nets)
		}},
		{"disjoint-unroutable", fabric.TestDevice, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			src := d.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
			sink := d.NodeIDAt(fabric.Coord{Row: 2, Col: 4}, fabric.LocalPinI(0, 0))
			for row := 0; row < d.Rows; row++ {
				for col := 0; col < d.Cols; col++ {
					for dir := fabric.Dir(0); dir < 4; dir++ {
						for i := 0; i < fabric.SinglesPerDir; i++ {
							r.Block(d.NodeIDAt(fabric.Coord{Row: row, Col: col}, fabric.LocalSingle(dir, i)))
						}
					}
				}
			}
			return r.RouteDisjoint([]Net{{Name: "boxed", Source: src, Sinks: []fabric.NodeID{sink}}})
		}},
		{"pads-routeall-xcv50", fabric.XCV50, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			return r.RouteAll(padNets(d))
		}},
		{"pads-disjoint-xcv50", fabric.XCV50, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			blockRandom(d, r, 6, 3000)
			return r.RouteDisjoint(padNets(d))
		}},
		{"bound-contained-xcv50", fabric.XCV50, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			bound := fabric.Rect{Row: 4, Col: 6, H: 5, W: 6}
			nets := randomNets(d, 9, 30, 3)
			rng := rand.New(rand.NewSource(10))
			in := func() fabric.Coord {
				return fabric.Coord{Row: bound.Row + rng.Intn(bound.H), Col: bound.Col + rng.Intn(bound.W)}
			}
			for i := range nets {
				nets[i].Bound = bound
				nets[i].Source = d.NodeIDAt(in(), fabric.LocalOutXQ(i%fabric.CellsPerCLB))
				for k := range nets[i].Sinks {
					_, local, _ := d.SplitNode(nets[i].Sinks[k])
					nets[i].Sinks[k] = d.NodeIDAt(in(), local)
				}
			}
			// A boundary net: the branch to the pad sink is exempt from the
			// bound, the branch to the interior pin is not.
			nets = append(nets,
				Net{Name: "bout", Source: d.NodeIDAt(in(), fabric.LocalOutX(1)),
					Sinks: []fabric.NodeID{d.NodeIDAt(in(), fabric.LocalPinI(3, 3)),
						d.PadNodeID(fabric.PadRef{Side: fabric.North, Pos: 8, K: 0})}, Bound: bound})
			return r.RouteDisjoint(nets)
		}},
		{"greedy3-boundary-patch-xcv200", fabric.XCV200, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			// The warm-load/translation boundary patch: pad nets routed with
			// a weighted heuristic over hard-blocked occupancy.
			r.Greedy = 3
			blockRandom(d, r, 11, 20000)
			pad := func(s fabric.Dir, pos, k int) fabric.NodeID {
				return d.PadNodeID(fabric.PadRef{Side: s, Pos: pos, K: k})
			}
			nets := []Net{
				{Name: "pin0", Source: pad(fabric.West, 0, 0), Sinks: []fabric.NodeID{d.NodeIDAt(fabric.Coord{Row: 12, Col: 18}, fabric.LocalPinI(0, 1))}},
				{Name: "pin1", Source: pad(fabric.West, 0, 1), Sinks: []fabric.NodeID{d.NodeIDAt(fabric.Coord{Row: 13, Col: 19}, fabric.LocalPinBX(2)), d.NodeIDAt(fabric.Coord{Row: 14, Col: 18}, fabric.LocalPinI(3, 0))}},
				{Name: "pin2", Source: pad(fabric.West, 1, 0), Sinks: []fabric.NodeID{d.NodeIDAt(fabric.Coord{Row: 15, Col: 21}, fabric.LocalPinCE(1))}},
				{Name: "pout0", Source: d.NodeIDAt(fabric.Coord{Row: 14, Col: 20}, fabric.LocalOutXQ(3)), Sinks: []fabric.NodeID{pad(fabric.West, 2, 0)}},
				{Name: "pout1", Source: d.NodeIDAt(fabric.Coord{Row: 12, Col: 21}, fabric.LocalOutX(0)), Sinks: []fabric.NodeID{pad(fabric.East, 20, 1)}},
			}
			return r.RouteDisjoint(nets)
		}},
		{"greedy3-routeall-xcv50", fabric.XCV50, func(d *fabric.Device, r *Router) ([]RoutedNet, error) {
			r.Greedy = 3
			blockRandom(d, r, 12, 4000)
			return r.RouteAll(append(padNets(d), randomNets(d, 13, 20, 2)...))
		}},
	}
}

func renderGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, gc := range goldenCases() {
		d := fabric.NewDevice(gc.preset)
		routed, err := gc.run(d, NewRouter(d))
		fmt.Fprintf(&buf, "case %s %s\n", gc.name, gc.preset.Name)
		writeRouted(&buf, routed, err)
	}
	return buf.Bytes()
}

// TestGoldenRoutes pins every path and tree order the router produces over
// a corpus of negotiated, disjoint, pad, bounded and weighted-heuristic
// scenarios. The router's search order is a contract: relocation frames,
// template images and every deterministic benchmark metric derive from it,
// so a refactor must reproduce this file byte for byte. Regenerate with
// `go test ./internal/route -run TestGoldenRoutes -update` only for a change
// that is meant to move routes.
func TestGoldenRoutes(t *testing.T) {
	got := renderGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("routes differ from %s at line %d:\n got: %.300s\nwant: %.300s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("routes differ from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
}

// TestGoldenNegotiationIsExercised guards the corpus itself: the negotiated
// case must really need more than one PathFinder round, or it would not pin
// the history and present-sharing arithmetic.
func TestGoldenNegotiationIsExercised(t *testing.T) {
	d := fabric.NewDevice(fabric.TestDevice)
	r := NewRouter(d)
	r.MaxIters = 1
	if _, err := r.RouteAll(negotiatedNets(d)); err == nil {
		t.Fatal("congested corpus case routes in one round; it no longer exercises negotiation")
	}
}
