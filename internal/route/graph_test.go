package route

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/fabric"
)

// TestGraphMatchesFanoutOf checks the shared CSR graph against the fabric's
// own enumeration, node by node and in order: the search expands edges in
// graph order, so a reordered edge list would move routes. TEST12x8 has no
// tile HexSpan away from both borders of a dimension, XCV50 has a band of
// them; the counting pass takes a different path for each.
func TestGraphMatchesFanoutOf(t *testing.T) {
	for _, p := range []fabric.Preset{fabric.TestDevice, fabric.XCV50} {
		d := fabric.NewDevice(p)
		g := buildGraph(d)
		n := int(d.PadBase()) + d.NumPads()
		if len(g.off) != n+1 {
			t.Fatalf("%s: graph has %d offsets, want %d", p.Name, len(g.off), n+1)
		}
		for i := 0; i < n; i++ {
			var want []fabric.NodeID
			for _, e := range d.FanoutOf(fabric.NodeID(i)) {
				want = append(want, e.Sink)
			}
			if got := g.fanout(fabric.NodeID(i)); !slices.Equal(got, want) {
				t.Fatalf("%s node %d: graph fanout %v, FanoutOf %v", p.Name, i, got, want)
			}
		}
		if len(g.edges) != cap(g.edges) {
			t.Errorf("%s: edge array has %d spare slots; the counting pass should size it exactly", p.Name, cap(g.edges)-len(g.edges))
		}
	}
}

// TestGraphSharedPerGeometry pins the sharing contract: routers over
// distinct devices of one geometry read the same graph.
func TestGraphSharedPerGeometry(t *testing.T) {
	a := NewRouter(fabric.NewDevice(fabric.XCV50))
	b := NewRouter(fabric.NewDevice(fabric.XCV50))
	c := NewRouter(fabric.NewDevice(fabric.TestDevice))
	if a.g != b.g {
		t.Error("two XCV50 routers built separate graphs")
	}
	if a.g == c.g {
		t.Error("XCV50 and TEST12x8 routers share a graph")
	}
}

// TestConcurrentRoutersShareGraph builds routers for one not-yet-seen
// geometry from two goroutines at once and routes on both; under -race it
// checks that building and reading the shared graph is race-free, and the
// two results must equal a serial run.
func TestConcurrentRoutersShareGraph(t *testing.T) {
	preset := fabric.Preset{Name: "RACE9x13", Rows: 9, Cols: 13}
	route := func() []byte {
		d := fabric.NewDevice(preset)
		r := NewRouter(d)
		routed, err := r.RouteAll(randomNets(d, 21, 20, 3))
		var buf bytes.Buffer
		writeRouted(&buf, routed, err)
		return buf.Bytes()
	}
	var wg sync.WaitGroup
	out := make([][]byte, 2)
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = route()
		}()
	}
	wg.Wait()
	serial := route()
	for i, o := range out {
		if !bytes.Equal(o, serial) {
			t.Fatalf("goroutine %d routed differently from the serial run", i)
		}
	}
}

// TestStampWrap drives every epoch counter across its uint32 wrap. Stale
// stamps written early in the router's life would alias the restarted
// epochs unless the wrap clears them, leaking blocks, congestion and search
// state into later routing: after each wrap no stamp may lie ahead of its
// epoch, and the wrapped router must route exactly like a fresh one.
func TestStampWrap(t *testing.T) {
	d := fabric.NewDevice(fabric.XCV50)
	render := func(r *Router) []byte {
		routed, err := r.RouteAll(randomNets(d, 31, 25, 3))
		var buf bytes.Buffer
		writeRouted(&buf, routed, err)
		return buf.Bytes()
	}
	want := render(NewRouter(d))

	r := NewRouter(d)
	blockRandom(d, r, 32, 3000)
	// Stamp early epochs (1, 2, ...) into every table.
	for i := 0; i < 3; i++ {
		r.Reset()
		blockRandom(d, r, 32, 3000)
		if _, err := r.RouteAll(randomNets(d, 33, 25, 3)); err != nil {
			t.Fatal(err)
		}
	}
	ahead := func(table string, at []uint32, epoch uint32) {
		t.Helper()
		for n, a := range at {
			if a > epoch {
				t.Fatalf("%s: node %d stamped %d after the wrap to epoch %d", table, n, a, epoch)
			}
		}
	}
	stamps := func(n int, at func(int) uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = at(i)
		}
		return out
	}

	r.epoch = math.MaxUint32
	r.Reset()
	ahead("blocked", r.blockedAt, r.epoch)
	ahead("congestion", stamps(len(r.cong), func(i int) uint32 { return r.cong[i].at }), r.epoch)
	r.searchEpoch = math.MaxUint32
	se := r.nextSearch()
	ahead("search", stamps(len(r.search), func(i int) uint32 { return r.search[i].at }), se)
	r.treeEpoch = math.MaxUint32
	te := r.nextTree()
	ahead("tree", stamps(len(r.tree), func(i int) uint32 { return r.tree[i].at }), te)

	if got := render(r); !bytes.Equal(got, want) {
		t.Fatal("router routed differently after its stamps wrapped")
	}
}
