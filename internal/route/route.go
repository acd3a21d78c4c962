// Package route implements signal routing over the fabric's programmable
// interconnect: an A*-based maze expansion with PathFinder-style negotiated
// congestion, plus path delay calculation. The relocation engine reuses the
// router to build replica connections out of free routing resources only, as
// the paper requires ("the temporary transfer paths ... use only free
// routing resources").
package route

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
)

// Net is a routing request: one source node (cell output or input pad) and
// one or more sink nodes (cell input pins or output pads).
type Net struct {
	Name   string
	Source fabric.NodeID
	Sinks  []fabric.NodeID
	// Bound, when non-empty, confines the paths to non-pad sinks inside the
	// rectangle: every intermediate node must lie in a tile the rectangle
	// contains. Paths to pad sinks are exempt (a pad sits on the device edge,
	// outside any interior region). The template capture path sets it so a
	// design's interior routing stays region-contained and therefore
	// translation-invariant.
	Bound fabric.Rect
}

// RoutedNet is a successfully routed net: a tree of nodes rooted at the
// source covering every sink.
type RoutedNet struct {
	Net
	// Paths maps each sink to its node sequence from source to sink
	// (inclusive on both ends).
	Paths map[fabric.NodeID][]fabric.NodeID
	// Tree is the union of all path nodes.
	Tree []fabric.NodeID
}

// DelayTo returns the propagation delay in nanoseconds from source to sink.
func (rn *RoutedNet) DelayTo(dev *fabric.Device, sink fabric.NodeID) float64 {
	return PathDelayNs(dev, rn.Paths[sink])
}

// PathDelayNs sums the wire delays along a node path.
func PathDelayNs(dev *fabric.Device, path []fabric.NodeID) float64 {
	padBase, numPads := dev.PadBase(), dev.NumPads()
	total := 0.0
	for _, n := range path {
		total += nodeDelay(padBase, numPads, n)
	}
	return total
}

// localDelay is the intrinsic delay of each tile-local node id.
var localDelay = func() (t [fabric.NodeSlots]float64) {
	for l := range t {
		kind, _, _ := fabric.DecodeLocal(l)
		t[l] = fabric.WireDelayNs(kind)
	}
	return t
}()

// nodeDelay is the delay a node contributes to a path: its local kind's
// delay for a tile node, the pad delay for a pad, 0 past the last pad.
func nodeDelay(padBase fabric.NodeID, numPads int, n fabric.NodeID) float64 {
	if n < padBase {
		return localDelay[n%fabric.NodeSlots]
	}
	if int(n-padBase) < numPads {
		return fabric.WireDelayNs(fabric.KindPad)
	}
	return 0
}

// Router routes sets of nets over a device with negotiated congestion.
//
// A Router is built once and reused: all per-session state (blocked nodes,
// congestion history, usage counts) and all per-search state (cost and
// predecessor tables) live in epoch-stamped arrays indexed by NodeID, so
// Reset and every search start are O(1) instead of reallocating
// device-sized tables. The topology is not per-router state at all: every
// router over one device geometry reads the same immutable routing graph.
type Router struct {
	dev *fabric.Device
	// MaxIters bounds the negotiation rounds.
	MaxIters int
	// Greedy scales the A* heuristic. The default (1) finds near
	// delay-optimal paths — not optimal ones: the heuristic is not a lower
	// bound (see heuristicPerTile) — but, with the estimate sitting far
	// below real per-tile cost, expands close to the whole bounding box per
	// sink. Values above 1 trade path cost for focus — the warm-load and
	// translation boundary patches use it: their few pad nets don't need
	// delay-optimal trees, they need O(path) search. Zero means 1.
	Greedy float64

	g       *graph // shared with every router of this geometry; read-only
	padBase fabric.NodeID
	numPads int

	// Session state, valid while its stamp equals epoch (Reset bumps the
	// epoch, invalidating everything at once). cong holds what only
	// negotiated routing uses; it is allocated by the first RouteAll, so a
	// router that only ever routes disjointly never pays for it.
	epoch     uint32
	blockedAt []uint32
	cong      []congestion

	// Per-search state (one searchOne call), stamped with searchEpoch.
	searchEpoch uint32
	search      []searchState

	// Per-net tree membership, stamped with treeEpoch. tree[n].prev is the
	// predecessor of n inside the current net's tree (valid only while
	// tree[n].at == treeEpoch); walking it from a sink reconstructs the full
	// source-to-sink path without keeping per-node path copies.
	treeEpoch uint32
	tree      []treeState

	q pq // reusable open set

	// Reusable per-call scratch: the growing seed list of the net being
	// routed and the path buffer reconstruct writes into. Both are valid
	// only until the next routeNet/routeOne call, and both keep RouteAll
	// allocation-flat — allocations track the paths returned to the caller,
	// not the search volume.
	seedBuf []fabric.NodeID
	pathBuf []fabric.NodeID
}

// congestion is one node's PathFinder state for the session: accumulated
// history cost, present usage count and the net index last routed over it
// (-1 when unowned). The fields read as zero (owner -1) unless at == epoch.
type congestion struct {
	history float64
	present int32
	owner   int32
	at      uint32
}

// searchState is one node's A* state for the current search: the best cost
// found and the predecessor it was reached from, valid while at ==
// searchEpoch.
type searchState struct {
	best float64
	prev fabric.NodeID
	at   uint32
}

// treeState is one node's membership in the tree of the net being routed.
type treeState struct {
	prev fabric.NodeID
	at   uint32
}

// NewRouter creates a router over a device.
func NewRouter(dev *fabric.Device) *Router {
	n := int(dev.PadBase()) + dev.NumPads()
	return &Router{
		dev:         dev,
		MaxIters:    40,
		g:           graphFor(dev),
		padBase:     dev.PadBase(),
		numPads:     dev.NumPads(),
		epoch:       1,
		blockedAt:   make([]uint32, n),
		searchEpoch: 1,
		search:      make([]searchState, n),
		treeEpoch:   1,
		tree:        make([]treeState, n),
	}
}

// Reset returns the router to its freshly-constructed state — no blocked
// nodes, no congestion history — in O(1). Callers that previously built a
// new router per operation reuse one this way.
func (r *Router) Reset() {
	if r.epoch++; r.epoch == 0 {
		// The stamp wrapped: clear so no entry from 2^32 sessions ago
		// matches the restarted epoch.
		clear(r.blockedAt)
		clear(r.cong)
		r.epoch = 1
	}
}

// Block marks nodes as unusable (owned by other circuitry).
func (r *Router) Block(nodes ...fabric.NodeID) {
	for _, n := range nodes {
		r.blockedAt[n] = r.epoch
	}
}

// Unblock releases nodes.
func (r *Router) Unblock(nodes ...fabric.NodeID) {
	for _, n := range nodes {
		r.blockedAt[n] = 0
	}
}

// Blocked reports whether a node is blocked.
func (r *Router) Blocked(n fabric.NodeID) bool { return r.blockedAt[n] == r.epoch }

// congOf returns n's congestion entry, starting it afresh if it is stale.
// Only RouteAll writes congestion, after allocating r.cong.
func (r *Router) congOf(n fabric.NodeID) *congestion {
	c := &r.cong[n]
	if c.at != r.epoch {
		*c = congestion{owner: -1, at: r.epoch}
	}
	return c
}

// congAt returns n's congestion state for the session: no history, no
// usage and owner -1 unless RouteAll touched n since the last Reset.
func (r *Router) congAt(n fabric.NodeID) congestion {
	if r.cong != nil && r.cong[n].at == r.epoch {
		return r.cong[n]
	}
	return congestion{owner: -1}
}

// nextSearch starts a new search epoch, clearing the table if the stamp
// wrapped.
func (r *Router) nextSearch() uint32 {
	if r.searchEpoch++; r.searchEpoch == 0 {
		clear(r.search)
		r.searchEpoch = 1
	}
	return r.searchEpoch
}

// nextTree starts a new net tree, clearing the table if the stamp wrapped.
func (r *Router) nextTree() uint32 {
	if r.treeEpoch++; r.treeEpoch == 0 {
		clear(r.tree)
		r.treeEpoch = 1
	}
	return r.treeEpoch
}

// item is a priority-queue entry.
type item struct {
	node fabric.NodeID
	cost float64
	est  float64
}

// pq is a typed binary min-heap on (est, node) — the node tie-break keeps
// expansion deterministic. Hand-rolled to avoid container/heap's interface
// boxing on every push and pop.
type pq []item

func pqLess(a, b item) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	return a.node < b.node
}

func (p *pq) push(it item) {
	*p = append(*p, it)
	q := *p
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (p *pq) pop() item {
	q := *p
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*p = q
	i := 0
	for {
		l, rgt := 2*i+1, 2*i+2
		smallest := i
		if l < len(q) && pqLess(q[l], q[smallest]) {
			smallest = l
		}
		if rgt < len(q) && pqLess(q[rgt], q[smallest]) {
			smallest = rgt
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// tileOf returns the coordinate used for the A* heuristic: a tile node's
// own tile, a pad's border tile.
func (r *Router) tileOf(n fabric.NodeID) fabric.Coord {
	if n < r.padBase {
		t := int(n) / fabric.NodeSlots
		return fabric.Coord{Row: t / r.dev.Cols, Col: t % r.dev.Cols}
	}
	pad, ok := r.dev.PadOfNode(n)
	if !ok {
		return fabric.Coord{}
	}
	switch pad.Side {
	case fabric.North:
		return fabric.Coord{Row: 0, Col: pad.Pos}
	case fabric.South:
		return fabric.Coord{Row: r.dev.Rows - 1, Col: pad.Pos}
	case fabric.West:
		return fabric.Coord{Row: pad.Pos, Col: 0}
	default:
		return fabric.Coord{Row: pad.Pos, Col: r.dev.Cols - 1}
	}
}

// heuristicPerTile is the per-tile weight of the A* distance estimate: a
// hex wire covers six tiles for 1.10 ns of wire delay plus the 0.01 per-hop
// bias, the cheapest per-tile rate any wire achieves. It is NOT a lower
// bound on the remaining cost, so the search is not admissible: a node's
// distance is measured from its tile, which for a hex wire is the tile the
// wire starts in, yet the node's cost already paid for the whole six-tile
// span. A hex node ending next to the sink thus carries up to six tiles of
// estimate it will never spend, and A* can settle a costlier path first: on
// 400 random single-sink XCV200 nets it returned a costlier path than a
// zero-heuristic (Dijkstra) search on 153, by at most 0.72 ns.
const heuristicPerTile = (1.10 + 0.01) / 6

// searchMargins are the staged bounding-box inflations of a sink search: the
// box spans the current tree and the sink, inflated by the margin. Most nets
// are short and resolve inside the first box at a fraction of the expansion
// cost of a whole-device search; a search that exhausts a box retries with
// the next inflation, and the final stage is unbounded, so reachability is
// never lost — only found later.
var searchMargins = [...]int{3, 9, -1}

// routeOne expands from the current net tree (stamped into r.tree by the
// caller) to one sink, inflating the search bounding box on failure.
// presentFactor scales the congestion penalty. Returns the path from a tree
// node to the sink, valid until the next search (it lives in reusable
// scratch).
func (r *Router) routeOne(seeds []fabric.NodeID, sink fabric.NodeID,
	netIdx int32, presentFactor float64, within *fabric.Rect) ([]fabric.NodeID, error) {
	for _, margin := range searchMargins {
		if path := r.searchOne(seeds, sink, netIdx, presentFactor, margin, within); path != nil {
			return path, nil
		}
	}
	return nil, fmt.Errorf("route: no path to sink %d", sink)
}

// searchOne is one bounded A* expansion; margin < 0 means unbounded. It
// returns nil when the open set exhausts without reaching the sink.
func (r *Router) searchOne(seeds []fabric.NodeID, sink fabric.NodeID,
	netIdx int32, presentFactor float64, margin int, within *fabric.Rect) []fabric.NodeID {

	// Pad sinks are reached through their candidate pre-pad wires.
	var prePadBuf [fabric.PadOutSources]fabric.NodeID
	var prePad []fabric.NodeID
	target := sink
	sinkTile := r.tileOf(sink)
	if pad, ok := r.dev.PadOfNode(sink); ok {
		for b := range prePadBuf {
			prePadBuf[b] = r.dev.PadOutSourceNode(pad, b)
		}
		prePad = prePadBuf[:]
	}

	// Bounding box over the tree's tiles and the sink, inflated by margin.
	bounded := margin >= 0
	minR, maxR := sinkTile.Row, sinkTile.Row
	minC, maxC := sinkTile.Col, sinkTile.Col
	if bounded {
		for _, n := range seeds {
			t := r.tileOf(n)
			minR, maxR = min(minR, t.Row), max(maxR, t.Row)
			minC, maxC = min(minC, t.Col), max(maxC, t.Col)
		}
		minR -= margin
		maxR += margin
		minC -= margin
		maxC += margin
	}

	hPerTile := heuristicPerTile
	if r.Greedy > 1 {
		hPerTile *= r.Greedy
	}
	se := r.nextSearch()
	r.q = r.q[:0]
	for _, n := range seeds {
		r.q.push(item{node: n, cost: 0, est: float64(r.tileOf(n).ManhattanDist(sinkTile)) * hPerTile})
		r.search[n] = searchState{best: 0, prev: fabric.InvalidNode, at: se}
	}

	for len(r.q) > 0 {
		it := r.q.pop()
		if it.cost > r.search[it.node].best {
			continue
		}
		if it.node == target {
			return r.reconstruct(it.node, se)
		}
		if slices.Contains(prePad, it.node) {
			// One more hop into the pad.
			r.search[target] = searchState{best: it.cost, prev: it.node, at: se}
			return r.reconstruct(target, se)
		}
		for _, nxt := range r.g.fanout(it.node) {
			// The target itself may be "in use" (an already-driven pin being
			// connected in PARALLEL — the relocation procedure's core move);
			// only intermediate nodes must be free.
			if r.blockedAt[nxt] == r.epoch && nxt != target {
				continue
			}
			t := r.tileOf(nxt)
			if bounded && (t.Row < minR || t.Row > maxR || t.Col < minC || t.Col > maxC) {
				continue
			}
			if within != nil && nxt != target && !within.Contains(t) {
				continue
			}
			// Nodes owned by another net cost extra (negotiation) instead of
			// being forbidden outright.
			cg := r.congAt(nxt)
			penalty := 0.0
			if cg.owner >= 0 && cg.owner != netIdx {
				penalty = presentFactor * (1 + float64(cg.present))
			}
			c := it.cost + nodeDelay(r.padBase, r.numPads, nxt) + cg.history + penalty + 0.01
			st := &r.search[nxt]
			if st.at == se && st.best <= c {
				continue
			}
			*st = searchState{best: c, prev: it.node, at: se}
			est := c + float64(t.ManhattanDist(sinkTile))*hPerTile
			r.q.push(item{node: nxt, cost: c, est: est})
		}
	}
	return nil
}

// reconstruct walks search predecessors back from a reached node to the
// first node already in the net's tree, returning that segment in source
// order. The path lives in r.pathBuf and is valid until the next search.
func (r *Router) reconstruct(from fabric.NodeID, se uint32) []fabric.NodeID {
	path := r.pathBuf[:0]
	for n := from; n != fabric.InvalidNode; {
		path = append(path, n)
		if r.tree[n].at == r.treeEpoch {
			break
		}
		st := &r.search[n]
		if st.at != se {
			break
		}
		n = st.prev
	}
	reverse(path)
	r.pathBuf = path
	return path
}

func reverse(p []fabric.NodeID) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// RouteAll routes a set of nets with negotiated congestion and returns the
// routed trees. It fails if congestion cannot be resolved in MaxIters
// rounds.
func (r *Router) RouteAll(nets []Net) ([]RoutedNet, error) {
	if r.cong == nil {
		r.cong = make([]congestion, len(r.blockedAt))
	}
	routed := make([]RoutedNet, len(nets))
	presentFactor := 0.5

	for iter := 0; iter < r.MaxIters; iter++ {
		// (Re)route every net.
		for i := range nets {
			// Rip up previous route of this net.
			for _, n := range routed[i].Tree {
				c := r.congOf(n)
				if c.present--; c.present == 0 {
					c.owner = -1
				}
			}
			rn, err := r.routeNet(nets[i], int32(i), presentFactor)
			if err != nil {
				return nil, fmt.Errorf("route: net %s: %w", nets[i].Name, err)
			}
			routed[i] = *rn
			for _, n := range rn.Tree {
				c := r.congOf(n)
				c.present++
				c.owner = int32(i)
			}
		}
		// Check for overuse (a node carrying 2+ nets).
		overused := 0
		for i := range routed {
			for _, n := range routed[i].Tree {
				if r.congAt(n).present > 1 {
					overused++
					r.congOf(n).history += 0.5
				}
			}
		}
		if overused == 0 {
			return routed, nil
		}
		presentFactor *= 1.8
	}
	return nil, fmt.Errorf("route: congestion unresolved after %d iterations", r.MaxIters)
}

// routeNet routes all sinks of one net as a Steiner-ish tree (each sink
// reuses the partial tree). The tree's structure lives in the epoch-stamped
// r.tree array — no per-node path copies — and the returned paths share
// one slab allocated for the caller, so routing cost is allocation-flat:
// proportional to the paths handed back, not to the search volume.
func (r *Router) routeNet(net Net, netIdx int32, presentFactor float64) (*RoutedNet, error) {
	if len(net.Sinks) == 0 {
		return nil, fmt.Errorf("net has no sinks")
	}
	rn := &RoutedNet{Net: net, Paths: make(map[fabric.NodeID][]fabric.NodeID, len(net.Sinks))}
	te := r.nextTree()
	r.tree[net.Source] = treeState{prev: fabric.InvalidNode, at: te}
	seeds := append(r.seedBuf[:0], net.Source)
	rn.Tree = append(rn.Tree, net.Source)
	var within *fabric.Rect
	if net.Bound.Area() > 0 {
		within = &net.Bound
	}
	var slab []fabric.NodeID // backs every returned path; owned by the caller
	for _, sink := range net.Sinks {
		w := within
		if sink >= r.padBase {
			w = nil // boundary branch: pads live outside any interior bound
		}
		seg, err := r.routeOne(seeds, sink, netIdx, presentFactor, w)
		if err != nil {
			r.seedBuf = seeds
			return nil, err
		}
		// seg starts at an existing tree node; graft the new suffix on. A
		// pad joins the tree (it is part of the net and must be blocked for
		// other nets) but never seeds later sinks: an output pad is a
		// terminal — a signal cannot re-enter the array through it, and a
		// search expanded from a pad seed would build exactly that
		// physically dead branch (pad -> border wire -> ... -> pin).
		for i := 1; i < len(seg); i++ {
			n := seg[i]
			if r.tree[n].at != te {
				r.tree[n] = treeState{prev: seg[i-1], at: te}
				rn.Tree = append(rn.Tree, n)
				if n < r.padBase {
					seeds = append(seeds, n)
				}
			}
		}
		// Full source-to-sink path: walk the tree predecessors. Appends may
		// grow the slab; earlier sub-slices keep their (already written)
		// backing array, so sharing is safe.
		start := len(slab)
		for n := sink; n != fabric.InvalidNode; n = r.tree[n].prev {
			slab = append(slab, n)
		}
		reverse(slab[start:])
		rn.Paths[sink] = slab[start:len(slab):len(slab)]
	}
	r.seedBuf = seeds
	return rn, nil
}

// RouteDisjoint routes nets one by one, treating every previously routed or
// blocked node as strictly off-limits (no sharing, no negotiation). The
// relocation engine uses it: transfer paths must use only free resources and
// must never perturb existing nets.
func (r *Router) RouteDisjoint(nets []Net) ([]RoutedNet, error) {
	routed := make([]RoutedNet, 0, len(nets))
	for i, net := range nets {
		rn, err := r.routeNet(net, int32(i), 0)
		if err != nil {
			return nil, fmt.Errorf("route: net %s: %w", net.Name, err)
		}
		// Hard-block the new tree for subsequent nets.
		for _, n := range rn.Tree {
			if n != net.Source {
				r.Block(n)
			}
		}
		routed = append(routed, *rn)
	}
	return routed, nil
}

// Apply enables the PIPs of routed nets in the device configuration
// (designer-level path; the relocation engine emits frame writes instead).
func Apply(dev *fabric.Device, nets []RoutedNet) error {
	for i := range nets {
		if err := ApplyNet(dev, &nets[i]); err != nil {
			return err
		}
	}
	return nil
}

// ApplyNet enables the PIPs along one routed net.
func ApplyNet(dev *fabric.Device, rn *RoutedNet) error {
	for _, path := range rn.Paths {
		for i := 1; i < len(path); i++ {
			if err := EnablePathPIP(dev, path[i-1], path[i]); err != nil {
				return fmt.Errorf("net %s: %w", rn.Name, err)
			}
		}
	}
	return nil
}

// EnablePathPIP turns on the PIP connecting src to dst (dst may be a tile
// sink or an output pad).
func EnablePathPIP(dev *fabric.Device, src, dst fabric.NodeID) error {
	if pad, ok := dev.PadOfNode(dst); ok {
		srcs := dev.PadOutSourceNodes(pad)
		for b, n := range srcs {
			if n == src {
				pc := dev.ReadPad(pad)
				pc.OutMask |= 1 << b
				pc.Output = true
				dev.WritePad(pad, pc)
				return nil
			}
		}
		return fmt.Errorf("node %d does not feed pad %v", src, pad)
	}
	c, local, ok := dev.SplitNode(dst)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("node %d is not a configurable sink", dst)
	}
	bit, ok := dev.PIPBitFor(c, local, src)
	if !ok {
		return fmt.Errorf("no PIP from %d to %d", src, dst)
	}
	dev.SetPIPMask(c, local, dev.PIPMask(c, local)|1<<bit)
	return nil
}

// DisablePathPIP turns off the PIP connecting src to dst.
func DisablePathPIP(dev *fabric.Device, src, dst fabric.NodeID) error {
	if pad, ok := dev.PadOfNode(dst); ok {
		srcs := dev.PadOutSourceNodes(pad)
		for b, n := range srcs {
			if n == src {
				pc := dev.ReadPad(pad)
				pc.OutMask &^= 1 << b
				if pc.OutMask == 0 {
					pc.Output = false
				}
				dev.WritePad(pad, pc)
				return nil
			}
		}
		return fmt.Errorf("node %d does not feed pad %v", src, pad)
	}
	c, local, ok := dev.SplitNode(dst)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("node %d is not a configurable sink", dst)
	}
	bit, ok := dev.PIPBitFor(c, local, src)
	if !ok {
		return fmt.Errorf("no PIP from %d to %d", src, dst)
	}
	dev.SetPIPMask(c, local, dev.PIPMask(c, local)&^(1<<bit))
	return nil
}
