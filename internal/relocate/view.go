// Package relocate implements the paper's contribution: dynamic relocation
// of active CLBs and routing resources on a partially reconfigurable FPGA,
// without stopping the functions that use them.
//
// The engine realises the two-phase relocation procedure of Fig. 2, the
// auxiliary relocation circuit for gated-clock and latch-based circuits of
// Fig. 3, the eleven-step flow of Fig. 4, and the duplicate-then-drop
// relocation of routing resources of Fig. 5 — all expressed as configuration
// frame writes delivered through a configuration port (Boundary-Scan in the
// paper), with cycle-exact cost accounting.
//
// Like the paper's JBits-based tool, the engine derives everything it needs
// — net connectivity, free resources, fanout — from the configuration
// memory itself, so it can relocate logic it did not place.
package relocate

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/fabric"
)

// view is the engine's bitstream-derived picture of the device: which
// routing nodes are in use, which cells are occupied, and how signals flow.
//
// The picture is maintained incrementally: the tool's write path reports
// exactly which cells, nodes and pads each configuration write can have
// changed (view implements ViewSink), and the view re-derives just those
// entries from the configuration memory. A full rescan remains only as the
// fallback for configuration that changed outside the tool — designer-path
// writes detected through Device.FramesChangedSince — and even that path
// first tries a partial re-derivation bounded by the dirty frames' columns.
type view struct {
	dev *fabric.Device
	gen uint64

	used    map[fabric.NodeID]bool
	inUse   map[fabric.CellRef]bool
	freeCLB map[fabric.Coord]bool
	// freePerRow is the row-bucketed spatial index over freeCLB: the number
	// of free CLBs per array row, maintained by the same deltas that keep
	// freeCLB current. findFreeCLB's expanding-ring lookup uses it to skip
	// rows with nothing free, making aux-CLB placement O(neighbourhood)
	// instead of a scan over the whole free set.
	freePerRow []int
	freeCount  int
	// ramCells holds the in-use LUT/RAM cells and ramPerCol counts them per
	// array column, maintained by the same deltas as inUse, so the engine's
	// RAM-column pre-check is one lookup per column instead of a scan of
	// every cell in it.
	ramCells  map[fabric.CellRef]bool
	ramPerCol []int

	fanBuf []fabric.PIPEdge // see fanout
}

func newView(dev *fabric.Device) *view {
	v := &view{dev: dev}
	v.rescan()
	return v
}

// copyFrom makes v an exact copy of src's picture, reusing v's maps: the
// rehearsal twin takes the live view this way at the start of every
// rehearsed sequence instead of re-deriving it from the twin's frames.
func (v *view) copyFrom(src *view) {
	if v.used == nil {
		v.used = make(map[fabric.NodeID]bool, len(src.used))
		v.inUse = make(map[fabric.CellRef]bool, len(src.inUse))
		v.freeCLB = make(map[fabric.Coord]bool, len(src.freeCLB))
		v.ramCells = make(map[fabric.CellRef]bool, len(src.ramCells))
	}
	copyInto(v.used, src.used)
	copyInto(v.inUse, src.inUse)
	copyInto(v.freeCLB, src.freeCLB)
	copyInto(v.ramCells, src.ramCells)
	v.freePerRow = append(v.freePerRow[:0], src.freePerRow...)
	v.ramPerCol = append(v.ramPerCol[:0], src.ramPerCol...)
	v.freeCount = src.freeCount
	v.gen = v.dev.Generation()
}

// equal reports whether two views hold the same occupancy picture.
func (v *view) equal(w *view) bool {
	return maps.Equal(v.used, w.used) && maps.Equal(v.inUse, w.inUse) &&
		maps.Equal(v.freeCLB, w.freeCLB) && maps.Equal(v.ramCells, w.ramCells) &&
		slices.Equal(v.freePerRow, w.freePerRow) && slices.Equal(v.ramPerCol, w.ramPerCol) &&
		v.freeCount == w.freeCount
}

func copyInto[K comparable](dst, src map[K]bool) {
	clear(dst)
	for k := range src {
		dst[k] = true
	}
}

// rescan rebuilds the occupancy picture from the configuration memory.
func (v *view) rescan() {
	v.gen = v.dev.Generation()
	v.used = map[fabric.NodeID]bool{}
	v.inUse = map[fabric.CellRef]bool{}
	v.freeCLB = map[fabric.Coord]bool{}
	v.freePerRow = make([]int, v.dev.Rows)
	v.freeCount = 0
	v.ramCells = map[fabric.CellRef]bool{}
	v.ramPerCol = make([]int, v.dev.Cols)
	dev := v.dev
	for row := 0; row < dev.Rows; row++ {
		for col := 0; col < dev.Cols; col++ {
			c := fabric.Coord{Row: row, Col: col}
			clbFree := true
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				ref := fabric.CellRef{Coord: c, Cell: cell}
				if v.noteCell(ref) {
					clbFree = false
					v.used[dev.NodeIDAt(c, fabric.LocalOutX(cell))] = true
					v.used[dev.NodeIDAt(c, fabric.LocalOutXQ(cell))] = true
				}
			}
			// Any sink with an enabled PIP marks itself and its enabled
			// sources as used.
			for local := 0; local < fabric.NodeSlots; local++ {
				if !fabric.IsLocalSink(local) {
					continue
				}
				if dev.PIPMask(c, local) == 0 {
					continue
				}
				v.used[dev.NodeIDAt(c, local)] = true
				for _, src := range dev.EnabledSourceNodes(c, local) {
					v.used[src] = true
				}
				clbFree = false
			}
			if clbFree {
				v.freeCLB[c] = true
				v.freePerRow[row]++
				v.freeCount++
			}
		}
	}
	// Pads.
	for i := 0; i < dev.NumPads(); i++ {
		p := dev.PadByIndex(i)
		pc := dev.ReadPad(p)
		if pc.Input || pc.Output {
			v.used[dev.PadNodeID(p)] = true
		}
		for _, n := range dev.PadEnabledSources(p) {
			v.used[n] = true
		}
	}
}

// refresh brings the view up to date if the configuration moved through a
// path the tool did not report (designer-level writes, recovery streams fed
// straight to the controller). The changed frames are narrowed through
// Device.FramesChangedSince; refreshFrames falls back to a full rescan when
// they cover most of the device.
func (v *view) refresh() {
	if v.dev.Generation() != v.gen {
		v.refreshFrames(v.dev.FramesChangedSince(v.gen))
	}
}

// nodeInUse re-derives one node's occupancy from the configuration memory.
// It must agree exactly with the criteria rescan applies: a cell output is
// used while its cell is configured, a sink while any of its PIPs is
// enabled, a source while any enabled PIP or output-pad mask selects it, and
// a pad node while the pad is configured as input or output.
func (v *view) nodeInUse(n fabric.NodeID) bool {
	dev := v.dev
	if pad, ok := dev.PadOfNode(n); ok {
		pc := dev.ReadPad(pad)
		return pc.Input || pc.Output || dev.HasEnabledFanout(n)
	}
	c, local, _ := dev.SplitNode(n)
	kind, _, idx := fabric.DecodeLocal(local)
	if kind == fabric.KindOutX || kind == fabric.KindOutXQ {
		if dev.ReadCell(fabric.CellRef{Coord: c, Cell: idx}).InUse() {
			return true
		}
	}
	if fabric.IsLocalSink(local) && dev.PIPMask(c, local) != 0 {
		return true
	}
	if dev.HasEnabledFanout(n) {
		return true
	}
	return v.fedByPad(n)
}

// padCandidate returns the one pad whose OutMask could select the wire: the
// wire must be a single leaving the array from a border tile, and the pad
// sits at the position it exits towards. This is the single encoding of the
// wire-to-pad border rule — fedByPad and padsFedBy both build on it.
func (v *view) padCandidate(n fabric.NodeID) (fabric.PadRef, bool) {
	dev := v.dev
	c, local, ok := dev.SplitNode(n)
	if !ok {
		return fabric.PadRef{}, false
	}
	kind, dir, idx := fabric.DecodeLocal(local)
	if kind != fabric.KindSingle {
		return fabric.PadRef{}, false
	}
	out := c.Step(dir, 1)
	if dev.InBounds(out) {
		return fabric.PadRef{}, false
	}
	side, pos := edgeOf(dev, out)
	if pos < 0 {
		return fabric.PadRef{}, false
	}
	return fabric.PadRef{Side: side, Pos: pos, K: idx % fabric.PadsPerEdgeTile}, true
}

// fedByPad reports whether an output pad's enabled OutMask selects the wire
// — the allocation-free counterpart of padsFedBy, for the per-node
// re-derivation path.
func (v *view) fedByPad(n fabric.NodeID) bool {
	p, ok := v.padCandidate(n)
	if !ok {
		return false
	}
	pc := v.dev.ReadPad(p)
	if !pc.Output || pc.OutMask == 0 {
		return false
	}
	for b := 0; b < fabric.PadOutSources; b++ {
		if pc.OutMask>>b&1 == 1 && v.dev.PadOutSourceNode(p, b) == n {
			return true
		}
	}
	return false
}

// markNode re-derives one node and updates the used set (markUsed/markFree
// folded into one recompute, so callers only say WHAT may have changed).
func (v *view) markNode(n fabric.NodeID) {
	if v.nodeInUse(n) {
		v.used[n] = true
	} else {
		delete(v.used, n)
	}
}

// noteCell re-derives one cell's occupancy and RAM status, reporting
// whether it is in use.
func (v *view) noteCell(ref fabric.CellRef) bool {
	cc := v.dev.ReadCell(ref)
	used := cc.InUse()
	if used {
		v.inUse[ref] = true
	} else {
		delete(v.inUse, ref)
	}
	if ram := used && cc.RAM; ram != v.ramCells[ref] {
		if ram {
			v.ramCells[ref] = true
			v.ramPerCol[ref.Col]++
		} else {
			delete(v.ramCells, ref)
			v.ramPerCol[ref.Col]--
		}
	}
	return used
}

// markCell re-derives one cell's occupancy and its output nodes.
func (v *view) markCell(ref fabric.CellRef) {
	v.noteCell(ref)
	v.markNode(v.dev.NodeIDAt(ref.Coord, fabric.LocalOutX(ref.Cell)))
	v.markNode(v.dev.NodeIDAt(ref.Coord, fabric.LocalOutXQ(ref.Cell)))
}

// markTileFree re-derives whether a CLB is wholly free (no configured cell,
// no enabled sink PIP).
func (v *view) markTileFree(c fabric.Coord) {
	dev := v.dev
	free := true
	for cell := 0; cell < fabric.CellsPerCLB && free; cell++ {
		if dev.ReadCell(fabric.CellRef{Coord: c, Cell: cell}).InUse() {
			free = false
		}
	}
	for local := 0; local < fabric.NodeSlots && free; local++ {
		if fabric.IsLocalSink(local) && dev.PIPMask(c, local) != 0 {
			free = false
		}
	}
	if free == v.freeCLB[c] {
		return
	}
	if free {
		v.freeCLB[c] = true
		v.freePerRow[c.Row]++
		v.freeCount++
	} else {
		delete(v.freeCLB, c)
		v.freePerRow[c.Row]--
		v.freeCount--
	}
}

// CellTouched applies the delta for one cell configuration write (ViewSink).
func (v *view) CellTouched(ref fabric.CellRef) {
	v.markCell(ref)
	v.markTileFree(ref.Coord)
	v.gen = v.dev.Generation()
}

// NodesTouched applies the delta for a set of nodes whose connectivity a
// write can have changed: each is re-derived from the configuration, and the
// tiles they live in re-derive their free/occupied status (ViewSink).
func (v *view) NodesTouched(nodes ...fabric.NodeID) {
	for _, n := range nodes {
		v.markNode(n)
		if c, _, ok := v.dev.SplitNode(n); ok {
			v.markTileFree(c)
		}
	}
	v.gen = v.dev.Generation()
}

// PadTouched applies the delta for one pad configuration write: the pad node
// itself and every wire its OutMask can select (ViewSink).
func (v *view) PadTouched(pad fabric.PadRef) {
	v.markNode(v.dev.PadNodeID(pad))
	for _, n := range v.dev.PadOutSourceNodes(pad) {
		v.markNode(n)
	}
	v.gen = v.dev.Generation()
}

// Synced consumes configuration that changed outside the tool's write path
// (designer-level placement, a rollback's recovery stream): the view
// re-derives the columns the dirty frames can influence (ViewSink).
func (v *view) Synced(addrs []fabric.FrameAddr) {
	v.refreshFrames(addrs)
}

// Advanced notes that the device generation moved with no configuration
// change the view has not already applied — the port re-delivering staged
// frames on a flush (ViewSink).
func (v *view) Advanced() {
	v.gen = v.dev.Generation()
}

// hexReach is how far (in tiles) a PIP can connect across the array: the
// straight-through hex wires of the sink templates span fabric.HexSpan
// tiles, so a configuration bit in one column can change the usage of nodes
// up to that many columns away.
const hexReach = fabric.HexSpan

// refreshFrames re-derives the occupancy entries a set of dirty frames can
// have changed: the tiles of the frames' own columns (cell configs and sink
// masks are tile-local), the used status of every node within wire reach of
// those columns, and the pads whose configuration or selectable wires the
// frames cover. Falls back to a full rescan when the dirty set covers most
// of the device — the designer-path fallback of the O(change) contract.
func (v *view) refreshFrames(addrs []fabric.FrameAddr) {
	dev := v.dev
	if len(addrs) == 0 {
		v.gen = dev.Generation()
		return
	}
	if 2*len(addrs) >= dev.TotalFrames() {
		v.rescan()
		return
	}
	dirtyCols := map[int]bool{} // array columns whose tile config changed
	nodeCols := map[int]bool{}  // array columns whose nodes need re-deriving
	pads := map[fabric.PadRef]bool{}
	markPadCols := func(col int) {
		// Sinks of this column can select North/South pads of the column;
		// border columns can also select the West/East pad rings.
		for k := 0; k < fabric.PadsPerEdgeTile; k++ {
			pads[fabric.PadRef{Side: fabric.North, Pos: col, K: k}] = true
			pads[fabric.PadRef{Side: fabric.South, Pos: col, K: k}] = true
		}
		if col == 0 || col == dev.Cols-1 {
			side := fabric.West
			if col == dev.Cols-1 {
				side = fabric.East
			}
			for pos := 0; pos < dev.Rows; pos++ {
				for k := 0; k < fabric.PadsPerEdgeTile; k++ {
					pads[fabric.PadRef{Side: side, Pos: pos, K: k}] = true
				}
			}
		}
	}
	addNodeCol := func(col int) {
		if col >= 0 && col < dev.Cols {
			nodeCols[col] = true
		}
	}
	for _, addr := range addrs {
		col, ok := dev.ColumnByMajor(addr.Major)
		if ok && col.Kind == fabric.ColCLB {
			a := col.ArrayCol
			dirtyCols[a] = true
			for _, d := range []int{0, -1, 1, -hexReach, hexReach} {
				addNodeCol(a + d)
			}
			markPadCols(a)
		}
		for _, p := range dev.PadsInFrame(addr) {
			pads[p] = true
			// The pad's selectable wires live in its border tile's column.
			tile, _, _ := dev.SplitNode(dev.PadOutSourceNodes(p)[0])
			addNodeCol(tile.Col)
		}
	}
	for col := range nodeCols {
		for row := 0; row < dev.Rows; row++ {
			c := fabric.Coord{Row: row, Col: col}
			for local := 0; local < fabric.NodeSlots; local++ {
				if !validLocal(local) {
					continue
				}
				v.markNode(dev.NodeIDAt(c, local))
			}
		}
	}
	for col := range dirtyCols {
		for row := 0; row < dev.Rows; row++ {
			c := fabric.Coord{Row: row, Col: col}
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				v.noteCell(fabric.CellRef{Coord: c, Cell: cell})
			}
			v.markTileFree(c)
		}
	}
	for p := range pads {
		v.markNode(dev.PadNodeID(p))
	}
	v.gen = dev.Generation()
}

// validLocal reports whether a local slot below NodeSlots is an actual node
// (the per-tile id space is padded to a fixed stride).
func validLocal(local int) bool {
	return local < fabric.LocalOutXQ(fabric.CellsPerCLB-1)+1
}

// terminalDriver walks backwards from a sink through enabled PIPs to the
// terminal source (cell output or input pad). It also returns the chain of
// nodes from the driver to the sink (driver first). An error is returned if
// the sink resolves to zero or multiple drivers (the engine refuses to
// relocate around malformed nets).
func (v *view) terminalDriver(c fabric.Coord, sinkLocal int) (fabric.NodeID, []fabric.NodeID, error) {
	dev := v.dev
	var chain []fabric.NodeID
	cur := dev.NodeIDAt(c, sinkLocal)
	seen := map[fabric.NodeID]bool{}
	for {
		if seen[cur] {
			return fabric.InvalidNode, nil, fmt.Errorf("relocate: routing loop at node %d", cur)
		}
		seen[cur] = true
		chain = append(chain, cur)
		if _, ok := dev.PadOfNode(cur); ok {
			break
		}
		cc, local, _ := dev.SplitNode(cur)
		kind, _, _ := fabric.DecodeLocal(local)
		if kind == fabric.KindOutX || kind == fabric.KindOutXQ {
			break
		}
		srcs := dev.EnabledSourceNodes(cc, local)
		switch len(srcs) {
		case 1:
			cur = srcs[0]
		case 0:
			return fabric.InvalidNode, nil, fmt.Errorf("relocate: sink %v/%d has no driver", c, sinkLocal)
		default:
			return fabric.InvalidNode, nil, fmt.Errorf("relocate: sink %v/%d has %d parallel drivers", c, sinkLocal, len(srcs))
		}
	}
	// chain is sink..driver; reverse.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain[0], chain, nil
}

// terminalSink is a leaf consumer of a net: a cell input pin or an output
// pad, plus the wire that directly feeds it.
type terminalSink struct {
	node    fabric.NodeID // pin or pad node
	lastSrc fabric.NodeID // the enabled source feeding it on the old path
}

// forwardCone walks forward from a source node through enabled PIPs,
// returning the terminal sinks and every intermediate node of the tree.
func (v *view) forwardCone(src fabric.NodeID) (sinks []terminalSink, tree []fabric.NodeID) {
	dev := v.dev
	seen := map[fabric.NodeID]bool{}
	var walk func(n fabric.NodeID)
	walk = func(n fabric.NodeID) {
		if seen[n] {
			return
		}
		seen[n] = true
		tree = append(tree, n)
		for _, e := range dev.FanoutOf(n) {
			if dev.PIPMask(e.SinkTile, e.SinkLocal)>>e.Bit&1 != 1 {
				continue
			}
			kind, _, _ := fabric.DecodeLocal(e.SinkLocal)
			switch kind {
			case fabric.KindPinI, fabric.KindPinBX, fabric.KindPinCE:
				sinks = append(sinks, terminalSink{node: e.Sink, lastSrc: n})
			default:
				walk(e.Sink)
			}
		}
		// Output pads fed by this node.
		if _, local, ok := dev.SplitNode(n); ok {
			kind, _, _ := fabric.DecodeLocal(local)
			if kind == fabric.KindSingle {
				for _, p := range v.padsFedBy(n) {
					sinks = append(sinks, terminalSink{node: dev.PadNodeID(p), lastSrc: n})
				}
			}
		}
	}
	walk(src)
	return sinks, tree
}

// fanout returns FanoutOf(n) in the view's reused buffer, valid until the
// next call: for loops over a node's edges that do not recurse.
func (v *view) fanout(n fabric.NodeID) []fabric.PIPEdge {
	v.fanBuf = v.dev.AppendFanout(v.fanBuf[:0], n)
	return v.fanBuf
}

// padsFedBy finds output pads whose enabled OutMask selects the given wire
// (at most one: the candidate pad at the wire's exit position).
func (v *view) padsFedBy(n fabric.NodeID) []fabric.PadRef {
	if !v.fedByPad(n) {
		return nil
	}
	p, _ := v.padCandidate(n)
	return []fabric.PadRef{p}
}

func edgeOf(dev *fabric.Device, out fabric.Coord) (fabric.Dir, int) {
	switch {
	case out.Row < 0:
		return fabric.North, out.Col
	case out.Row >= dev.Rows:
		return fabric.South, out.Col
	case out.Col < 0:
		return fabric.West, out.Row
	case out.Col >= dev.Cols:
		return fabric.East, out.Row
	}
	return fabric.North, -1
}

// exclusiveSuffix returns the tail of a driver->sink chain that serves only
// this sink (no other enabled fanout), INCLUDING the anchor node it hangs
// off (the last shared node, or the driver). Passing the result to
// freeChain disables the entry hop into the exclusive region as well as
// every hop inside it — leaving no driven-but-unconsumed wire behind —
// while the anchor's own connectivity (serving other sinks) is untouched.
func (v *view) exclusiveSuffix(chain []fabric.NodeID) []fabric.NodeID {
	dev := v.dev
	// chain[0] is the terminal driver; the last element the sink pin.
	cut := len(chain) - 1 // default: only the sink itself is exclusive
	for i := len(chain) - 2; i >= 1; i-- {
		n := chain[i]
		shared := false
		for _, e := range v.fanout(n) {
			if dev.PIPMask(e.SinkTile, e.SinkLocal)>>e.Bit&1 != 1 {
				continue
			}
			if i+1 < len(chain) && e.Sink == chain[i+1] {
				continue
			}
			shared = true
			break
		}
		if v.fedByPad(n) {
			shared = true
		}
		if shared {
			break
		}
		cut = i
	}
	return chain[cut-1:] // cut >= 1: include the anchor for the entry hop
}

// findFreeCLB locates a free CLB near a coordinate (for the auxiliary
// relocation circuit, which "must be implemented in a nearby free CLB"),
// excluding the given coordinates.
//
// The lookup walks expanding Manhattan rings around the target over the
// row-bucketed index: each ring of radius d visits only the (at most two)
// candidate columns per row, rows with no free CLB are skipped outright, and
// the first hit is the answer — cost O(neighbourhood of the nearest free
// CLB), not O(free set). Enumeration order matches the previous full scan's
// tie-break exactly: smallest distance, then smallest row, then smallest
// column (rows ascend within a ring, and the west candidate precedes the
// east one).
func (v *view) findFreeCLB(near fabric.Coord, exclude ...fabric.Coord) (fabric.Coord, error) {
	v.refresh()
	free := v.freeCount
	for i, c := range exclude {
		dup := false
		for _, p := range exclude[:i] {
			if p == c {
				dup = true
				break
			}
		}
		if !dup && v.freeCLB[c] {
			free--
		}
	}
	if free > 0 {
		dev := v.dev
		isHit := func(row, col int) bool {
			if col < 0 || col >= dev.Cols {
				return false
			}
			c := fabric.Coord{Row: row, Col: col}
			if !v.freeCLB[c] {
				return false
			}
			for _, e := range exclude {
				if e == c {
					return false
				}
			}
			return true
		}
		maxD := dev.Rows + dev.Cols
		for d := 0; d <= maxD; d++ {
			for dr := -d; dr <= d; dr++ {
				row := near.Row + dr
				if row < 0 || row >= dev.Rows || v.freePerRow[row] == 0 {
					continue
				}
				rem := d - abs(dr)
				if isHit(row, near.Col-rem) {
					return fabric.Coord{Row: row, Col: near.Col - rem}, nil
				}
				if rem > 0 && isHit(row, near.Col+rem) {
					return fabric.Coord{Row: row, Col: near.Col + rem}, nil
				}
			}
		}
	}
	return fabric.Coord{}, fmt.Errorf("relocate: no free CLB available near %v", near)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
