// Package rlm (run-time logic management) is the public facade of the
// reproduction of Gericota et al., "Run-Time Management of Logic Resources
// on Reconfigurable Systems" (DATE 2003): a complete software model of a
// Virtex-class partially reconfigurable FPGA together with the paper's
// contribution — dynamic relocation of active CLBs and routing, on-line
// defragmentation, and the rearrangement-and-programming tool built on a
// JBits-style bitstream API over a Boundary-Scan configuration port.
//
// A System owns the device, its configuration port, the relocation engine
// and the area book-keeping. Designs (technology-mapped netlists) are
// loaded into rectangular regions, run cycle-accurately, and can be moved
// — whole or CLB by CLB — while they keep running.
//
// The facade is transactional: every mutating operation validates against
// the area book-keeping before a single frame is streamed, and rolls the
// device back to a pre-operation configuration checkpoint (the tool's
// recovery shadow) if the frame stream fails midway. Multi-operation
// transactions are built with System.Plan, on-line defragmentation with
// System.Defragment, and progress is observable through System.Subscribe.
// A System is safe for concurrent use. Operations are serialised; as each
// one ends, whichever way, it publishes an immutable snapshot of what the
// readers (Stats, Traffic, Capacity, Health, Designs, Region, Map, ...)
// report. Readers load that snapshot and never wait for a running
// operation: they see the state as of the last completed one, so a
// Defragment's Stats appear only once it returns.
package rlm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/jtag"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/relocate"
	"repro/internal/route"
	"repro/internal/template"
)

// System is the live reconfigurable platform: device, configuration port,
// relocation engine, and area management.
type System struct {
	// mu serialises operations. Readers never take it: they load obs, the
	// snapshot each operation publishes as it releases mu (see unlock).
	mu  sync.Mutex
	obs atomic.Pointer[observed]

	dev    *fabric.Device
	port   *bitstream.Transport
	engine *relocate.Engine
	area   *area.Manager

	router  *route.Router
	pads    map[fabric.PadRef]bool
	designs map[string]*place.Design
	regions map[string]int // design name -> area allocation id

	// tmpl is the content-addressed template cache (nil = disabled): cold
	// loads capture pre-routed frame images, warm loads splice them back,
	// and relocations of cached designs go by address translation.
	tmpl *template.Store

	// cps is the stack of armed checkpoints; mutating operations journal
	// inverse host-book-keeping ops into each of them (first-touch, so a
	// checkpoint costs what the operation touches, not what is loaded).
	cps       []*checkpoint
	restoring bool // suppress journalling while a rollback replays the journal

	// jrnl is the durable operation journal (nil = journaling off); see
	// journal.go for the write-ahead protocol and recover.go for the crash
	// reconciliation path.
	jrnl *sysJournal

	// retry, when non-nil, arms the transport fault-tolerance ladder (see
	// fault.go): harvest faults re-deliver from the shadow instead of
	// immediately rolling the operation back.
	retry *RetryPolicy
	// health is the per-column health lifecycle tracker (see health.go).
	// Always non-nil; the zero policy keeps every automatic transition off,
	// reproducing the legacy permanent-quarantine behaviour.
	health *health.Tracker
	// quarantined is the set of configuration frames condemned after
	// persistent write failures — masked out of port delivery and (for CLB
	// columns) out of the area manager's logic space until the health
	// lifecycle's probe/release cycle (if armed) revives the column.
	quarantined map[fabric.FrameAddr]bool
	// pendingBad holds frames the retry ladder's final verify condemned,
	// consumed by the quarantine sweep at the end of the op (see transact).
	pendingBad []fabric.FrameAddr

	// Scrubber state (see scrub.go): the cached frame address space, the
	// round-robin cursor, and the background goroutine's lifecycle.
	scrubAddrs  []fabric.FrameAddr
	scrubCursor int
	scrubStop   chan struct{}
	scrubDone   chan struct{}
	closeOnce   sync.Once
	// onDelivered observes every frame delivery (and rollback recovery
	// stream) — the crash-torture harness mirrors the fabric from it.
	onDelivered func([]bitstream.FrameUpdate)
	// crashHook, when set, fires at every journal/flush boundary with the
	// boundary's name; the harness snapshots journal prefix and mirror
	// there to simulate a crash.
	crashHook func(stage string)

	subMu   sync.Mutex
	subs    map[int]*subscriber
	nextSub int
}

// New builds a system from functional options, e.g.
//
//	sys, err := rlm.New(rlm.WithDevice(fabric.XCV50), rlm.WithPort(rlm.BoundaryScan))
func New(opts ...Option) (*System, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.device.Rows == 0 {
		cfg.device = fabric.XCV200
	}
	dev := fabric.NewDevice(cfg.device)
	sys, err := newSystem(&cfg, dev)
	if err != nil {
		return nil, err
	}
	if cfg.journalPath != "" {
		j, err := journal.Create(cfg.journalPath)
		if err != nil {
			return nil, fmt.Errorf("rlm: opening journal: %w", err)
		}
		sys.attachJournal(j, 0)
		sys.jrnl.path = cfg.journalPath
		sys.jrnl.rotate = cfg.journalRot
		if err := sys.journalInit(&cfg); err != nil {
			j.Close()
			return nil, fmt.Errorf("rlm: initialising journal: %w", err)
		}
	}
	sys.startScrubber(cfg.scrubEvery, cfg.scrubBatch)
	return sys, nil
}

// newSystem builds a system over an existing device — New's body, shared
// with the journal-recovery constructor which brings its own device.
func newSystem(cfg *config, dev *fabric.Device) (*System, error) {
	switch cfg.portWidth {
	case 0, 8, 16, 32:
	default:
		return nil, fmt.Errorf("rlm: WithPortWidth(%d): width must be 8, 16 or 32", cfg.portWidth)
	}
	ctrl := bitstream.NewController(dev)
	var port *bitstream.Transport
	if cfg.port == SelectMAP {
		hz := cfg.clockHz
		if hz == 0 {
			hz = 50e6
		}
		port = bitstream.NewSelectMAP(ctrl, hz, cfg.portWidth)
	} else {
		if cfg.portWidth != 0 {
			return nil, fmt.Errorf("rlm: WithPortWidth requires the SelectMAP port")
		}
		hz := cfg.clockHz
		if hz == 0 {
			hz = jtag.DefaultTCKHz
		}
		port = jtag.NewPort(ctrl, hz)
	}
	port.SetCompress(cfg.compress)
	if cfg.faultHook != nil {
		port.SetHook(cfg.faultHook)
	}
	eng, err := relocate.NewEngine(dev, port)
	if err != nil {
		return nil, err
	}
	if cfg.appClockHz > 0 {
		eng.AppClockHz = cfg.appClockHz
	}
	eng.Tool.Serial = cfg.serialCommit
	eng.Tool.StallTimeout = cfg.stallTimeout
	var tmpl *template.Store
	if cfg.tmplPolicy != nil {
		tmpl = template.NewStore(*cfg.tmplPolicy)
	}
	sys := &System{
		dev:     dev,
		port:    port,
		engine:  eng,
		area:    area.NewManagerFor(dev),
		router:  route.NewRouter(dev),
		pads:    map[fabric.PadRef]bool{},
		designs: map[string]*place.Design{},
		regions: map[string]int{},
		tmpl:    tmpl,
		retry:   cfg.retry,
		subs:    map[int]*subscriber{},
	}
	hpol := health.Policy{}
	if cfg.health != nil {
		hpol = *cfg.health
	}
	sys.health = health.NewTracker(hpol)
	sys.armRetryLadder()
	sys.publishLocked()
	return sys, nil
}

// Device returns the simulated device. The returned object is shared with
// the engine and any running simulations; treat it as read-mostly.
func (s *System) Device() *fabric.Device { return s.dev }

// Port returns the configuration transport.
func (s *System) Port() *bitstream.Transport { return s.port }

// Engine returns the relocation engine — the designer-level escape hatch
// for cell-grain operations (RelocateCell, Clock hookup, ablation knobs).
// Engine calls bypass the System's locking and book-keeping; prefer the
// System methods for anything the facade covers. Their effect on Stats and
// Traffic shows up only after the next System operation publishes.
func (s *System) Engine() *relocate.Engine { return s.engine }

// Area returns the area manager (logic-space book-keeping). It is live and
// not synchronised with concurrent System operations; Fragmentation,
// Utilisation and Map give a consistent reading as of the last completed
// operation, and changes made through Area show up there only after the
// next System operation.
func (s *System) Area() *area.Manager { return s.area }

// Load places a netlist into a region (auto-sized when region is zero),
// registers it with the area manager and checkpoints the recovery shadow.
// On any failure the device configuration, pad bindings and book-keeping
// are restored to their pre-call state.
func (s *System) Load(nl *netlist.Netlist, region fabric.Rect) (*place.Design, error) {
	s.mu.Lock()
	defer s.unlock()
	return s.loadLocked(nl, region)
}

func (s *System) loadLocked(nl *netlist.Netlist, region fabric.Rect) (*place.Design, error) {
	region, err := s.checkLoadLocked(nl, region)
	if err != nil {
		return nil, err
	}
	// The runner's checkpoint keeps a partial placement (pads and cells are
	// written before routing can still fail) off the fabric.
	var d *place.Design
	err = s.transact("load", nl.Name, region, "", func() error {
		if s.tmpl != nil {
			warm, handled, err := s.tryWarmLoadLocked(nl, region)
			if err != nil || handled {
				d = warm
				return err
			}
			// Cache miss (or clean pre-write fallback): cold path below.
		}
		cold, err := s.loadRaw(nl, region)
		if err != nil {
			return err
		}
		if s.tmpl != nil {
			s.captureTemplateLocked(cold)
		}
		d = cold
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// checkLoadLocked validates a load and resolves an auto-sized region,
// touching nothing.
func (s *System) checkLoadLocked(nl *netlist.Netlist, region fabric.Rect) (fabric.Rect, error) {
	if _, dup := s.designs[nl.Name]; dup {
		return region, fmt.Errorf("%w: %q", ErrDuplicateDesign, nl.Name)
	}
	if err := s.admitLocked(); err != nil {
		return region, err
	}
	if region.Area() == 0 {
		var ok bool
		region, ok = s.findRegionLocked(nl)
		if !ok {
			return region, fmt.Errorf("%w: auto-sizing %q", ErrNoSpace, nl.Name)
		}
	} else if !s.area.Fits(region) {
		// Fail fast before anything touches the fabric; name the cause —
		// condemned logic space is permanent, a busy region is not.
		if s.area.QuarantineOverlaps(region) {
			return region, fmt.Errorf("%w: %v for %q", ErrQuarantined, region, nl.Name)
		}
		return region, fmt.Errorf("%w: %v for %q", ErrRegionBusy, region, nl.Name)
	}
	return region, nil
}

// loadRaw performs the placement and book-keeping; the caller has validated
// the load (region is concrete and free) and owns rollback. Any in-flight
// stream of an earlier operation drains first: placement shares the
// configuration path with the relocation streams (the development tool of
// the paper feeds the same port), and a pending transport failure must
// surface before new work piles on top of it.
func (s *System) loadRaw(nl *netlist.Netlist, region fabric.Rect) (*place.Design, error) {
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return nil, err
	}
	// With the template cache on, route region-contained first so the result
	// is capturable; containment is strictly harder, so a failure falls back
	// to the unconstrained placement (which simply won't be cached). The
	// failed attempt wrote the same cells and pads the retry rewrites
	// identically, and no PIPs: routing fails before route.Apply.
	contain := s.tmpl != nil
	d, err := place.Place(s.dev, nl, place.Options{
		Region:      region,
		ReservePads: s.pads, // Place reserves into this map directly
		Router:      s.router,
		Contain:     contain,
	})
	if err != nil && contain {
		s.rebuildRouterLocked()
		d, err = place.Place(s.dev, nl, place.Options{
			Region:      region,
			ReservePads: s.pads,
			Router:      s.router,
		})
	}
	if err != nil {
		return nil, err // Place released its pad reservations itself
	}
	// Journal the inverse before anything else can fail: the pads are
	// reserved from here on, and the design may be half-registered.
	name := nl.Name
	s.noteUndoLocked(func(s *System) {
		delete(s.designs, name)
		delete(s.regions, name)
		for _, p := range d.PadOf {
			delete(s.pads, p)
		}
	})
	id, err := s.area.AllocateAt(region)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRegionBusy, err)
	}
	s.designs[nl.Name] = d
	s.regions[nl.Name] = id
	// Checkpoint the recovery shadow: the tool now holds a complete copy
	// of the configuration including the new design.
	if err := s.engine.Tool.Sync(); err != nil {
		return nil, err
	}
	s.publish(Event{Kind: DesignLoaded, Design: nl.Name, Region: region})
	return d, nil
}

// findRegionLocked auto-sizes and places a region using the area manager.
func (s *System) findRegionLocked(nl *netlist.Netlist) (fabric.Rect, bool) {
	proto, err := place.AutoRegion(s.dev, nl, 0, 0, 0.4)
	if err != nil {
		return fabric.Rect{}, false
	}
	return s.area.FindPlacement(proto.H, proto.W, area.BestFit)
}

// Unload decommissions a design: all its routing and cells are released
// through the configuration port, its pads disabled, its region freed. A
// mid-stream engine failure rolls the device and book-keeping back to the
// pre-call state.
func (s *System) Unload(name string) error {
	s.mu.Lock()
	defer s.unlock()
	if _, ok := s.designs[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	err := s.transact("unload", name, s.designs[name].Region, "", func() error { return s.unloadRaw(name) })
	if err != nil {
		return fmt.Errorf("rlm: unloading %q: %w", name, err)
	}
	return nil
}

// unloadRaw performs the unload without checkpointing; the caller owns
// rollback. The router and area book-keeping are consistent on success. The
// engine writes run in one coalescing batch, so the whole decommission
// streams as a single partial bitstream instead of one per frame.
func (s *System) unloadRaw(name string) error {
	// The unload never rewrites the design's tables, so the inverse is just
	// re-registering the same object (the configuration side is the frame
	// snapshot's business).
	{
		d, id := s.designs[name], s.regions[name]
		s.noteUndoLocked(func(s *System) {
			s.designs[name] = d
			s.regions[name] = id
			for _, p := range d.PadOf {
				s.pads[p] = true
			}
		})
	}
	if err := s.unloadFabricBatched(name); err != nil {
		return err
	}
	d := s.designs[name]
	for _, p := range d.PadOf {
		delete(s.pads, p)
	}
	if err := s.area.Free(s.regions[name]); err != nil {
		return err
	}
	region := d.Region
	delete(s.designs, name)
	delete(s.regions, name)
	// The shared router's occupancy is stale; rebuild it.
	s.rebuildRouterLocked()
	s.publish(Event{Kind: DesignUnloaded, Design: name, Region: region})
	return nil
}

// unloadFabricBatched releases a design's routing, cells and pads through
// the configuration port as one batched stream.
func (s *System) unloadFabricBatched(name string) error {
	d := s.designs[name]
	return s.engine.Tool.InBatch(func() error {
		// Release routing from every signal source (cell outputs, input
		// pads).
		srcs := make([]fabric.NodeID, 0, len(d.SourceOf))
		for _, src := range d.SourceOf {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, src := range srcs {
			if err := s.engine.ReleaseTree(src); err != nil {
				return err
			}
		}
		// Clear cells.
		for _, ref := range d.OccupiedCells() {
			if err := s.engine.ClearCell(ref); err != nil {
				return err
			}
		}
		// Disable pads.
		for _, p := range d.PadOf {
			if err := s.engine.ClearPad(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// rebuildRouterLocked rebuilds the shared router from the configuration
// memory itself — the ground truth — so occupancy never goes stale across
// relocations (per-design net lists do: they record the original routes).
// The router object is reused: Reset is O(1), and the routing graph it
// reads is shared by every router of the device's geometry.
func (s *System) rebuildRouterLocked() {
	s.router.Reset()
	s.router.Block(s.engine.OccupiedNodes()...)
}

// Move relocates a whole design to a new region of identical shape, CLB by
// CLB, while it runs. Overlapping source/target regions are handled by
// ordering the moves along the displacement vector (the paper's staged
// relocation). The target must be free in the area book-keeping, and every
// CLB must route on the engine's rehearsal twin, before any frame is
// streamed; a transport failure mid-stream rolls everything back.
func (s *System) Move(name string, to fabric.Rect) error {
	s.mu.Lock()
	defer s.unlock()
	return s.moveLocked(name, to)
}

func (s *System) moveLocked(name string, to fabric.Rect) error {
	if err := s.checkMoveLocked(name, to); err != nil {
		return err
	}
	return s.transact("move", name, to, "", func() error { return s.moveRaw(name, to) })
}

// checkShapeLocked is the validation every kind of move shares: the design
// exists and the target has its shape.
func (s *System) checkShapeLocked(name string, to fabric.Rect) (*place.Design, error) {
	d, ok := s.designs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	if to.H != d.Region.H || to.W != d.Region.W {
		return nil, fmt.Errorf("%w: target %v, design %v", ErrRegionMismatch, to, d.Region)
	}
	return d, nil
}

// checkMoveLocked validates a direct move without touching anything.
func (s *System) checkMoveLocked(name string, to fabric.Rect) error {
	if _, err := s.checkShapeLocked(name, to); err != nil {
		return err
	}
	if !s.area.CanMove(s.regions[name], to) {
		if s.area.QuarantineOverlaps(to) {
			return fmt.Errorf("%w: %v", ErrQuarantined, to)
		}
		return fmt.Errorf("%w: %v", ErrRegionBusy, to)
	}
	return nil
}

// moveRaw performs the physical relocation and book-keeping; the caller has
// validated the move and owns rollback. With the template cache enabled and
// a translation-safe image available, the move is served by address
// translation (frame image re-targeted plus a boundary patch); otherwise it
// falls through to the paper's cell-by-cell replication (replicateLocked).
func (s *System) moveRaw(name string, to fabric.Rect) error {
	if s.tmpl != nil {
		handled, err := s.tryTranslateMoveLocked(name, to)
		if err != nil {
			return err
		}
		if handled {
			return nil
		}
	}
	return s.replicateLocked(name, []fabric.Rect{to})
}

// replicateLocked moves a design through a hop sequence by the paper's
// cell-by-cell replication, as one rehearsed engine sequence: every CLB of
// every hop routes on the engine's twin before the first frame streams, so a
// hop that cannot route fails the move with nothing streamed. The caller has
// validated the hops and owns rollback.
func (s *System) replicateLocked(name string, hops []fabric.Rect) error {
	if len(hops) == 0 {
		return nil
	}
	d := s.designs[name]
	// First-touch clone of the tables the relocation rewrites (Region,
	// CellOf, SourceOf) into every armed checkpoint.
	s.noteDesignLocked(d)
	var steps []relocate.CLBStep
	ends := make([]int, len(hops)) // ends[h]: index after hop h's last step
	for h, cur := 0, d.Region; h < len(hops); h++ {
		steps = appendCLBSteps(steps, cur, hops[h])
		ends[h] = len(steps)
		cur = hops[h]
	}
	hop := 0
	_, err := s.engine.RelocateCLBs(steps, func(i int, moved bool) error {
		if st := steps[i]; moved {
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				d.Rebind(fabric.CellRef{Coord: st.From, Cell: cell}, fabric.CellRef{Coord: st.To, Cell: cell})
			}
			s.publish(Event{Kind: CLBRelocated, Design: name, CLBFrom: st.From, CLBTo: st.To})
		}
		if i+1 < ends[hop] {
			return nil
		}
		from := d.Region
		d.Region = hops[hop]
		if err := s.area.Move(s.regions[name], d.Region); err != nil {
			return err
		}
		s.publish(Event{Kind: DesignMoved, Design: name, From: from, Region: d.Region})
		hop++
		return nil
	})
	if err != nil {
		return fmt.Errorf("rlm: moving %s: %w", name, err)
	}
	s.rebuildRouterLocked()
	return nil
}

// appendCLBSteps appends the CLB steps of one whole-region move, ordered so
// that targets are vacated before they are needed (the paper's staged
// relocation of overlapping regions).
func appendCLBSteps(steps []relocate.CLBStep, from, to fabric.Rect) []relocate.CLBStep {
	coords := from.Coords()
	sort.Slice(coords, func(i, j int) bool {
		a, b := coords[i], coords[j]
		if to.Row != from.Row {
			if to.Row < from.Row { // moving up: top rows first
				if a.Row != b.Row {
					return a.Row < b.Row
				}
			} else {
				if a.Row != b.Row {
					return a.Row > b.Row
				}
			}
		}
		if to.Col < from.Col {
			return a.Col < b.Col
		}
		return a.Col > b.Col
	})
	dr, dc := to.Row-from.Row, to.Col-from.Col
	for _, c := range coords {
		steps = append(steps, relocate.CLBStep{From: c, To: fabric.Coord{Row: c.Row + dr, Col: c.Col + dc}})
	}
	return steps
}

// MoveStaged relocates a design like Move, but bounds the displacement of
// each stage to maxStep CLBs (Chebyshev distance), hopping through
// intermediate regions. The paper: "the relocation of a complete function
// may take place in several stages, to avoid an excessive increase in path
// delays during the relocation interval". The whole hop corridor is
// validated against the area book-keeping before any frame is streamed;
// every intermediate region must be free.
func (s *System) MoveStaged(name string, to fabric.Rect, maxStep int) error {
	s.mu.Lock()
	defer s.unlock()
	return s.moveStagedLocked(name, to, maxStep)
}

func (s *System) moveStagedLocked(name string, to fabric.Rect, maxStep int) error {
	hops, err := s.checkMoveStagedLocked(name, to, maxStep)
	if err != nil {
		return err
	}
	return s.transact("move-staged", name, to, fmt.Sprintf("maxStep=%d", maxStep), func() error {
		return s.moveHopsLocked(name, hops)
	})
}

// checkMoveStagedLocked validates a staged move without touching anything,
// returning its hop sequence.
func (s *System) checkMoveStagedLocked(name string, to fabric.Rect, maxStep int) ([]fabric.Rect, error) {
	d, err := s.checkShapeLocked(name, to)
	if err != nil {
		return nil, err
	}
	return s.stagedHopsLocked(name, d.Region, to, maxStep)
}

// moveHopsLocked relocates a design through a validated hop sequence; the
// caller owns rollback. Without a template cache every hop is replication,
// so the whole sequence rehearses as one; with one, each hop first tries
// address translation and a replicated hop rehearses on its own.
func (s *System) moveHopsLocked(name string, hops []fabric.Rect) error {
	if s.tmpl == nil {
		return s.replicateLocked(name, hops)
	}
	for _, next := range hops {
		if err := s.moveRaw(name, next); err != nil {
			return fmt.Errorf("rlm: staged move via %v: %w", next, err)
		}
	}
	return nil
}

// stagedHopsLocked computes the hop sequence and dry-runs it on the live
// area manager under an undo-log mark (rewound before returning), so an
// occupied intermediate region is rejected before any frame is streamed —
// without cloning the grid.
func (s *System) stagedHopsLocked(name string, from, to fabric.Rect, maxStep int) (hops []fabric.Rect, err error) {
	if maxStep < 1 {
		maxStep = 1
	}
	id := s.regions[name]
	mk := s.area.Mark()
	defer func() {
		s.area.Rewind(mk)
		s.area.Release(mk)
	}()
	for cur := from; cur != to; {
		dr := clampStep(to.Row-cur.Row, maxStep)
		dc := clampStep(to.Col-cur.Col, maxStep)
		next := fabric.Rect{Row: cur.Row + dr, Col: cur.Col + dc, H: cur.H, W: cur.W}
		if err := s.area.Move(id, next); err != nil {
			return nil, fmt.Errorf("%w: staged hop %v: %v", ErrRegionBusy, next, err)
		}
		hops = append(hops, next)
		cur = next
	}
	return hops, nil
}

func clampStep(d, max int) int {
	if d > max {
		return max
	}
	if d < -max {
		return -max
	}
	return d
}

// Recover restores the device to the tool's shadow copy of the
// configuration by streaming a full recovery bitstream through the
// configuration port — the paper's failure-recovery path ("the program
// always keeps a complete copy of the current configuration, enabling system
// recovery in case of failure").
func (s *System) Recover() error {
	s.mu.Lock()
	defer s.unlock()
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return err
	}
	if err := s.recoverFullLocked(); err != nil {
		return err
	}
	s.publish(Event{Kind: Recovered})
	return nil
}

// recoverFullLocked streams the whole shadow configuration as one
// recovery-class writing burst, re-syncs the shadow with the device and
// reports the delivery to the delivered-configuration observer.
func (s *System) recoverFullLocked() error {
	updates := s.engine.Tool.Shadow().Updates()
	if err := s.port.Write(bitstream.Recovery, updates); err != nil {
		return err
	}
	if err := s.engine.Tool.Sync(); err != nil {
		return err
	}
	if s.onDelivered != nil {
		s.onDelivered(updates)
	}
	return nil
}

// transact runs body as one journaled operation. It is the only code that
// opens, finishes or unwinds one, in this sequence:
//
//  1. checkpoint the configuration and the book-keeping;
//  2. journal the intent (a failure here fails the op before any physical
//     work);
//  3. run body;
//  4. harvest: flush the batched stream and await its shift-out (the retry
//     ladder fires inside the await when armed), then seal the commit;
//  5. on an error from 3 or 4, roll back to the checkpoint and seal an
//     abort;
//  6. sweep the frames the retry ladder condemned into quarantine and
//     evacuate their residents, success or failure;
//  7. release the checkpoint.
//
// Two policies live here, not at call sites. An unjournaled Load without a
// retry policy skips the harvest: its burst goes on shifting out after Load
// returns and a stale transport error surfaces at the next operation's
// drain — safe under write-through staging, and the overlap is the commit
// pipeline's point. With a journal or a retry policy armed the op needs a
// harvest point of its own (the commit barrier, or a fault boundary the
// ladder can own), so it finishes like every other. And the maintenance ops
// a sweep or a health transition runs (evacuations, health seals) never
// sweep themselves, so quarantine cannot recurse.
func (s *System) transact(op, design string, region fabric.Rect, detail string, body func() error) error {
	cp, err := s.checkpointLocked()
	if err != nil {
		return err
	}
	defer s.releaseCheckpointLocked(cp)
	if err := s.journalBeginLocked(cp, op, design, region, detail); err != nil {
		return err
	}
	err = body()
	if err == nil && (op != "load" || s.jrnl != nil || s.engine.Tool.Retry != nil) {
		err = s.harvestLocked()
	}
	if err == nil {
		err = s.journalCommitLocked()
	}
	if err != nil {
		s.restoreLocked(cp, err)
		s.journalAbortLocked()
	}
	if op != "evacuate" && op != "health" {
		s.quarantineSweepLocked()
	}
	return err
}

// harvestLocked flushes the batched stream and waits for it to shift out, so
// a transport failure surfaces while the operation can still roll back.
func (s *System) harvestLocked() error {
	if err := s.engine.Tool.Flush(); err != nil {
		return err
	}
	return s.engine.Tool.AwaitStream()
}

// checkpoint captures everything a rollback needs, all of it copy-on-write:
// a frame-granular snapshot of the pre-operation configuration (pre-images
// are saved only for the frames the operation actually touches, reported by
// the engine's write path), an undo-log epoch on the area manager, and a
// journal of inverse host-book-keeping ops that mutations append first-touch
// — so opening a checkpoint copies nothing, and its eventual size is
// proportional to the designs the operation touches, not to every resident
// design. Checkpoints must be released when the operation ends, whichever
// way it ends — an unreleased snapshot would keep saving pre-images for
// every later operation.
type checkpoint struct {
	snap *bitstream.Snapshot
	mark area.Mark
	// undo holds inverse host ops, applied in reverse on restore. saved
	// tracks designs whose mutable state is already journalled, so repeated
	// relocations of one design cost one clone per checkpoint (nil until the
	// first design is touched).
	undo     []func(*System)
	saved    map[*place.Design]bool
	released bool
}

// designState is the per-design mutable state a relocation rewrites.
type designState struct {
	region   fabric.Rect
	cellOf   map[netlist.ID]fabric.CellRef
	sourceOf map[netlist.ID]fabric.NodeID
}

func (s *System) checkpointLocked() (*checkpoint, error) {
	// BeginSnapshot syncs the shadow (it lags behind designer-path writes
	// until then) and opens the copy-on-write epoch; nothing is copied yet.
	snap, err := s.engine.Tool.BeginSnapshot()
	if err != nil {
		return nil, err
	}
	cp := &checkpoint{snap: snap, mark: s.area.Mark()}
	s.cps = append(s.cps, cp)
	return cp, nil
}

// noteUndoLocked journals an inverse host-book-keeping op into every armed
// checkpoint. No-op while a rollback is replaying journals, and no-op when
// no checkpoint is armed (engine-level callers manage their own recovery).
func (s *System) noteUndoLocked(fn func(*System)) {
	if s.restoring {
		return
	}
	for _, cp := range s.cps {
		cp.undo = append(cp.undo, fn)
	}
}

// noteDesignLocked journals a design's mutable state (region, cell and
// source tables) into each armed checkpoint that has not saved it yet. This
// is the host-side counterpart of the frame snapshot's copy-on-write: the
// tables are cloned on first touch, driven by the operations that actually
// rewrite them.
func (s *System) noteDesignLocked(d *place.Design) {
	if s.restoring {
		return
	}
	for _, cp := range s.cps {
		if cp.saved[d] {
			continue
		}
		if cp.saved == nil {
			cp.saved = map[*place.Design]bool{}
		}
		cp.saved[d] = true
		st := designState{
			region:   d.Region,
			cellOf:   make(map[netlist.ID]fabric.CellRef, len(d.CellOf)),
			sourceOf: make(map[netlist.ID]fabric.NodeID, len(d.SourceOf)),
		}
		for id, ref := range d.CellOf {
			st.cellOf[id] = ref
		}
		for id, node := range d.SourceOf {
			st.sourceOf[id] = node
		}
		cp.undo = append(cp.undo, func(*System) {
			d.Region = st.region
			d.CellOf = st.cellOf
			d.SourceOf = st.sourceOf
		})
	}
}

// restoreLocked rolls the device and all book-keeping back to a checkpoint
// after a failed operation: the pre-images of exactly the frames the
// operation dirtied are streamed through the port as a recovery-class burst
// once the superseded stream has drained (the paper's recovery path,
// proportional to the change instead of the device), the
// area manager rewinds its undo log to the checkpoint's mark, and the host
// journal replays its inverse ops in reverse. The checkpoint itself stays
// armed — journal and dirty set emptied, mark kept — so one checkpoint can
// back several rollbacks; Defragment retries alternative plans against the
// same one. cause is reported on the event stream.
func (s *System) restoreLocked(cp *checkpoint, cause error) {
	// Restore syncs first, so designer-path writes (a half-placed design)
	// are part of the dirty set and cannot survive the rollback.
	restored, err := s.engine.Tool.Restore(cp.snap)
	if err == nil && len(restored) > 0 && s.onDelivered != nil {
		s.onDelivered(restored)
	}
	if err != nil {
		// The partial recovery stream could not be built or delivered. The
		// shadow now holds the pre-operation state, so stream the FULL
		// recovery bitstream — the paper's belt-and-braces path — and
		// surface the failure on the event alongside the original cause.
		_ = s.recoverFullLocked()
		cause = fmt.Errorf("%w (partial recovery failed, full recovery streamed: %v)", cause, err)
	}
	// Area and host book-keeping rewind in place: Area() callers (e.g. a
	// scheduler driving this system) keep a valid pointer across rollbacks.
	s.area.Rewind(cp.mark)
	s.restoring = true
	for i := len(cp.undo) - 1; i >= 0; i-- {
		cp.undo[i](s)
	}
	s.restoring = false
	cp.undo = cp.undo[:0]
	clear(cp.saved)
	s.rebuildRouterLocked()
	s.publish(Event{Kind: Recovered, Err: cause})
}

// releaseCheckpointLocked retires a checkpoint at the end of its operation
// (success or final failure): the copy-on-write snapshot detaches and stops
// accumulating pre-images, the area mark is released, and the checkpoint
// leaves the armed stack. Safe to call after a restore — the snapshot
// survives rollbacks so retry loops can reuse it — and safe to call twice.
func (s *System) releaseCheckpointLocked(cp *checkpoint) {
	if cp.released {
		return
	}
	cp.released = true
	cp.snap.Release()
	s.area.Release(cp.mark)
	for i, c := range s.cps {
		if c == cp {
			s.cps = append(s.cps[:i], s.cps[i+1:]...)
			break
		}
	}
}
