package rlm

import (
	"slices"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/place"
	"repro/internal/relocate"
)

// observed is an immutable picture of everything the facade's readers
// report, taken at an operation boundary and published through System.obs.
// Readers load it without touching the system lock, so an observer never
// waits behind a running operation: it sees the state as of the last
// completed one.
type observed struct {
	stats    relocate.Stats
	traffic  bitstream.Traffic
	capacity Capacity
	health   []ColumnHealth
	names    []string // sorted
	designs  map[string]observedDesign
	// The area readings, as of area version areaVersion.
	areaVersion uint64
	frag, util  float64
	grid        string
}

// observedDesign is one loaded design as of the snapshot: the live design
// object plus the region and allocation id it held at the boundary.
type observedDesign struct {
	d      *place.Design
	region fabric.Rect
	alloc  int
}

// unlock ends an operation: it publishes the op-boundary snapshot, then
// releases the system lock. Every mutating entry point defers it, so failed
// and rolled-back operations publish too.
func (s *System) unlock() {
	s.publishLocked()
	s.mu.Unlock()
}

// publishLocked snapshots the observable state for the lock-free readers.
// Parts unchanged since the previous snapshot are shared with it, so an
// operation that changed nothing (a rejected op, an empty scrub pass) costs
// one small allocation.
func (s *System) publishLocked() {
	prev := s.obs.Load()
	o := &observed{
		stats:    s.statsLocked(),
		traffic:  s.port.Traffic(),
		capacity: s.capacityLocked(),
		health:   s.health.Columns(),
	}
	if prev != nil && prev.areaVersion == s.area.Version() {
		o.areaVersion, o.frag, o.util, o.grid = prev.areaVersion, prev.frag, prev.util, prev.grid
	} else {
		o.areaVersion = s.area.Version()
		o.frag, o.util, o.grid = s.area.Fragmentation(), s.area.Utilisation(), s.area.String()
	}
	if prev != nil && s.designsMatchLocked(prev.designs) {
		o.names, o.designs = prev.names, prev.designs
	} else {
		o.names = make([]string, 0, len(s.designs))
		o.designs = make(map[string]observedDesign, len(s.designs))
		for name, d := range s.designs {
			o.names = append(o.names, name)
			o.designs[name] = observedDesign{d: d, region: d.Region, alloc: s.regions[name]}
		}
		sort.Strings(o.names)
	}
	s.obs.Store(o)
}

// designsMatchLocked reports whether a snapshot's design table still
// describes the loaded designs.
func (s *System) designsMatchLocked(ds map[string]observedDesign) bool {
	if len(ds) != len(s.designs) {
		return false
	}
	for name, d := range s.designs {
		if ds[name] != (observedDesign{d: d, region: d.Region, alloc: s.regions[name]}) {
			return false
		}
	}
	return true
}

// statsLocked reads the relocation engine statistics, with the maintenance
// transport time read from the transport's traffic classes.
func (s *System) statsLocked() relocate.Stats {
	st := s.engine.Stats
	st.RetrySeconds = s.port.Seconds(bitstream.Retry)
	st.ScrubSeconds = s.port.Seconds(bitstream.Scrub)
	st.ProbeSeconds = s.port.Seconds(bitstream.Probe)
	return st
}

// Designs lists loaded design names.
func (s *System) Designs() []string { return slices.Clone(s.obs.Load().names) }

// Design returns a loaded design. The design object is live: a later
// operation rewrites its tables in place.
func (s *System) Design(name string) (*place.Design, bool) {
	e, ok := s.obs.Load().designs[name]
	return e.d, ok
}

// Region returns the rectangle a design occupies.
func (s *System) Region(name string) (fabric.Rect, bool) {
	e, ok := s.obs.Load().designs[name]
	return e.region, ok
}

// Allocation returns the area-manager allocation id backing a design's
// region (rearrangement plans are expressed in allocation ids).
func (s *System) Allocation(name string) (int, bool) {
	e, ok := s.obs.Load().designs[name]
	return e.alloc, ok
}

// Fragmentation reports the logic-space fragmentation.
func (s *System) Fragmentation() float64 { return s.obs.Load().frag }

// Utilisation reports the fraction of CLBs allocated.
func (s *System) Utilisation() float64 { return s.obs.Load().util }

// Map renders the occupancy grid ('.' free, letters by allocation).
func (s *System) Map() string { return s.obs.Load().grid }

// Stats returns the relocation engine statistics, with the maintenance
// transport time read from the transport's traffic classes. A Defragment
// or Plan.Commit reports its work only once it returns.
func (s *System) Stats() relocate.Stats { return s.obs.Load().stats }

// Traffic returns the foreground configuration write-traffic counters (words
// actually shifted vs the uncompressed equivalent), read at the same
// boundary as Stats.
func (s *System) Traffic() bitstream.Traffic { return s.obs.Load().traffic }

// Capacity returns the logic-space capacity census.
func (s *System) Capacity() Capacity { return s.obs.Load().capacity }

// Health returns the per-column health ledger, sorted by column major.
// Columns that never produced evidence are absent (implicitly healthy).
func (s *System) Health() []ColumnHealth { return slices.Clone(s.obs.Load().health) }
