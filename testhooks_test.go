package rlm

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/relocate"
)

// withSerialCommit disables the two-stage commit pipeline: every burst is
// awaited right after it is enqueued, so nothing is in flight between
// operations. Configuration memory and cycle accounting are bit-identical
// either way — the pipelined/serial twins pin that down.
func withSerialCommit() Option {
	return func(c *config) { c.serialCommit = true }
}

// withFaultHook attaches a fault plan to the system's transport. The journal
// cannot persist it: pass it again to Recover to keep the plan attached.
func withFaultHook(h bitstream.FaultHook) Option {
	return func(c *config) { c.faultHook = h }
}

// readings is one value of every facade reader.
type readings struct {
	Stats         relocate.Stats
	Traffic       bitstream.Traffic
	Capacity      Capacity
	Health        []ColumnHealth
	Designs       []string
	PerDesign     map[string]observedDesign
	Fragmentation float64
	Utilisation   float64
	Map           string
}

// readSnapshot calls every facade reader: what an observer sees.
func readSnapshot(s *System) readings {
	r := readings{
		Stats:         s.Stats(),
		Traffic:       s.Traffic(),
		Capacity:      s.Capacity(),
		Health:        s.Health(),
		Designs:       s.Designs(),
		PerDesign:     map[string]observedDesign{},
		Fragmentation: s.Fragmentation(),
		Utilisation:   s.Utilisation(),
		Map:           s.Map(),
	}
	for _, name := range r.Designs {
		var e observedDesign
		e.d, _ = s.Design(name)
		e.region, _ = s.Region(name)
		e.alloc, _ = s.Allocation(name)
		r.PerDesign[name] = e
	}
	return r
}

// readLocked computes the same values from the live state under the system
// lock — the twin the published snapshot must equal between operations.
func readLocked(s *System) readings {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := readings{
		Stats:         s.statsLocked(),
		Traffic:       s.port.Traffic(),
		Capacity:      s.capacityLocked(),
		Health:        s.health.Columns(),
		Designs:       []string{},
		PerDesign:     map[string]observedDesign{},
		Fragmentation: s.area.Fragmentation(),
		Utilisation:   s.area.Utilisation(),
		Map:           s.area.String(),
	}
	for name, d := range s.designs {
		r.Designs = append(r.Designs, name)
		r.PerDesign[name] = observedDesign{d: d, region: d.Region, alloc: s.regions[name]}
	}
	slices.Sort(r.Designs)
	return r
}

// checkSnapshot fails the test when the snapshot the readers load differs
// from the live state: some operation path changed observable state without
// publishing it.
func checkSnapshot(t *testing.T, s *System, after string) {
	t.Helper()
	if got, want := readSnapshot(s), readLocked(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %s: snapshot is stale:\n got %+v\nwant %+v", after, got, want)
	}
}
