package main

import (
	"io"
	"path/filepath"
	"testing"
)

// fingerprint is what a run's seed must pin exactly: the op stream issued
// and every metric the simulated configuration clock or a counter gives.
type fingerprint struct {
	stream       uint64
	simConfigS   float64
	simMsPerCLB  float64
	successRatio float64
	wordsShifted uint64
	clbs         int
	hits, misses int
	trans, falls int
}

func runFingerprint(t *testing.T, w *scenario, seed uint64) fingerprint {
	t.Helper()
	p, err := runPass(io.Discard, w, seed, 1, filepath.Join(t.TempDir(), w.name), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.correct() {
		t.Fatalf("%s seed %d: run not correct: aborted=%v checks=%v", w.name, seed, p.aborted, p.checkErr)
	}
	m := p.endToEnd()
	return fingerprint{
		stream:       p.r.stream.Sum64(),
		simConfigS:   m["sim_config_s"].Value,
		simMsPerCLB:  m["sim_ms_per_clb"].Value,
		successRatio: m["op_success_ratio"].Value,
		wordsShifted: p.d.words,
		clbs:         p.d.clbs,
		hits:         p.d.hits,
		misses:       p.d.misses,
		trans:        p.d.trans,
		falls:        p.d.falls,
	}
}

// TestSeedDeterminism checks that a seed pins the op stream and every
// deterministic metric, and that another seed changes the op stream.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runFingerprint(t, w, DefaultSeed)
			b := runFingerprint(t, w, DefaultSeed)
			if a != b {
				t.Errorf("same seed, different runs:\n%+v\n%+v", a, b)
			}
			if a.simConfigS <= 0 || a.wordsShifted == 0 {
				t.Errorf("run did no configuration work: %+v", a)
			}
			c := runFingerprint(t, w, HeldOutSeed)
			if c.stream == a.stream {
				t.Errorf("seeds %d and %d issued the same op stream", DefaultSeed, HeldOutSeed)
			}
		})
	}
}
