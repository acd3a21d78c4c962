package area

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fabric"
)

func managersEqual(a, b *Manager) bool {
	return reflect.DeepEqual(a.occ, b.occ) && reflect.DeepEqual(a.allocs, b.allocs) && a.next == b.next
}

func TestMarkRewindRestoresEveryMutation(t *testing.T) {
	m := NewManager(8, 8)
	id1, _, _ := m.Allocate(2, 2, FirstFit)
	id2, _, _ := m.Allocate(3, 3, FirstFit)
	want := m.Clone()

	mk := m.Mark()
	if _, err := m.AllocateAt(fabric.Rect{Row: 5, Col: 5, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Move(id2, fabric.Rect{Row: 4, Col: 0, H: 3, W: 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(id1); err != nil {
		t.Fatal(err)
	}
	m.Rewind(mk)
	if !managersEqual(m, want) {
		t.Fatalf("rewind did not restore:\n%v\nwant:\n%v", m, want)
	}

	// The mark stays armed: mutate and rewind again (a retry loop).
	if err := m.Move(id1, fabric.Rect{Row: 6, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	m.Rewind(mk)
	if !managersEqual(m, want) {
		t.Fatal("second rewind to the same mark did not restore")
	}
	m.Release(mk)
	if len(m.undo) != 0 || m.marks != 0 {
		t.Fatalf("release left undo state: %d records, %d marks", len(m.undo), m.marks)
	}
}

func TestMarkIdsDeterministicAcrossRetries(t *testing.T) {
	m := NewManager(6, 6)
	mk := m.Mark()
	defer m.Release(mk)
	idA, _, _ := m.Allocate(2, 2, FirstFit)
	m.Rewind(mk)
	idB, _, _ := m.Allocate(2, 2, FirstFit)
	if idA != idB {
		t.Fatalf("allocation id changed across rewind: %d then %d", idA, idB)
	}
}

func TestNestedMarks(t *testing.T) {
	m := NewManager(8, 8)
	id, _, _ := m.Allocate(2, 2, FirstFit)
	outer := m.Mark()
	if err := m.Move(id, fabric.Rect{Row: 3, Col: 3, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	mid := m.Clone()
	inner := m.Mark()
	if err := m.Move(id, fabric.Rect{Row: 5, Col: 5, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	m.Rewind(inner)
	m.Release(inner)
	if !managersEqual(m, mid) {
		t.Fatal("inner rewind did not restore the mid state")
	}
	// The outer log survives the inner release.
	m.Rewind(outer)
	m.Release(outer)
	if r, _ := m.Rect(id); r != (fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}) {
		t.Fatalf("outer rewind left allocation at %v", r)
	}
}

func TestRewindRandomisedAgainstClone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := NewManager(10, 10)
		var ids []int
		for i := 0; i < 4; i++ {
			if id, _, ok := m.Allocate(1+rng.Intn(3), 1+rng.Intn(3), FirstFit); ok {
				ids = append(ids, id)
			}
		}
		want := m.Clone()
		mk := m.Mark()
		for op := 0; op < 12; op++ {
			switch rng.Intn(3) {
			case 0:
				if id, _, ok := m.Allocate(1+rng.Intn(3), 1+rng.Intn(3), BestFit); ok {
					ids = append(ids, id)
				}
			case 1:
				if len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if _, live := m.Rect(id); live {
						_ = m.Free(id)
					}
				}
			case 2:
				if len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if r, live := m.Rect(id); live {
						to := fabric.Rect{Row: rng.Intn(10), Col: rng.Intn(10), H: r.H, W: r.W}
						if m.CanMove(id, to) {
							_ = m.Move(id, to)
						}
					}
				}
			}
		}
		m.Rewind(mk)
		m.Release(mk)
		if !managersEqual(m, want) {
			t.Fatalf("trial %d: rewind diverged from clone baseline", trial)
		}
	}
}

func TestCanMoveAllowsOverlapWithoutClone(t *testing.T) {
	m := NewManager(6, 6)
	id, err := m.AllocateAt(fabric.Rect{Row: 0, Col: 0, H: 2, W: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.CanMove(id, fabric.Rect{Row: 1, Col: 1, H: 2, W: 2}) {
		t.Fatal("overlapping move of own cells should be allowed")
	}
	if _, err := m.AllocateAt(fabric.Rect{Row: 2, Col: 2, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if m.CanMove(id, fabric.Rect{Row: 1, Col: 1, H: 2, W: 2}) {
		t.Fatal("move onto another allocation should be rejected")
	}
	if m.CanMove(id, fabric.Rect{Row: 5, Col: 5, H: 2, W: 2}) {
		t.Fatal("out-of-bounds move should be rejected")
	}
	if m.CanMove(id, fabric.Rect{Row: 0, Col: 0, H: 3, W: 2}) {
		t.Fatal("shape change should be rejected")
	}
}

// TestVersionTracksEveryChange drives random mutations (allocation, free,
// move, quarantine, rewind, restore, copy) and checks Version is a faithful
// change detector: whenever the rendering or the quarantine census changes,
// Version changes too, and reads never move it.
func TestVersionTracksEveryChange(t *testing.T) {
	m := NewManager(6, 8)
	rng := rand.New(rand.NewSource(11))
	state := func() string { return fmt.Sprint(m.String(), m.QuarantinedCLBs()) }
	var marks []Mark
	var saved *Manager // an earlier state to return to
	prevV, prevS := m.Version(), state()
	for step := 0; step < 2000; step++ {
		rect := fabric.Rect{Row: rng.Intn(5), Col: rng.Intn(7), H: 1 + rng.Intn(2), W: 1 + rng.Intn(2)}
		ids := m.Allocations()
		switch rng.Intn(9) {
		case 0, 1:
			m.Allocate(rect.H, rect.W, FirstFit)
		case 2:
			if len(ids) > 0 {
				_ = m.Free(ids[rng.Intn(len(ids))])
			}
		case 3:
			if len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				cur, _ := m.Rect(id)
				rect.H, rect.W = cur.H, cur.W
				_ = m.Move(id, rect)
			}
		case 4:
			m.Quarantine(rect)
		case 5:
			m.Unquarantine(rect)
		case 6:
			marks = append(marks, m.Mark())
		case 7:
			if n := len(marks); n > 0 {
				m.Rewind(marks[n-1])
				m.Release(marks[n-1])
				marks = marks[:n-1]
			}
		case 8:
			if len(marks) > 0 {
				continue
			}
			// Go back to an earlier state, one way or the other.
			switch {
			case saved == nil:
			case rng.Intn(2) == 0:
				al, next := saved.Export()
				_ = m.Restore(al, next)
			default:
				m.CopyFrom(saved)
			}
			saved = m.Clone()
		}
		_, _ = m.FindPlacement(2, 2, BestFit)
		_ = m.Fragmentation()
		v, s := m.Version(), state()
		if s != prevS && v == prevV {
			t.Fatalf("step %d: grid changed but Version stayed %d", step, v)
		}
		if m.Version() != v {
			t.Fatalf("step %d: a read moved Version", step)
		}
		prevV, prevS = v, s
	}
}
