package synopsis

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"saad/internal/logpoint"
)

func TestNormalizeSortsAndMerges(t *testing.T) {
	s := &Synopsis{Points: []PointCount{{7, 1}, {3, 2}, {7, 4}, {1, 1}}}
	s.Normalize()
	want := []PointCount{{1, 1}, {3, 2}, {7, 5}}
	if len(s.Points) != len(want) {
		t.Fatalf("points = %v", s.Points)
	}
	for i := range want {
		if s.Points[i] != want[i] {
			t.Fatalf("points = %v, want %v", s.Points, want)
		}
	}
}

func TestNormalizeSmall(t *testing.T) {
	s := &Synopsis{}
	s.Normalize()
	if len(s.Points) != 0 {
		t.Fatal("empty changed")
	}
	s = &Synopsis{Points: []PointCount{{5, 2}}}
	s.Normalize()
	if len(s.Points) != 1 || s.Points[0] != (PointCount{5, 2}) {
		t.Fatalf("single = %v", s.Points)
	}
}

func TestSignatureIgnoresFrequencyAndOrder(t *testing.T) {
	a := &Synopsis{Points: []PointCount{{1, 1}, {2, 9}, {4, 1}}}
	b := &Synopsis{Points: []PointCount{{4, 3}, {1, 2}, {2, 1}}}
	a.Normalize()
	b.Normalize()
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ: %v vs %v", a.Signature(), b.Signature())
	}
	c := &Synopsis{Points: []PointCount{{1, 1}, {2, 1}, {3, 1}, {4, 1}}}
	c.Normalize()
	if a.Signature() == c.Signature() {
		t.Fatal("distinct point sets collided")
	}
}

func TestSignatureStringAndPoints(t *testing.T) {
	sig := Compute([]logpoint.ID{300, 5, 5, 12})
	if got := sig.String(); got != "{5,12,300}" {
		t.Fatalf("String = %q", got)
	}
	if got := sig.Len(); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	pts := sig.Points()
	if len(pts) != 3 || pts[0] != 5 || pts[1] != 12 || pts[2] != 300 {
		t.Fatalf("Points = %v", pts)
	}
	for _, id := range []logpoint.ID{5, 12, 300} {
		if !sig.Contains(id) {
			t.Fatalf("Contains(%d) = false", id)
		}
	}
	if sig.Contains(6) || sig.Contains(0) {
		t.Fatal("Contains matched absent id")
	}
	empty := Compute(nil)
	if empty != "" || empty.Len() != 0 || empty.String() != "{}" {
		t.Fatalf("empty signature misbehaves: %q %d %q", string(empty), empty.Len(), empty.String())
	}
}

// Property: Compute is invariant under permutation and duplication, and
// Points round-trips the sorted distinct input.
func TestSignatureCanonicalProperty(t *testing.T) {
	f := func(raw []uint16, dupIdx uint8) bool {
		ids := make([]logpoint.ID, len(raw))
		for i, v := range raw {
			ids[i] = logpoint.ID(v)
		}
		sig1 := Compute(ids)
		// Reverse and duplicate an element.
		rev := make([]logpoint.ID, 0, len(ids)+1)
		for i := len(ids) - 1; i >= 0; i-- {
			rev = append(rev, ids[i])
		}
		if len(ids) > 0 {
			rev = append(rev, ids[int(dupIdx)%len(ids)])
		}
		sig2 := Compute(rev)
		if sig1 != sig2 {
			return false
		}
		pts := sig1.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				return false
			}
		}
		return Compute(pts) == sig1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNewAndCloneOwnTheirPoints: across both block edges (3|4 and 5|6), a
// record built by New or Clone holds a copy of its points — writing through
// either side, or appending to either, never shows on the other — and its
// Points end where its block does, so an append past them reaches no record
// allocated next to it.
func TestNewAndCloneOwnTheirPoints(t *testing.T) {
	for n := 0; n <= 8; n++ {
		pts := make([]PointCount, n)
		for i := range pts {
			pts[i] = PointCount{Point: logpoint.ID(i + 1), Count: 1}
		}
		s := New(pts)
		s.Stage, s.TaskID = 2, 7
		inline := 5
		if n <= 3 {
			inline = 3
		}
		if n <= 5 && cap(s.Points) != inline {
			t.Fatalf("n=%d: New's points have capacity %d, want the block's %d", n, cap(s.Points), inline)
		}
		c := s.Clone()
		next := New(pts) // likely the block after c's, in the same size class
		next.Stage, next.TaskID = 3, 8
		if c.Stage != 2 || c.TaskID != 7 || len(s.Points) != n || len(c.Points) != n {
			t.Fatalf("n=%d: New/Clone lost data: %v / %v", n, s, c)
		}
		for i := range pts {
			pts[i].Count = 50
			c.Points[i].Count = 99
		}
		for _, r := range []*Synopsis{s, c} {
			// Overrun whatever capacity was left, then write through the grown
			// slice: only r's own storage may change.
			grown := append(r.Points[len(r.Points):], PointCount{Point: 1000, Count: 7})
			grown = append(grown, grown...)
			for j := range grown {
				grown[j] = PointCount{Point: 0xffff, Count: 0xffff}
			}
		}
		if next.Stage != 3 || next.TaskID != 8 || len(next.Points) != n {
			t.Fatalf("n=%d: appending to a record reached its neighbour: %v", n, next)
		}
		for i := range s.Points {
			if s.Points[i] != (PointCount{Point: logpoint.ID(i + 1), Count: 1}) {
				t.Fatalf("n=%d: New shares points with its argument or its clone: %v", n, s.Points)
			}
			if c.Points[i] != (PointCount{Point: logpoint.ID(i + 1), Count: 99}) {
				t.Fatalf("n=%d: appending to the source reached the clone: %v", n, c.Points)
			}
			if next.Points[i] != (PointCount{Point: logpoint.ID(i + 1), Count: 1}) {
				t.Fatalf("n=%d: appending to a record reached its neighbour's points: %v", n, next.Points)
			}
		}
	}
}

func TestTotalHitsAndString(t *testing.T) {
	s := &Synopsis{Stage: 1, Host: 2, TaskID: 3, Duration: time.Millisecond,
		Points: []PointCount{{1, 2}, {4, 3}}}
	if got := s.TotalHits(); got != 5 {
		t.Fatalf("TotalHits = %d", got)
	}
	str := s.String()
	for _, want := range []string{"stage=1", "host=2", "task=3", "1×2", "4×3"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}
