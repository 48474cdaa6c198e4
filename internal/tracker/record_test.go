package tracker

import (
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
	"saad/internal/trace"
)

// runTask pushes one task with n distinct points through tr, hitting them in
// descending id order (point i is hit i times) so End has sorting to do.
func runTask(tr *Tracker, n int) {
	task := tr.Begin(1, epoch)
	for id := n; id >= 1; id-- {
		for k := 0; k < id; k++ {
			task.Hit(logpoint.ID(id), epoch.Add(time.Millisecond))
		}
	}
	task.End(epoch.Add(2 * time.Millisecond))
}

func checkRecord(t *testing.T, s *synopsis.Synopsis, n int) {
	t.Helper()
	if len(s.Points) != n {
		t.Fatalf("record of a %d-point task has points %v", n, s.Points)
	}
	for i, pc := range s.Points {
		if want := (synopsis.PointCount{Point: logpoint.ID(i + 1), Count: uint32(i + 1)}); pc != want {
			t.Fatalf("record of a %d-point task: point %d = %v, want %v (all: %v)", n, i, pc, want, s.Points)
		}
	}
}

// TestRecordsOwnTheirPoints: tasks on both sides of both record blocks'
// edges (3|4 and 5|6) round-trip, consecutive records off one recycled Task
// never share point storage, and a sink scribbling on or appending to a
// record it was handed — a 3-point block's included — cannot reach a later
// one.
func TestRecordsOwnTheirPoints(t *testing.T) {
	sink := &collectSink{}
	tr := New(0, sink)
	sizes := []int{3, 4, 5, 6, 2, 3, 6, 5, 1, 9, 3, 3, 0, 4}
	for i, n := range sizes {
		runTask(tr, n)
		s := sink.all()[i]
		checkRecord(t, s, n)
		if i%2 == 0 {
			// Overrun whatever capacity the record left, then write through
			// the grown slice: only this record's own storage may change.
			grown := append(s.Points, synopsis.PointCount{Point: 999, Count: 999})
			grown = append(grown, grown...)
			for j := range grown {
				grown[j].Count = 12345
			}
			for j := range s.Points {
				s.Points[j].Count = 12345
			}
		}
	}
	for i, s := range sink.all() {
		if i%2 == 1 {
			checkRecord(t, s, sizes[i])
		}
	}
}

// TestTaskEndAllocs pins the tracker's cost in the monitored process: one
// block per task while the points fit a record block (five), one more slice
// beyond, plus the span when the task is sampled.
func TestTaskEndAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	for _, tc := range []struct {
		points  int
		sampled bool
		want    float64
	}{
		{0, false, 1}, {2, false, 1}, {3, false, 1}, {4, false, 1}, {5, false, 1},
		{6, false, 2}, {12, false, 2},
		{3, true, 2}, {5, true, 2}, {6, true, 3},
	} {
		tr := New(1, SinkFunc(func(*synopsis.Synopsis) {}))
		if tc.sampled {
			tr.SetSampler(trace.NewSampler(1))
		}
		runTask(tr, tc.points) // warm the task pool and the task's point vector
		if got := testing.AllocsPerRun(200, func() { runTask(tr, tc.points) }); got != tc.want {
			t.Errorf("%d points, sampled=%v: %v allocs per task, want %v", tc.points, tc.sampled, got, tc.want)
		}
	}
}
