package analyzer

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// hasPointers reports whether a value of type t holds anything the GC must
// scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return t.Kind() > reflect.Complex128
	}
}

// TestWindowEntryLayout: a history entry is 24 bytes and holds no pointer.
func TestWindowEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(windowEntry{}); got != 24 {
		t.Errorf("windowEntry is %d bytes, want 24", got)
	}
	if hasPointers(reflect.TypeOf(windowEntry{})) {
		t.Error("windowEntry holds a pointer")
	}
	if !hasPointers(reflect.TypeOf(WindowStats{})) {
		t.Error("the walk finds no pointer in WindowStats' time.Time: it proves nothing")
	}
}

// TestWindowEntryRoundTrip: packing and unpacking keeps every field — window
// starts before 1970 included, rebuilt in UTC — and a count above MaxUint32
// saturates.
func TestWindowEntryRoundTrip(t *testing.T) {
	starts := []time.Time{
		time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC),
		time.Unix(0, -1).UTC(),
		time.Unix(0, 0).UTC(),
		epoch.Add(1234567 * time.Nanosecond),
	}
	const max32 = math.MaxUint32
	counts := []struct{ in, want [3]int }{
		{[3]int{0, 0, 0}, [3]int{0, 0, 0}},
		{[3]int{max32, max32, max32}, [3]int{max32, max32, max32}},
		{[3]int{max32 + 1, math.MaxInt, max32 + 7}, [3]int{max32, max32, max32}},
	}
	for _, start := range starts {
		for _, c := range counts {
			got := packWindow(math.MaxUint16, logpoint.StageID(7), start.UnixNano(), c.in[0], c.in[1], c.in[2]).unpack()
			want := WindowStats{
				Stage: 7, Host: math.MaxUint16, Window: start, Windows: 1,
				Tasks: c.want[0], FlowOutliers: c.want[1], PerfOutliers: c.want[2],
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pack %v %v, unpack:\n got %+v\nwant %+v", start, c.in, got, want)
			}
		}
	}
}

// TestClosedWindowsCountsHistory: ClosedWindows is the sum of WindowHistory's
// Windows after every task, across flushes and a checkpoint restore, on a
// stream long enough that every group's history folds; and the history's
// tasks, the open windows' and the late drops account for every task fed.
func TestClosedWindowsCountsHistory(t *testing.T) {
	model := stagedModel(t)
	det := NewDetector(model)
	fed := 0
	check := func(when string) {
		t.Helper()
		windows, tasks := 0, 0
		for _, w := range det.WindowHistory() {
			windows += w.Windows
			tasks += w.Tasks
		}
		if got := det.ClosedWindows(); got != windows {
			t.Fatalf("%s: ClosedWindows = %d, WindowHistory sums %d", when, got, windows)
		}
		if got := tasks + det.PendingTasks() + int(det.LateSynopses()); got != fed {
			t.Fatalf("%s: history, open windows and late drops account for %d of %d tasks", when, got, fed)
		}
	}
	check("new detector")
	// stagedStream's clock slowed twelvefold: about three hours, well over
	// HistoryDepth windows for each of its twelve groups.
	stream := stagedStream(1, 3000)
	for _, s := range stream {
		s.Start = epoch.Add(12 * s.Start.Sub(epoch))
	}
	for i, s := range stream {
		det.Feed(s)
		fed++
		check("after a task")
		switch i {
		case len(stream) / 3:
			det.Flush()
			check("after a flush")
		case 2 * len(stream) / 3:
			restored, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, det)))
			if err != nil {
				t.Fatal(err)
			}
			det = restored
			check("after a restore")
		}
	}
	det.Flush()
	check("at the end")
	folded := 0
	for _, g := range det.hist.groups {
		if g.agg.windows > 0 {
			folded++
		}
	}
	if len(det.hist.groups) != 12 || folded != 12 {
		t.Fatalf("%d of %d groups folded: the stream should fold all twelve", folded, len(det.hist.groups))
	}
}

// TestWindowHistoryRetainedBytes: the history is bounded by its groups, not
// by the windows they close. A detector closes 60,000 windows on a virtual
// clock, all of one group or spread over 56, and the live heap after a
// collection may grow by at most HistoryDepth entries and one aggregate a
// group, plus the group's record and map slot, and 1 KiB the collector's own
// bookkeeping may move by. A history that keeps every closed window fails it
// (24 B a window is 1.44 MB), and so does one that keeps twice HistoryDepth
// windows a group. The heap is process-wide, so a goroutine another test left
// behind can only add to a measurement: each case takes the least of three.
func TestWindowHistoryRetainedBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap measurements are exact only without the race detector")
	}
	const windows, bookkeeping, slack, rounds = 60_000, 128, 1024, 3
	model := trainedModel(t)
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, groups := range []int{1, 56} {
		perGroup := windows / groups
		grown := int64(math.MaxInt64)
		for r := 0; r < rounds; r++ {
			det := NewDetector(model)
			syns := make([]*synopsis.Synopsis, groups)
			for g := range syns {
				syns[g] = makeSyn(1, uint16(g+1), epoch, 10*time.Millisecond, 1, 2, 4, 5)
				det.Feed(syns[g])
			}
			before := live()
			for w := 1; w <= perGroup; w++ {
				for _, s := range syns {
					s.Start = epoch.Add(time.Duration(w) * model.Config.Window)
					if out := det.Feed(s); len(out) != 0 {
						t.Fatalf("%d groups, window %d: unexpected anomaly %v", groups, w, out[0])
					}
				}
			}
			grown = min(grown, live()-before)
			if det.ClosedWindows() != perGroup*groups {
				t.Fatalf("%d groups: %d windows closed, want %d", groups, det.ClosedWindows(), perGroup*groups)
			}
			runtime.KeepAlive(det)
		}
		limit := int64(groups)*(HistoryDepth*int64(unsafe.Sizeof(windowEntry{}))+int64(unsafe.Sizeof(windowAggregate{}))+bookkeeping) + slack
		t.Logf("%d groups closing %d windows grew the live heap by %d B, %d B a group", groups, perGroup*groups, grown, grown/int64(groups))
		if grown > limit {
			t.Errorf("%d groups closing %d windows grew the live heap by %d B; want at most %d",
				groups, perGroup*groups, grown, limit)
		}
	}
}
