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
				Stage: 7, Host: math.MaxUint16, Window: start,
				Tasks: c.want[0], FlowOutliers: c.want[1], PerfOutliers: c.want[2],
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pack %v %v, unpack:\n got %+v\nwant %+v", start, c.in, got, want)
			}
		}
	}
}

// TestClosedWindowsCountsHistory: ClosedWindows is the length of
// WindowHistory after every task, across flushes and a checkpoint restore.
func TestClosedWindowsCountsHistory(t *testing.T) {
	model := stagedModel(t)
	det := NewDetector(model)
	check := func(when string) {
		t.Helper()
		if got, want := det.ClosedWindows(), len(det.WindowHistory()); got != want {
			t.Fatalf("%s: ClosedWindows = %d, WindowHistory holds %d", when, got, want)
		}
	}
	check("new detector")
	stream := stagedStream(1, 3000)
	for i, s := range stream {
		det.Feed(s)
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
	if det.ClosedWindows() < 100 {
		t.Fatalf("only %d windows closed: the stream should close far more", det.ClosedWindows())
	}
}

// TestWindowHistoryRetainedBytes: what the history keeps per closed window,
// measured as reachable heap after a collection. A detector closes 60,000
// windows of one group on a virtual clock; the heap may grow by at most 32 B
// a window — the 24-byte entry plus the slice's growth headroom. An entry
// holding a time.Time (56 B) fails it.
func TestWindowHistoryRetainedBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap measurements are exact only without the race detector")
	}
	const windows, perWindow = 60_000, 32
	model := trainedModel(t)
	det := NewDetector(model)
	s := makeSyn(1, 1, epoch, 10*time.Millisecond, 1, 2, 4, 5)
	det.Feed(s)
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	for w := 1; w <= windows; w++ {
		s.Start = epoch.Add(time.Duration(w) * model.Config.Window)
		if out := det.Feed(s); len(out) != 0 {
			t.Fatalf("window %d: unexpected anomaly %v", w, out[0])
		}
	}
	grown := live() - before
	if det.ClosedWindows() != windows {
		t.Fatalf("%d windows closed, want %d", det.ClosedWindows(), windows)
	}
	runtime.KeepAlive(det)
	t.Logf("%d closed windows grew the live heap by %d B, %.1f B a window", windows, grown, float64(grown)/windows)
	if grown > windows*perWindow {
		t.Fatalf("%d closed windows grew the live heap by %d B, %.1f B a window; want at most %d",
			windows, grown, float64(grown)/windows, perWindow)
	}
}
