package analyzer

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// stagedModel trains three stages whose signature counts differ, so a window
// block recycled from one stage to another is re-sized up and down: stage 1
// knows {1,2,4,5} and the rare (flow-outlier) {1,2,3,4,5}; stage 2 knows six
// equally common flows {1,k}, k = 2..7; stage 3 knows {1,2} alone. Durations
// are 9-11 ms throughout. Stage 4 is never trained.
func stagedModel(t testing.TB) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	dur := func() time.Duration { return 9*time.Millisecond + time.Duration(rng.Intn(2000))*time.Microsecond }
	var trace []*synopsis.Synopsis
	for i := 0; i < 6000; i++ {
		pts := []logpoint.ID{1, 2, 4, 5}
		if i%250 == 0 {
			pts = []logpoint.ID{1, 2, 3, 4, 5}
		}
		trace = append(trace,
			makeSyn(1, 1, epoch, dur(), pts...),
			makeSyn(2, 1, epoch, dur(), 1, logpoint.ID(2+i%6)),
			makeSyn(3, 1, epoch, dur(), 1, 2))
	}
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// stagedStream is a seeded random interleaving of 3 hosts x 4 stages on one
// advancing clock (about 15 windows of it): mostly the stage's known flows,
// with unknown signatures, the rare flow, slow tasks and late stragglers
// mixed in. Times stay on the record codec's microsecond grid so examples
// survive a checkpoint unchanged.
func stagedStream(seed int64, n int) []*synopsis.Synopsis {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*synopsis.Synopsis, 0, n)
	clock := epoch
	for i := 0; i < n; i++ {
		clock = clock.Add(time.Duration(rng.Intn(360)) * time.Millisecond)
		stage := logpoint.StageID(1 + rng.Intn(4))
		start := clock
		dur := 9*time.Millisecond + time.Duration(rng.Intn(2000))*time.Microsecond
		var pts []logpoint.ID
		switch stage {
		case 1:
			pts = []logpoint.ID{1, 2, 4, 5}
			if rng.Intn(20) == 0 {
				pts = []logpoint.ID{1, 2, 3, 4, 5}
			}
		case 2:
			pts = []logpoint.ID{1, logpoint.ID(2 + rng.Intn(6))}
		default:
			pts = []logpoint.ID{1, 2}
		}
		switch rng.Intn(25) {
		case 0:
			pts = []logpoint.ID{logpoint.ID(8 + rng.Intn(3))} // unknown to every stage
		case 1, 2:
			dur = 40 * time.Millisecond
		case 3:
			start = start.Add(-2 * time.Minute) // late once its group has a window open
		}
		s := makeSyn(stage, uint16(1+rng.Intn(3)), start, dur, pts...)
		s.TaskID = uint64(i)
		out = append(out, s)
	}
	return out
}

func checkpointBytes(t *testing.T, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walkPending is PendingTasks before it became a running count: a walk over
// the open windows, which the count is held to.
func walkPending(d *Detector) int {
	n := 0
	for _, w := range d.open {
		n += w.tasks
	}
	return n
}

// TestRecycledWindowsMatchFresh: a detector that lives through the whole
// stream, opening every window in recycled storage, must be indistinguishable
// from a chain of detectors each restored from a checkpoint at every window
// boundary — whose windows are always freshly built. Two mid-stream flushes
// fill the free list with blocks of every stage, so the reopening groups draw
// blocks sized for another stage. Along the way — after every observed task,
// closed window, flush and restore — each detector's running open-task count
// equals the walk over its open windows.
func TestRecycledWindowsMatchFresh(t *testing.T) {
	model := stagedModel(t)
	for seed := int64(1); seed <= 8; seed++ {
		stream := stagedStream(seed, 5000)
		long, fresh := NewDetector(model), NewDetector(model)
		var want, got []Anomaly
		for i, s := range stream {
			want = append(want, long.Feed(s)...)
			closed := len(fresh.stats)
			got = append(got, fresh.Feed(s)...)
			if i == len(stream)/3 || i == 2*len(stream)/3 {
				want = append(want, long.Flush()...)
				got = append(got, fresh.Flush()...)
			}
			if len(fresh.stats) != closed {
				restored, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, fresh)))
				if err != nil {
					t.Fatalf("seed %d: restore after synopsis %d: %v", seed, i, err)
				}
				fresh = restored
			}
			for _, d := range []*Detector{long, fresh} {
				if got, want := d.PendingTasks(), walkPending(d); got != want {
					t.Fatalf("seed %d, synopsis %d: PendingTasks = %d, the open windows hold %d", seed, i, got, want)
				}
			}
		}
		if a, b := checkpointBytes(t, long), checkpointBytes(t, fresh); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: final checkpoints differ (%d vs %d bytes)", seed, len(a), len(b))
		}
		want = append(want, long.Flush()...)
		got = append(got, fresh.Flush()...)
		if len(want) == 0 || long.LateSynopses() == 0 {
			t.Fatalf("seed %d: %d anomalies, %d late: the stream should produce both", seed, len(want), long.LateSynopses())
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: anomalies differ:\nrecycled: %v\nfresh:    %v", seed, want, got)
		}
		if !reflect.DeepEqual(long.WindowHistory(), fresh.WindowHistory()) {
			t.Fatalf("seed %d: window history differs", seed)
		}
		if long.LateSynopses() != fresh.LateSynopses() {
			t.Fatalf("seed %d: late %d vs %d", seed, long.LateSynopses(), fresh.LateSynopses())
		}
	}
}

// TestExportImportExportIdentical: a group's open-window state survives a
// handoff byte for byte — what an engine exports after importing a blob is
// the blob.
func TestExportImportExportIdentical(t *testing.T) {
	model := stagedModel(t)
	all := func(uint16, logpoint.StageID) bool { return true }
	a := NewEngine(model)
	defer a.Close()
	b := NewEngine(model)
	defer b.Close()
	for _, s := range stagedStream(3, 2000) {
		a.Feed(s)
	}
	a.Drain()
	held := a.PendingTasks()
	blob, n, err := a.ExportGroups(all)
	if err != nil || n == 0 {
		t.Fatalf("export: %d groups, err %v", n, err)
	}
	if m, _, err := b.ImportGroups(blob); err != nil || m != n {
		t.Fatalf("import: %d of %d groups, err %v", m, n, err)
	}
	// The open-task count moves with the windows, on the running count and
	// on what the worker publishes.
	published := func(e *Engine) int { return e.ShardStats()[0].Pending }
	if held == 0 || a.PendingTasks() != 0 || published(a) != 0 || b.PendingTasks() != held || published(b) != held {
		t.Fatalf("%d open tasks exported: the exporter keeps %d (publishes %d), the importer holds %d (publishes %d)",
			held, a.PendingTasks(), published(a), b.PendingTasks(), published(b))
	}
	again, m, err := b.ExportGroups(all)
	if err != nil || m != n {
		t.Fatalf("re-export: %d of %d groups, err %v", m, n, err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("re-exported blob differs from the imported one:\n%s\n%s", blob, again)
	}
}

// TestWindowAllocs pins what a window boundary costs once the detector is
// warm: nothing for model-known, non-outlier traffic — the window opens in
// the storage the closed one left — and only the retained examples when
// tasks are slow.
func TestWindowAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	model := stagedModel(t)
	const runs, perWindow = 8, 200
	for _, tc := range []struct {
		name string
		slow int // stage-1 tasks per window over the threshold: too few to alarm, each retained as an example
	}{
		{"healthy", 0},
		{"perf outliers", model.Config.MaxExamples},
	} {
		det := NewDetector(model)
		// The window history grows for the life of the process (ROADMAP item
		// 1); give it room so the pin sees the window's own storage only.
		det.stats = make([]windowEntry, 0, 4*(runs+3))
		// One window of two interleaved groups of different stages per call;
		// every call closes the previous window of both.
		windows := make([][]*synopsis.Synopsis, runs+3)
		for w := range windows {
			for i := 0; i < perWindow; i++ {
				at := epoch.Add(time.Duration(w)*model.Config.Window + time.Duration(i)*time.Millisecond)
				d1 := 10 * time.Millisecond
				if i < tc.slow {
					d1 = 40 * time.Millisecond
				}
				windows[w] = append(windows[w],
					makeSyn(1, 1, at, d1, 1, 2, 4, 5),
					makeSyn(2, 1, at, 10*time.Millisecond, 1, logpoint.ID(2+i%6)))
			}
		}
		next := 0
		feed := func() {
			for _, s := range windows[next] {
				if out := det.Feed(s); len(out) != 0 {
					t.Fatalf("%s: unexpected anomaly %v", tc.name, out[0])
				}
			}
			next++
		}
		feed() // warm-up: the first windows and their blocks
		feed()
		if got := testing.AllocsPerRun(runs, feed); got > float64(tc.slow) {
			t.Errorf("%s: %v allocations per pair of windows, want at most %d", tc.name, got, tc.slow)
		}
		hist := det.WindowHistory()
		if len(hist) != 2*(next-1) {
			t.Fatalf("%s: %d windows closed, want %d", tc.name, len(hist), 2*(next-1))
		}
		for _, w := range hist {
			if w.Stage == 1 && w.PerfOutliers != tc.slow {
				t.Fatalf("%s: window %v counted %d perf outliers, want %d", tc.name, w.Window, w.PerfOutliers, tc.slow)
			}
		}
	}
}
