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
	"saad/internal/trace"
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
			closed := fresh.ClosedWindows()
			got = append(got, fresh.Feed(s)...)
			if i == len(stream)/3 || i == 2*len(stream)/3 {
				want = append(want, long.Flush()...)
				got = append(got, fresh.Flush()...)
			}
			if fresh.ClosedWindows() != closed {
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
// warm: nothing, for model-known traffic healthy or slow enough to keep as
// examples, whether the detector keeps the fed records or copies of them —
// the window opens in the storage the closed one left, its example list
// and the copies in it included.
func TestWindowAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	model := stagedModel(t)
	const runs, perWindow = 8, 200
	for _, tc := range []struct {
		name   string
		slow   int  // stage-1 tasks per window over the threshold: too few to alarm, each retained as an example
		copies bool // SetRetainCopy
	}{
		{"healthy", 0, false},
		{"perf outliers", model.Config.MaxExamples, false},
		{"perf outliers, copies kept", model.Config.MaxExamples, true},
	} {
		det := NewDetector(model)
		det.SetRetainCopy(tc.copies)
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
		if got := testing.AllocsPerRun(runs, feed); got != 0 {
			t.Errorf("%s: %v allocations per pair of windows, want 0", tc.name, got)
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

// TestSwapModelKeepsTheCore: a swap replaces the model and closes the open
// windows, and keeps everything else the detector holds — the history, the
// late count, example retention, the flight ring (which shows the swap right
// after the last old-model window closed) and the storage of every window
// the swap closed, which the next windows open in.
func TestSwapModelKeepsTheCore(t *testing.T) {
	model := stagedModel(t)
	ring := trace.NewFlightRing(1 << 12)
	d := NewDetector(model)
	d.SetRetainCopy(true)
	d.SetFlight(ring)
	for _, s := range stagedStream(5, 3000) {
		d.Feed(s)
	}
	open, closed, late := len(d.open), d.ClosedWindows(), d.LateSynopses()
	hist := d.WindowHistory()
	if open == 0 || late == 0 {
		t.Fatalf("%d windows open, %d late: the stream should leave both", open, late)
	}
	next := model.Clone()
	d.SwapModel(next)
	if d.model != next || d.cfg != next.Config {
		t.Fatal("SwapModel left the old model serving")
	}
	if d.PendingTasks() != 0 || len(d.open) != 0 || d.ClosedWindows() != closed+open {
		t.Fatalf("after the swap: %d pending in %d open windows, %d closed; want 0 in 0, %d", d.PendingTasks(), len(d.open), d.ClosedWindows(), closed+open)
	}
	if d.LateSynopses() != late || !d.retainCopy || d.flight != ring {
		t.Fatalf("the swap lost the core's state: late %d (want %d), retainCopy %v, flight ring kept %v", d.LateSynopses(), late, d.retainCopy, d.flight == ring)
	}
	if after := d.WindowHistory(); len(after) < len(hist) {
		t.Fatalf("history shrank across the swap: %d entries, %d before", len(after), len(hist))
	}
	if len(d.free) < open {
		t.Fatalf("%d windows on the free list, want the %d the swap closed", len(d.free), open)
	}
	events := ring.Snapshot() // newest first
	if len(events) < 2 || events[0].Kind != trace.EventModelSwap || events[1].Kind != trace.EventWindowClose {
		t.Fatalf("flight ring ends %v, want the last window close, then the swap", events[:min(len(events), 2)])
	}
}

// TestSwapModelAllocs pins what a swap between windows costs a warm
// detector: the one list of open groups its flush sorts. The windows after
// it open in the storage the swap closed, under either model.
func TestSwapModelAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	models := []*Model{stagedModel(t), stagedModel(t)}
	const runs, perWindow = 8, 200
	det := NewDetector(models[0])
	windows := make([][]*synopsis.Synopsis, runs+3)
	for w := range windows {
		for i := 0; i < perWindow; i++ {
			at := epoch.Add(time.Duration(w)*models[0].Config.Window + time.Duration(i)*time.Millisecond)
			windows[w] = append(windows[w],
				makeSyn(1, 1, at, 10*time.Millisecond, 1, 2, 4, 5),
				makeSyn(2, 1, at, 10*time.Millisecond, 1, logpoint.ID(2+i%6)))
		}
	}
	next := 0
	swapAndFeed := func() {
		if out := det.SwapModel(models[next%2]); len(out) != 0 {
			t.Fatalf("unexpected anomaly %v", out[0])
		}
		for _, s := range windows[next] {
			if out := det.Feed(s); len(out) != 0 {
				t.Fatalf("unexpected anomaly %v", out[0])
			}
		}
		next++
	}
	swapAndFeed() // warm-up: both models indexed, the first windows' blocks made
	swapAndFeed()
	if got := testing.AllocsPerRun(runs, swapAndFeed); got > 1 {
		t.Errorf("%v allocations per swap and pair of windows, want at most 1", got)
	}
	if got := det.ClosedWindows(); got != 2*(next-1) {
		t.Fatalf("%d windows closed, want %d", got, 2*(next-1))
	}
}
