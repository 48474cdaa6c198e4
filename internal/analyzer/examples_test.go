package analyzer

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// TestAlarmingWindowAllocs pins what an alarming window costs a warm
// detector: the growth of its list of anomalies (at most one allocation an
// anomaly) and, for each anomaly, one slice of examples plus, under
// SetRetainCopy, one copy per example. Every window here alarms twice, on
// its rare flows and on its slow tasks, each anomaly with MaxExamples
// examples.
func TestAlarmingWindowAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	model := stagedModel(t)
	maxEx := model.Config.MaxExamples
	const runs, perWindow, alarms = 8, 200, 2
	windows := make([][]*synopsis.Synopsis, runs+3)
	for w := range windows {
		for i := 0; i < perWindow; i++ {
			at := epoch.Add(time.Duration(w)*model.Config.Window + time.Duration(i)*time.Millisecond)
			pts, dur := []logpoint.ID{1, 2, 4, 5}, 10*time.Millisecond
			switch i % 4 {
			case 0:
				pts = []logpoint.ID{1, 2, 3, 4, 5} // the rare flow
			case 1:
				dur = 40 * time.Millisecond
			}
			s := makeSyn(1, 1, at, dur, pts...)
			s.TaskID = uint64(w*perWindow + i)
			windows[w] = append(windows[w], s)
		}
	}
	for _, copies := range []bool{false, true} {
		det := NewDetector(model)
		det.SetRetainCopy(copies)
		next, emitted := 0, 0
		feed := func() {
			for _, s := range windows[next] {
				for _, a := range det.Feed(s) {
					if len(a.Examples) != maxEx {
						t.Fatalf("copies %v: %v has %d examples, want %d", copies, a, len(a.Examples), maxEx)
					}
					emitted++
				}
			}
			next++
		}
		feed() // warm-up: the first window and its storage
		feed()
		emitted = 0
		got := testing.AllocsPerRun(runs, feed)
		if emitted != alarms*(runs+1) { // AllocsPerRun feeds once more to warm up
			t.Fatalf("copies %v: %d anomalies over %d windows, want %d a window", copies, emitted, runs+1, alarms)
		}
		perAnomaly := 1
		if copies {
			perAnomaly += maxEx
		}
		if want := alarms * (1 + perAnomaly); got > float64(want) {
			t.Errorf("copies %v: %v allocations per alarming window, want at most %d", copies, got, want)
		}
	}
}

// TestAnomalyExamplesOutliveTheirWindow: an anomaly's examples are its own.
// Each anomaly's examples (task ids and points) are snapshot as it is
// emitted and must read the same after at least ten more windows that keep
// examples of their own — whether the detector keeps the fed records, keeps
// copies while the caller rewrites one record for every feed (as a pool
// would), or starts keeping copies mid-stream over windows that hold the
// caller's records, which must then never be written. Along the way the
// copies the detector owns never outnumber the most examples its open
// windows have held at once.
func TestAnomalyExamplesOutliveTheirWindow(t *testing.T) {
	model := stagedModel(t)
	const seed, n = 11, 6000
	type shot struct {
		task uint64
		pts  []synopsis.PointCount
	}
	snap := func(a Anomaly) []shot {
		var out []shot
		for _, ex := range a.Examples {
			out = append(out, shot{ex.TaskID, append([]synopsis.PointCount(nil), ex.Points...)})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		copyFrom int // the synopsis from which on copies are kept; -1: never
	}{
		{"records kept", -1},
		{"copies kept", 0},
		{"copies from mid-stream", n / 2},
	} {
		stream := stagedStream(seed, n)
		d := NewDetector(model)
		var (
			anomalies []Anomaly
			shots     [][]shot
			later     = map[WindowStats]bool{} // windows with examples that closed after the first anomaly
			peak      int
		)
		fed := &synopsis.Synopsis{} // the caller's one record once copies are kept
		for i, s := range stream {
			if i == tc.copyFrom {
				d.SetRetainCopy(true)
			}
			in := s
			if d.retainCopy {
				pts := append(fed.Points[:0], s.Points...)
				*fed = *s
				fed.Points = pts
				in = fed
			}
			for _, a := range d.Feed(in) {
				if len(anomalies) > 0 && len(a.Examples) > 0 {
					later[WindowStats{Stage: a.Stage, Host: a.Host, Window: a.Window}] = true
				}
				anomalies = append(anomalies, a)
				shots = append(shots, snap(a))
			}
			held := 0
			for _, w := range d.open {
				held += len(w.examples)
			}
			peak = max(peak, held)
			if held+len(d.spare) > peak {
				t.Fatalf("%s, synopsis %d: the detector owns %d copies, the open windows never held more than %d examples", tc.name, i, held+len(d.spare), peak)
			}
		}
		if len(later) < 10 {
			t.Fatalf("%s: %d windows kept examples after the first anomaly, want at least 10", tc.name, len(later))
		}
		for k, a := range anomalies {
			if got := snap(a); !reflect.DeepEqual(got, shots[k]) {
				t.Fatalf("%s: anomaly %d (%v) emitted with examples %v, now %v", tc.name, k, a, shots[k], got)
			}
		}
		if !reflect.DeepEqual(stream, stagedStream(seed, n)) {
			t.Fatalf("%s: the detector wrote into a record the caller fed", tc.name)
		}
	}
}

// TestCheckpointRejectsExamplesBeyondOutliers: a detector keeps at most one
// example per outlier of a site and at most MaxExamples there (at least one
// for a new signature), so a window listing more — in a checkpoint or in a
// peer's handoff blob — is refused by name on both paths. Each limit
// itself is accepted.
func TestCheckpointRejectsExamplesBeyondOutliers(t *testing.T) {
	model := trainedModel(t)
	maxEx := model.Config.MaxExamples
	seed := NewDetector(model)
	for _, s := range hostileWindowSeed() {
		seed.Feed(s)
	}
	// repeat returns n copies of a site's first example.
	repeat := func(ex []string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = ex[0]
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		mutate func(*windowJSON)
		ok     bool
	}{
		{"as written", func(*windowJSON) {}, true},
		{"rare-flow examples beyond the flow outliers", func(w *windowJSON) {
			w.FlowExamples = repeat(w.FlowExamples, w.FlowOutliers+1)
		}, false},
		{"rare-flow examples beyond MaxExamples", func(w *windowJSON) {
			w.Tasks, w.FlowOutliers = 40, 20
			w.FlowExamples = repeat(w.FlowExamples, maxEx+1)
		}, false},
		{"MaxExamples rare-flow examples", func(w *windowJSON) {
			w.Tasks, w.FlowOutliers = 40, 20
			w.FlowExamples = repeat(w.FlowExamples, maxEx)
		}, true},
		{"new-signature examples beyond its count", func(w *windowJSON) {
			w.NewSigs[0].Examples = repeat(w.NewSigs[0].Examples, w.NewSigs[0].Count+1)
		}, false},
		{"new-signature examples beyond MaxExamples", func(w *windowJSON) {
			w.Tasks, w.FlowOutliers, w.NewSigs[0].Count = 40, 20, 10
			w.NewSigs[0].Examples = repeat(w.NewSigs[0].Examples, maxEx+1)
		}, false},
		{"perf examples without perf outliers", func(w *windowJSON) {
			w.PerSig[0].PerfOutliers = 0
		}, false},
		{"a thousand perf examples of one perf outlier", func(w *windowJSON) {
			w.PerSig[0].Examples = repeat(w.PerSig[0].Examples, 1000)
		}, false},
		{"perf examples beyond MaxExamples", func(w *windowJSON) {
			w.Tasks, w.PerSig[0].Tasks, w.PerSig[0].PerfOutliers = 40, 20, 10
			w.PerSig[0].Examples = repeat(w.PerSig[0].Examples, maxEx+1)
		}, false},
		{"MaxExamples perf examples", func(w *windowJSON) {
			w.Tasks, w.PerSig[0].Tasks, w.PerSig[0].PerfOutliers = 40, 20, 10
			w.PerSig[0].Examples = repeat(w.PerSig[0].Examples, maxEx)
		}, true},
	} {
		wins := seed.windowsJSON()
		if len(wins) != 1 || len(wins[0].FlowExamples) != 1 || len(wins[0].NewSigs) != 1 || len(wins[0].PerSig) != 1 {
			t.Fatalf("the seed's window is %+v, want one rare-flow, one new-signature and one perf example", wins)
		}
		tc.mutate(&wins[0])

		var ckpt bytes.Buffer
		if _, err := writeCheckpointJSON(&ckpt, checkpointJSON{Version: checkpointVersion, Model: model.toJSON(), Windows: wins}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadCheckpoint(&ckpt)
		checkRefusal(t, tc.name+" (checkpoint)", tc.ok, err)

		blob, err := json.Marshal(groupExportJSON{Version: checkpointVersion, Windows: wins})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(model)
		_, _, err = e.ImportGroups(blob)
		checkRefusal(t, tc.name+" (handoff)", tc.ok, err)
		if open := len(e.OpenGroups()); !tc.ok && open != 0 {
			t.Errorf("%s (handoff): the refused blob left %d groups open", tc.name, open)
		}
		e.Close()
	}
}

// checkRefusal requires err to be nil when ok, and otherwise an error that
// names the group of hostileWindowSeed's window.
func checkRefusal(t *testing.T, name string, ok bool, err error) {
	t.Helper()
	switch {
	case ok && err != nil:
		t.Errorf("%s: refused: %v", name, err)
	case !ok && (err == nil || !strings.Contains(err.Error(), "host=1 stage=1")):
		t.Errorf("%s: accepted, or refused without naming the group: %v", name, err)
	}
}
