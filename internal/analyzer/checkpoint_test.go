package analyzer

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

func TestCheckpointFileAtomicWriteAndLoad(t *testing.T) {
	model := trainedModel(t)
	det := NewDetector(model)
	for _, s := range multiGroupStream(1)[:3200] {
		det.Feed(s)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "analyzer.ckpt")
	for i := 0; i < 2; i++ { // second write exercises the overwrite path
		if err := det.WriteCheckpointFile(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "analyzer.ckpt" {
		t.Fatalf("temp files left behind: %v", entries)
	}
	restored, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(restored.open), len(det.open); got != want {
		t.Fatalf("restored %d open windows, want %d", got, want)
	}
	if !reflect.DeepEqual(restored.WindowHistory(), det.WindowHistory()) {
		t.Fatal("restored window history differs")
	}
}

func TestCheckpointRejectsBadInput(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("{garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"version": 999, "model": {}}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
	// A checkpoint with a corrupt example record must fail, not silently
	// drop evidence.
	bad := `{"version": 1, "model": {"config": {"flowPercentile": 99, "durationPercentile": 99,
	  "alpha": 0.001, "kFolds": 5, "discardFactor": 3, "minTasksPerSignature": 20,
	  "windowMillis": 60000, "useTTest": true, "maxExamples": 3, "minEffect": 0.02},
	  "trainedOn": 1, "stages": []},
	  "windows": [{"host": 1, "stage": 1, "startUnixNs": 0, "tasks": 1, "flowOutliers": 1,
	    "newSigs": [{"signature": "01", "count": 1, "examples": ["zz"]}]}]}`
	if _, err := ReadCheckpoint(strings.NewReader(bad)); err == nil {
		t.Fatal("corrupt example record accepted")
	}

	// Windows no detector writes: each must be refused by name, not adopted
	// with the later duplicate winning or with counts the proportion tests
	// choke on.
	det := NewDetector(trainedModel(t))
	for _, s := range hostileWindowSeed() {
		det.Feed(s)
	}
	good := checkpointBytes(t, det)
	for _, tc := range hostileWindows {
		var raw checkpointJSON
		if err := json.Unmarshal(good, &raw); err != nil {
			t.Fatal(err)
		}
		raw.Windows = tc.mutate(raw.Windows)
		var buf bytes.Buffer
		if _, err := writeCheckpointJSON(&buf, raw); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "host=1 stage=1") {
			t.Errorf("%s: accepted, or rejected without naming the group: %v", tc.name, err)
		}
	}
}

// TestCheckpointRejectsBadHistory: a history entry no detector writes — a
// negative count, a count beyond the packed width, more outliers than tasks —
// is refused by name instead of adopted (a negative count would wrap). The
// largest count that packs is accepted and survives.
func TestCheckpointRejectsBadHistory(t *testing.T) {
	det := NewDetector(trainedModel(t))
	for _, s := range hostileWindowSeed() {
		det.Feed(s)
	}
	det.Flush()
	good := checkpointBytes(t, det)
	for _, tc := range []struct {
		name   string
		mutate func(*windowStatsJSON)
		ok     bool
	}{
		{"as written", func(*windowStatsJSON) {}, true},
		{"MaxUint32 tasks", func(h *windowStatsJSON) { h.Tasks, h.FlowOutliers = math.MaxUint32, math.MaxUint32 }, true},
		{"negative tasks", func(h *windowStatsJSON) { h.Tasks, h.FlowOutliers, h.PerfOutliers = -1, 0, 0 }, false},
		{"negative flow outliers", func(h *windowStatsJSON) { h.FlowOutliers = -1 }, false},
		{"negative perf outliers", func(h *windowStatsJSON) { h.PerfOutliers = -1 }, false},
		{"tasks beyond MaxUint32", func(h *windowStatsJSON) { h.Tasks = math.MaxUint32 + 1 }, false},
		{"more flow outliers than tasks", func(h *windowStatsJSON) { h.FlowOutliers = h.Tasks + 1 }, false},
		{"more perf outliers than tasks", func(h *windowStatsJSON) { h.PerfOutliers = h.Tasks + 1 }, false},
	} {
		var raw checkpointJSON
		if err := json.Unmarshal(good, &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw.History) != 1 {
			t.Fatalf("the seed closed %d windows, want 1", len(raw.History))
		}
		tc.mutate(&raw.History[0])
		var buf bytes.Buffer
		if _, err := writeCheckpointJSON(&buf, raw); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadCheckpoint(&buf)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.ok:
			h := raw.History[0]
			if got := restored.WindowHistory()[0]; got.Tasks != h.Tasks || got.FlowOutliers != h.FlowOutliers || got.PerfOutliers != h.PerfOutliers {
				t.Errorf("%s: restored %+v from %+v", tc.name, got, h)
			}
		case err == nil || !strings.Contains(err.Error(), "host=1 stage=1"):
			t.Errorf("%s: accepted, or refused without naming the group: %v", tc.name, err)
		}
	}
}

// hostileWindowSeed opens one (host 1, stage 1) window holding a perSig
// entry with a perf outlier, a known rare flow and a new signature.
func hostileWindowSeed() []*synopsis.Synopsis {
	return []*synopsis.Synopsis{
		makeSyn(1, 1, epoch, 10*time.Millisecond, 1, 2, 4, 5),
		makeSyn(1, 1, epoch, 40*time.Millisecond, 1, 2, 4, 5),
		makeSyn(1, 1, epoch, 10*time.Millisecond, 1, 2, 3, 4, 5),
		makeSyn(1, 1, epoch, time.Millisecond, 1),
	}
}

// hostileWindows are the ways a checkpoint or handoff blob can contradict
// itself; each mutates the single window hostileWindowSeed leaves open.
var hostileWindows = []struct {
	name   string
	mutate func([]windowJSON) []windowJSON
}{
	{"two windows for one group", func(w []windowJSON) []windowJSON { return append(w, w[0]) }},
	{"perSig signature twice", func(w []windowJSON) []windowJSON {
		w[0].PerSig = append(w[0].PerSig, w[0].PerSig[0])
		return w
	}},
	{"new signature twice", func(w []windowJSON) []windowJSON {
		w[0].NewSigs = append(w[0].NewSigs, w[0].NewSigs[0])
		return w
	}},
	{"negative tasks", func(w []windowJSON) []windowJSON { w[0].Tasks = -4; return w }},
	{"negative flow outliers", func(w []windowJSON) []windowJSON { w[0].FlowOutliers = -1; return w }},
	{"more flow outliers than tasks", func(w []windowJSON) []windowJSON { w[0].FlowOutliers = w[0].Tasks + 1; return w }},
	{"negative perf outliers", func(w []windowJSON) []windowJSON { w[0].PerSig[0].PerfOutliers = -1; return w }},
	{"more perf outliers than tasks", func(w []windowJSON) []windowJSON {
		w[0].PerSig[0].PerfOutliers = w[0].PerSig[0].Tasks + 1
		return w
	}},
	{"perSig entry without tasks", func(w []windowJSON) []windowJSON {
		w[0].PerSig[0].Tasks, w[0].PerSig[0].PerfOutliers = 0, 0
		return w
	}},
	{"perSig tasks beyond the window's", func(w []windowJSON) []windowJSON { w[0].PerSig[0].Tasks = w[0].Tasks + 1; return w }},
	{"new signature without a count", func(w []windowJSON) []windowJSON { w[0].NewSigs[0].Count = 0; return w }},
	{"more tasks accounted for than the window's", func(w []windowJSON) []windowJSON { w[0].PerSig[0].Tasks = w[0].Tasks; return w }},
	{"new signatures beyond the flow outliers", func(w []windowJSON) []windowJSON { w[0].NewSigs[0].Count = w[0].Tasks; return w }},
	{"new signature the model knows", func(w []windowJSON) []windowJSON {
		w[0].NewSigs[0].SignatureHex = hex.EncodeToString([]byte(synopsis.Compute([]logpoint.ID{1, 2, 4, 5})))
		return w
	}},
}

// TestCheckpointTimePrecision: window starts survive the round trip at
// nanosecond precision even off the codec's microsecond grid.
func TestCheckpointTimePrecision(t *testing.T) {
	model := trainedModel(t)
	det := NewDetector(model)
	odd := epoch.Add(1234567 * time.Nanosecond)
	det.Feed(makeSyn(1, 1, odd, 10*time.Millisecond, 1, 2, 4, 5))
	var buf bytes.Buffer
	if _, err := det.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	key := groupKey{host: 1, stage: 1}
	a, b := det.open[key], restored.open[key]
	if a == nil || b == nil {
		t.Fatal("open window missing")
	}
	if !a.start.Equal(b.start) {
		t.Fatalf("window start drifted: %v vs %v", a.start, b.start)
	}
}

// TestOldCheckpointFoldsOnRead: a checkpoint written before the history was
// bounded lists every closed window in full, with no "windows" field. One
// holding 200 windows of one group restores to the history the detector that
// closed them keeps — an aggregate of the first 136, then the last
// HistoryDepth — and the restored detector writes that detector's bytes.
func TestOldCheckpointFoldsOnRead(t *testing.T) {
	const windows = 200
	model := stagedModel(t)
	det := NewDetector(model)
	var old []windowStatsJSON
	for w := 0; w < windows; w++ {
		at := epoch.Add(time.Duration(w) * model.Config.Window)
		// Three normal tasks, w%3 of them slow, and w%2 of the rare flow.
		for i := 0; i < 3+w%2; i++ {
			s := makeSyn(1, 1, at, 10*time.Millisecond, 1, 2, 4, 5)
			if i < w%3 {
				s.Duration = 40 * time.Millisecond
			}
			if i == 3 {
				s = makeSyn(1, 1, at, 10*time.Millisecond, 1, 2, 3, 4, 5)
			}
			det.Feed(s)
		}
		old = append(old, windowStatsJSON{
			Stage: 1, Host: 1, WindowUnixNs: at.UnixNano(),
			Tasks: 3 + w%2, FlowOutliers: w % 2, PerfOutliers: w % 3,
		})
	}
	det.Flush()
	written := checkpointBytes(t, det)
	var raw checkpointJSON
	if err := json.Unmarshal(written, &raw); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(written, []byte(`"windows": `)); n != 1 || len(raw.History) != 1+HistoryDepth {
		t.Fatalf(`the detector wrote %d history entries, %d with "windows"; want %d, one`, len(raw.History), n, 1+HistoryDepth)
	}
	raw.History = old
	var buf bytes.Buffer
	if _, err := writeCheckpointJSON(&buf, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"windows": `)) {
		t.Fatal(`the old-format checkpoint carries a "windows" field`)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hist := restored.WindowHistory()
	if !reflect.DeepEqual(hist, det.WindowHistory()) || restored.ClosedWindows() != windows || det.ClosedWindows() != windows {
		t.Fatalf("restored %d windows as %+v...; the writer closed %d as %+v...",
			restored.ClosedWindows(), hist[0], det.ClosedWindows(), det.WindowHistory()[0])
	}
	if agg := hist[0]; agg.Windows != windows-HistoryDepth || !agg.Window.Equal(epoch) {
		t.Fatalf("aggregate %+v, want the first %d windows from %v", agg, windows-HistoryDepth, epoch)
	}
	if got := checkpointBytes(t, restored); !bytes.Equal(got, written) {
		t.Fatalf("the restored detector writes %d bytes, its writer %d", len(got), len(written))
	}
}

// TestCheckpointRejectsBadAggregate: an aggregate entry is refused by name
// when it sums fewer than one window, holds more outliers than tasks or a
// negative count, or follows other entries of its group, where no detector
// writes one. One that holds more tasks than a single window packs is kept.
func TestCheckpointRejectsBadAggregate(t *testing.T) {
	det := NewDetector(trainedModel(t))
	for _, s := range hostileWindowSeed() {
		det.Feed(s)
	}
	det.Flush()
	good := checkpointBytes(t, det)
	windows := func(n int) *int { return &n }
	for _, tc := range []struct {
		name   string
		mutate func([]windowStatsJSON) []windowStatsJSON
		ok     bool
	}{
		{"an aggregate", func(h []windowStatsJSON) []windowStatsJSON {
			h[0].Windows, h[0].Tasks, h[0].FlowOutliers = windows(5), math.MaxUint32+1, 7
			return h
		}, true},
		{"zero windows", func(h []windowStatsJSON) []windowStatsJSON { h[0].Windows = windows(0); return h }, false},
		{"negative windows", func(h []windowStatsJSON) []windowStatsJSON { h[0].Windows = windows(-2); return h }, false},
		{"negative tasks", func(h []windowStatsJSON) []windowStatsJSON {
			h[0].Windows, h[0].Tasks, h[0].FlowOutliers, h[0].PerfOutliers = windows(5), -1, 0, 0
			return h
		}, false},
		{"more flow outliers than tasks", func(h []windowStatsJSON) []windowStatsJSON {
			h[0].Windows, h[0].FlowOutliers = windows(5), h[0].Tasks+1
			return h
		}, false},
		{"more perf outliers than tasks", func(h []windowStatsJSON) []windowStatsJSON {
			h[0].Windows, h[0].PerfOutliers = windows(5), h[0].Tasks+1
			return h
		}, false},
		{"behind a window of its group", func(h []windowStatsJSON) []windowStatsJSON {
			agg := h[0]
			agg.Windows = windows(5)
			return append(h, agg)
		}, false},
	} {
		var raw checkpointJSON
		if err := json.Unmarshal(good, &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw.History) != 1 {
			t.Fatalf("the seed closed %d windows, want 1", len(raw.History))
		}
		raw.History = tc.mutate(raw.History)
		var buf bytes.Buffer
		if _, err := writeCheckpointJSON(&buf, raw); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadCheckpoint(&buf)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.ok:
			h := raw.History[0]
			got := restored.WindowHistory()[0]
			if got.Windows != *h.Windows || got.Tasks != h.Tasks || got.FlowOutliers != h.FlowOutliers || restored.ClosedWindows() != *h.Windows {
				t.Errorf("%s: restored %+v (%d closed) from %+v", tc.name, got, restored.ClosedWindows(), h)
			}
		case err == nil || !strings.Contains(err.Error(), "host=1 stage=1"):
			t.Errorf("%s: accepted, or refused without naming the group: %v", tc.name, err)
		}
	}
}
