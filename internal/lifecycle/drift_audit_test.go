package lifecycle

import (
	"slices"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/synopsis"
)

// TestServingDetectorFlagsDriftScenarios is the audit that retired the
// epoch-based drift monitor (DESIGN §12): every workload change its tests
// built, fed to a detector on the serving model, alarms from the window the
// change starts in. So does a +10% duration shift that the monitor never
// reported, because its warm-up had frozen the shifted epoch as the
// reference. Every change starts on a window boundary.
func TestServingDetectorFlagsDriftScenarios(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	start := epoch.Add(time.Hour)

	novel := traffic(1000, 12, start, nil)
	for i := 0; i < len(novel); i += 10 {
		novel[i] = makeSyn(1, 1, novel[i].Start, novel[i].Duration, 1, 2, 8)
	}
	ref := traffic(2000, 13, start, nil)
	doubled := traffic(1000, 14, after(ref), nil)
	for _, s := range doubled {
		s.Duration *= 2
	}
	var untrained []*synopsis.Synopsis
	for i := 0; i < 1000; i++ {
		at := start.Add(time.Duration(i) * 5 * time.Millisecond)
		untrained = append(untrained, makeSyn(7, 1, at, 10*time.Millisecond, 1, 2))
	}
	shifted := traffic(3000, 18, start, nil)
	for _, s := range shifted[1000:] {
		s.Duration += s.Duration / 10
	}

	for _, tc := range []struct {
		name   string
		stream []*synopsis.Synopsis
		// change is where the scenario departs from training: the first
		// alarm's window.
		change             time.Time
		kind               analyzer.AnomalyKind
		newSignature       bool
		anomalies, windows int
	}{
		{name: "healthy", stream: traffic(4000, 11, start, nil)},
		{name: "10% never-seen signatures", stream: novel, change: novel[0].Start,
			kind: analyzer.FlowAnomaly, newSignature: true, anomalies: 5, windows: 5},
		{name: "doubled durations", stream: slices.Concat(ref, doubled), change: doubled[0].Start,
			kind: analyzer.PerformanceAnomaly, anomalies: 10, windows: 5},
		{name: "untrained stage", stream: untrained, change: untrained[0].Start,
			kind: analyzer.FlowAnomaly, newSignature: true, anomalies: 5, windows: 5},
		{name: "+10% durations", stream: shifted, change: shifted[1000].Start,
			kind: analyzer.PerformanceAnomaly, anomalies: 21, windows: 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			found := detect(model, tc.stream)
			windows := make(map[time.Time]bool)
			for _, a := range found {
				windows[a.Window] = true
				if a.Kind != tc.kind || a.NewSignature != tc.newSignature || a.Window.Before(tc.change) {
					t.Errorf("anomaly %s, want %s (new signature %v) from window %s on",
						a, tc.kind, tc.newSignature, tc.change.Format("15:04:05"))
				}
			}
			if len(found) != tc.anomalies || len(windows) != tc.windows {
				t.Fatalf("%d anomalies in %d windows, want %d in %d", len(found), len(windows), tc.anomalies, tc.windows)
			}
			if len(found) > 0 && !found[0].Window.Equal(tc.change) {
				t.Fatalf("first alarm in window %s, want the change's %s",
					found[0].Window.Format("15:04:05"), tc.change.Format("15:04:05"))
			}
		})
	}
}
