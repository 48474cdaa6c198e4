package saad_test

import (
	"testing"
	"time"

	"saad"
	"saad/internal/analyzer/analyzertest"
)

// The equivalence script: three stages on one host, a healthy training
// phase, then five one-second detection windows with faults mixed in. Every
// timestamp is computed, so the monitor under test and the reference
// tracker emit field-identical synopses.
const (
	eqHost         = 3
	eqStages       = 3
	eqTrainTasks   = 2000 // per stage
	eqWindows      = 5
	eqWindowTasks  = 200 // per stage per window
	eqTaskSpacing  = 4 * time.Millisecond
	eqSlowDuration = 80 * time.Millisecond
)

var eqEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// eqTask emits one task: points p0[,p1],p2 (or p0 only when cut short),
// ending dur after start.
func eqTask(tr *saad.Tracker, stage saad.StageID, start time.Time, dur time.Duration, slowPath, cut bool) {
	base := saad.LogPointID(int(stage-1)*3 + 1)
	task := tr.Begin(stage, start)
	task.Hit(base, start)
	if !cut {
		if slowPath {
			task.Hit(base+1, start.Add(dur/2))
		}
		task.Hit(base+2, start.Add(dur))
	}
	task.End(start.Add(dur))
}

// eqHealthy is the fault-free duration of the i-th task: 1 ms plus a
// deterministic jitter.
func eqHealthy(i int) time.Duration {
	return time.Millisecond + time.Duration(i%17)*10*time.Microsecond
}

func eqTrain(tr *saad.Tracker) {
	for i := 0; i < eqTrainTasks; i++ {
		for st := saad.StageID(1); st <= eqStages; st++ {
			start := eqEpoch.Add(time.Duration(i) * eqTaskSpacing)
			eqTask(tr, st, start, eqHealthy(i), i%5 == 0, false)
		}
	}
}

// eqDetectWindow plays detection window w. Stage 1 loses its tail (a
// signature unseen in training) in windows 1 and 2; stage 2 runs slow in
// windows 1, 2 and 3; stage 3 runs slow in window 2 only, the isolated
// alarm a 2-of-3 filter suppresses. Windows 0 and 4 are healthy.
func eqDetectWindow(tr *saad.Tracker, w int) {
	base := eqEpoch.Add(time.Hour + time.Duration(w)*time.Second)
	for i := 0; i < eqWindowTasks; i++ {
		start := base.Add(time.Duration(i) * eqTaskSpacing)
		faulty := i%3 == 0
		eqTask(tr, 1, start, eqHealthy(i), i%5 == 0, faulty && (w == 1 || w == 2))
		dur := eqHealthy(i)
		if faulty && w >= 1 && w <= 3 {
			dur = eqSlowDuration
		}
		eqTask(tr, 2, start, dur, i%5 == 0, false)
		dur = eqHealthy(i)
		if faulty && w == 2 {
			dur = eqSlowDuration
		}
		eqTask(tr, 3, start, dur, i%5 == 0, false)
	}
}

func eqConfig() saad.AnalyzerConfig {
	cfg := saad.DefaultAnalyzerConfig()
	cfg.Window = time.Second
	return cfg
}

// eqReference is the script's verdict from the reference pipeline: a bare
// tracker, saad.Train and the analyzer's executable specification fed
// record by record, its returns passed through filter when one is given.
func eqReference(t *testing.T, filter *saad.AlarmFilter) []saad.Anomaly {
	t.Helper()
	var syns []*saad.Synopsis
	tr := saad.NewTracker(eqHost, saad.SinkFunc(func(s *saad.Synopsis) { syns = append(syns, s) }))
	eqTrain(tr)
	model, err := saad.Train(eqConfig(), syns)
	if err != nil {
		t.Fatal(err)
	}
	syns = syns[:0]
	for w := 0; w < eqWindows; w++ {
		eqDetectWindow(tr, w)
	}
	pass := func(as []saad.Anomaly) []saad.Anomaly {
		if filter != nil {
			return filter.Filter(as)
		}
		return as
	}
	spec := analyzertest.NewSpec(model)
	var out []saad.Anomaly
	for _, s := range syns {
		out = append(out, pass(spec.Feed(s))...)
	}
	return append(out, pass(spec.Flush())...)
}

// eqMonitor is the script's verdict from a Monitor: trained through its own
// tracker, polled after every window, flushed at the end.
func eqMonitor(t *testing.T, opts ...saad.MonitorOption) []saad.Anomaly {
	t.Helper()
	opts = append([]saad.MonitorOption{saad.WithAnalyzerConfig(eqConfig()), saad.WithHost(eqHost)}, opts...)
	mon, err := saad.NewMonitor(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, name := range []string{"A", "B", "C"} {
		buildStage(t, mon.Dictionary(), name)
	}
	eqTrain(mon.Tracker())
	if _, err := mon.Train(); err != nil {
		t.Fatal(err)
	}
	var out []saad.Anomaly
	for w := 0; w < eqWindows; w++ {
		eqDetectWindow(mon.Tracker(), w)
		got, err := mon.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if w == 0 && len(got) != 0 {
			t.Fatalf("Poll before any window closed returned %d anomalies", len(got))
		}
		out = append(out, got...)
	}
	got, err := mon.Flush()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, got...)
	if dropped := mon.Dropped(); dropped != 0 {
		t.Fatalf("monitor dropped %d synopses", dropped)
	}
	return out
}

// TestMonitorMatchesReferenceDetector holds the monitor to the reference
// verdicts, anomaly for anomaly, examples included: Poll... + Flush equals
// the spec fed the same synopses — with and without the alarm filter.
func TestMonitorMatchesReferenceDetector(t *testing.T) {
	unfiltered := eqReference(t, nil)
	var newSig, flow, perf int
	for _, a := range unfiltered {
		switch {
		case a.NewSignature:
			newSig++
		case a.Kind == saad.FlowAnomaly:
			flow++
		default:
			perf++
		}
	}
	if newSig == 0 || perf < 4 {
		t.Fatalf("script too tame: %d new-signature, %d flow, %d performance anomalies", newSig, flow, perf)
	}
	filtered := eqReference(t, saad.NewAlarmFilter(2, 3, eqConfig().Window))
	if len(filtered) == 0 || len(filtered) >= len(unfiltered) {
		t.Fatalf("filter passed %d of %d anomalies; want some held back", len(filtered), len(unfiltered))
	}

	for _, tc := range []struct {
		name string
		opts []saad.MonitorOption
		want []saad.Anomaly
	}{
		{"default", nil, unfiltered},
		{"default/filter", []saad.MonitorOption{saad.WithAlarmFilter(2, 3)}, filtered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := analyzertest.Observe(tc.want, nil, 0)
			analyzertest.Check(t, "the script", want, analyzertest.Observe(eqMonitor(t, tc.opts...), nil, 0))
		})
	}
}
