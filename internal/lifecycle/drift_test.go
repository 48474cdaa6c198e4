package lifecycle

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"saad/internal/raceflag"
)

func driftTestConfig() DriftConfig {
	return DriftConfig{EpochTasks: 1000, MinStageTasks: 200}
}

func TestDriftQuietOnHealthyTraffic(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	m := NewDriftMonitor(model, driftTestConfig())

	live := traffic(4000, 11, epoch.Add(time.Hour), nil)
	var reports []*DriftReport
	for _, s := range live {
		if rep := m.Observe(s); rep != nil {
			reports = append(reports, rep)
		}
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4 epochs of 1000", len(reports))
	}
	for _, rep := range reports {
		if rep.Drifted {
			t.Fatalf("epoch %d drifted on healthy traffic: %+v", rep.Epoch, rep)
		}
		if rep.Score != 0 {
			t.Fatalf("epoch %d score = %v, want 0", rep.Epoch, rep.Score)
		}
	}
	// Epochs after the first must actually run the duration-shift test.
	last := reports[3]
	if len(last.Stages) == 0 || !last.Stages[0].HasDurationShift {
		t.Fatalf("duration-shift test never ran: %+v", last)
	}
	if m.Total() != 4000 || m.Epoch() != 4 {
		t.Fatalf("Total/Epoch = %d/%d", m.Total(), m.Epoch())
	}
}

// TestDriftFlagsNeverSeenSignatures: a sustained 10% never-seen-signature
// rate trips the proportion test in the very first epoch.
func TestDriftFlagsNeverSeenSignatures(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	m := NewDriftMonitor(model, driftTestConfig())

	live := traffic(1000, 12, epoch.Add(time.Hour), nil)
	for i := 0; i < len(live); i += 10 {
		live[i] = makeSyn(1, 1, live[i].Start, live[i].Duration, 1, 2, 8)
	}
	var rep *DriftReport
	for _, s := range live {
		if r := m.Observe(s); r != nil {
			rep = r
		}
	}
	if rep == nil || !rep.Drifted {
		t.Fatalf("novel-signature burst not flagged: %+v", rep)
	}
	sd := rep.Stages[0]
	if !sd.NewSigTest.Reject || sd.NewSigRate < 0.05 {
		t.Fatalf("flow evidence missing: %+v", sd)
	}
	if len(sd.Reasons) == 0 || !strings.Contains(sd.Reasons[0], "never-seen") {
		t.Fatalf("reasons = %v", sd.Reasons)
	}
	if rep.Score < 0.05 {
		t.Fatalf("score = %v, want the observed novel rate", rep.Score)
	}
}

// TestDriftFlagsDurationShift: same flows, doubled durations — only the
// two-sample duration test can catch this, and it does in the first epoch
// after the reference freezes (epoch 1 is the default warm-up, epoch 2 the
// reference, epoch 3 the shift).
func TestDriftFlagsDurationShift(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	m := NewDriftMonitor(model, driftTestConfig())

	ref := traffic(2000, 13, epoch.Add(time.Hour), nil)
	shifted := traffic(1000, 14, after(ref), nil)
	for _, s := range shifted {
		s.Duration *= 2
	}
	var reports []*DriftReport
	for _, s := range append(ref, shifted...) {
		if rep := m.Observe(s); rep != nil {
			reports = append(reports, rep)
		}
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	for _, r := range reports[:2] {
		if r.Drifted {
			t.Fatalf("warm-up/reference epoch %d drifted: %+v", r.Epoch, r)
		}
	}
	rep := reports[2]
	if !rep.Drifted {
		t.Fatalf("duration shift not flagged: %+v", rep)
	}
	sd := rep.Stages[0]
	if !sd.HasDurationShift || !sd.DurationShift.Reject {
		t.Fatalf("duration evidence missing: %+v", sd)
	}
	if sd.NewSigTest.Reject {
		t.Fatalf("flow test rejected on unchanged flows: %+v", sd)
	}
	if len(sd.Reasons) == 0 || !strings.Contains(sd.Reasons[0], "duration") {
		t.Fatalf("reasons = %v", sd.Reasons)
	}
	if rep.Score < 0.9 {
		t.Fatalf("score = %v, want near 1 for a gross shift", rep.Score)
	}
}

// TestDriftWarmupSkipsTransientReference: a transient in the very first
// epoch (doubled durations — a cold cache, a fault mid-recovery) must not
// freeze into the permanent duration reference. With the default one
// warm-up epoch the reference comes from the first settled epoch, so
// steady-state traffic afterwards stays quiet instead of reporting
// perpetual drift against a poisoned baseline.
func TestDriftWarmupSkipsTransientReference(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	m := NewDriftMonitor(model, driftTestConfig())

	transient := traffic(1000, 16, epoch.Add(time.Hour), nil)
	for _, s := range transient {
		s.Duration *= 2
	}
	steady := traffic(3000, 17, after(transient), nil)
	var reports []*DriftReport
	for _, s := range append(transient, steady...) {
		if rep := m.Observe(s); rep != nil {
			reports = append(reports, rep)
		}
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	// Epochs 3 and 4 compare steady traffic against the steady epoch-2
	// reference; the transient epoch 1 was only warm-up.
	for _, rep := range reports[2:] {
		if rep.Drifted {
			t.Fatalf("steady epoch %d drifted against a transient-poisoned reference: %+v", rep.Epoch, rep)
		}
	}
	last := reports[3]
	if len(last.Stages) == 0 || !last.Stages[0].HasDurationShift {
		t.Fatalf("duration-shift test never ran after warm-up: %+v", last)
	}
}

// TestDriftUntrainedStage: traffic on a stage the model never saw reads as
// pure novelty, not silence.
func TestDriftUntrainedStage(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	m := NewDriftMonitor(model, driftTestConfig())

	var rep *DriftReport
	at := epoch.Add(time.Hour)
	for i := 0; i < 1000; i++ {
		if r := m.Observe(makeSyn(7, 1, at, 10*time.Millisecond, 1, 2)); r != nil {
			rep = r
		}
		at = at.Add(5 * time.Millisecond)
	}
	if rep == nil || !rep.Drifted {
		t.Fatalf("untrained stage not flagged: %+v", rep)
	}
	var found bool
	for _, sd := range rep.Stages {
		if sd.Stage == 7 {
			found = true
			if sd.NewSigRate != 1 || !sd.Drifted {
				t.Fatalf("stage 7 drift = %+v, want rate 1", sd)
			}
		}
	}
	if !found {
		t.Fatal("stage 7 missing from report")
	}
}

// TestDriftDeterministic: identical streams produce byte-identical reports.
func TestDriftDeterministic(t *testing.T) {
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	run := func() []*DriftReport {
		m := NewDriftMonitor(model, driftTestConfig())
		var out []*DriftReport
		for _, s := range traffic(3000, 15, epoch.Add(time.Hour), nil) {
			if rep := m.Observe(s); rep != nil {
				out = append(out, rep)
			}
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drift evaluation is nondeterministic:\n%+v\n%+v", a, b)
	}
}

// TestDriftObserveAllocs pins the monitor's per-synopsis cost: short of the
// one that completes an epoch, Observe allocates nothing — the signature is
// looked up through the scratch buffer and the duration lands in a bucket
// that already exists.
func TestDriftObserveAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	model := trainOn(t, traffic(12000, 10, epoch, nil))
	m := NewDriftMonitor(model, DriftConfig{EpochTasks: 1 << 30})
	live := traffic(512, 11, epoch.Add(time.Hour), nil)
	i := 0
	got := testing.AllocsPerRun(2000, func() {
		if rep := m.Observe(live[i%len(live)]); rep != nil {
			t.Fatalf("epoch closed after %d synopses", m.Total())
		}
		i++
	})
	if got != 0 {
		t.Errorf("DriftMonitor.Observe = %v allocs, want 0", got)
	}
}
