package lifecycle

import (
	"testing"
	"time"

	"saad/internal/faults"
	"saad/internal/trace"
)

// TestManagerGaugeResetOnPromote: promotion ends both the drift epoch
// against the old model and the candidate's shadow run, so neither gauge
// may keep exporting its pre-swap reading.
func TestManagerGaugeResetOnPromote(t *testing.T) {
	_, mgr, _, lm := newServingStack(t, managerTestConfig())

	live := traffic(3000, 31, epoch.Add(time.Hour), nil)
	next := after(live)
	mgr.EmitBatch(live)
	if _, err := mgr.Retrain(); err != nil {
		t.Fatal(err)
	}
	mgr.EmitBatch(traffic(3000, 32, next, nil))

	if got := mgr.ServingVersion(); got != 2 {
		t.Fatalf("serving version = %d, want auto-promotion to 2", got)
	}
	if got := lm.DriftScore.Value(); got != 0 {
		t.Fatalf("drift_score gauge = %v after promotion, want reset to 0", got)
	}
	if got := lm.ShadowDivergence.Value(); got != 0 {
		t.Fatalf("shadow_divergence gauge = %v after promotion, want reset to 0", got)
	}
}

// TestManagerGaugeResetOnRejection: a rejected candidate's shadow is gone;
// its last divergence reading must not linger on /metrics as if a shadow
// were still running.
func TestManagerGaugeResetOnRejection(t *testing.T) {
	_, mgr, _, lm := newServingStack(t, managerTestConfig())

	inj := faults.NewInjector(netSendError())
	faulted := traffic(2000, 33, epoch.Add(time.Hour), inj)
	next := after(faulted)
	mgr.EmitBatch(faulted)
	if _, err := mgr.Retrain(); err != nil {
		t.Fatal(err)
	}
	mgr.EmitBatch(traffic(3000, 34, next, nil))

	v := mgr.LastVerdict()
	if v == nil || !v.Ready || v.Promote {
		t.Fatalf("last verdict = %+v, want a ready rejection", v)
	}
	if got := lm.ShadowDivergence.Value(); got != 0 {
		t.Fatalf("shadow_divergence gauge = %v after rejection, want reset to 0", got)
	}
}

// TestManagerDriftEpochsReachFlightRecorder: with a tracer attached, every
// completed drift epoch lands on the control flight ring, so an anomaly's
// flight snapshot shows recent model-health context.
func TestManagerDriftEpochsReachFlightRecorder(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1})
	_, mgr, _, _ := newServingStack(t, managerTestConfig(), WithLifecycleTracer(tr))

	// managerTestConfig evaluates drift every 1000 tasks; 3000 synopses
	// complete three epochs.
	mgr.EmitBatch(traffic(3000, 35, epoch.Add(time.Hour), nil))
	if mgr.LastDrift() == nil {
		t.Fatal("no drift report after 3000 synopses")
	}

	var epochs int
	for _, ev := range tr.ControlRing().Snapshot() {
		if ev.Kind == trace.EventDriftEpoch {
			epochs++
			if ev.B > 1 {
				t.Fatalf("drift event B (drifted flag) = %d, want 0 or 1", ev.B)
			}
		}
	}
	if epochs == 0 {
		t.Fatal("no drift epochs on the control flight ring")
	}
	// The merged snapshot surfaces them too.
	var merged int
	for _, ev := range tr.FlightSnapshot(64) {
		if ev.Kind == trace.EventDriftEpoch {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("drift epochs missing from the merged flight snapshot")
	}
}
