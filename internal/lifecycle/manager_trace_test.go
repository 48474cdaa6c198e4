package lifecycle

import (
	"testing"
	"time"

	"saad/internal/faults"
)

// TestManagerGaugeResetOnPromote: promotion ends the candidate's shadow
// run, so the divergence gauge may not keep exporting its pre-swap reading.
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
