package lifecycle

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/raceflag"
)

func shadowTestConfig() ShadowConfig {
	return ShadowConfig{MinWindows: 5, FalsePositiveBudget: 0.05}
}

func TestShadowNotReadyBeforeMinWindows(t *testing.T) {
	model := trainOn(t, traffic(6000, 20, epoch, nil))
	sh := NewShadow(model.Clone(), model.Clone(), shadowTestConfig())
	// 400 synopses at 5ms spacing span 2s: at most 2 closed 1s windows.
	for _, s := range traffic(400, 21, epoch.Add(time.Hour), nil) {
		sh.Observe(s)
	}
	v := sh.Verdict()
	if v.Ready || v.Promote {
		t.Fatalf("verdict before MinWindows = %+v", v)
	}
	if !strings.Contains(v.Reason, "closed windows") {
		t.Fatalf("reason = %q", v.Reason)
	}
	if v.Fed != 400 {
		t.Fatalf("Fed = %d", v.Fed)
	}
}

// TestShadowPromotesEquivalentCandidate: a candidate trained on a second
// healthy sample of the same workload behaves like the serving model and
// passes the gate.
func TestShadowPromotesEquivalentCandidate(t *testing.T) {
	serving := trainOn(t, traffic(6000, 20, epoch, nil))
	candidate := trainOn(t, traffic(6000, 22, epoch, nil))
	sh := NewShadow(serving.Clone(), candidate.Clone(), shadowTestConfig())
	for _, s := range traffic(2000, 23, epoch.Add(time.Hour), nil) {
		sh.Observe(s)
	}
	v := sh.Verdict()
	if !v.Ready {
		t.Fatalf("not ready after %d windows: %+v", v.Windows, v)
	}
	if !v.Promote {
		t.Fatalf("equivalent candidate rejected: %+v", v)
	}
	if v.Divergence > sh.cfg.FalsePositiveBudget {
		t.Fatalf("divergence = %v over budget", v.Divergence)
	}
}

// TestShadowRejectsPoisonedCandidate is the acceptance scenario: the
// candidate was trained on a trace recorded while a fault injector was
// erroring every secondary-flow net send, so it never learned the healthy
// secondary flow. On clean live traffic it alarms every window while the
// serving model stays quiet — the gate must reject it.
func TestShadowRejectsPoisonedCandidate(t *testing.T) {
	serving := trainOn(t, traffic(6000, 20, epoch, nil))

	inj := faults.NewInjector(netSendError())
	poisonedTrace := traffic(6000, 24, epoch, inj)
	poisoned := trainOn(t, poisonedTrace)
	// Sanity: the injector really rewrote the secondary flow.
	if len(detect(poisoned, traffic(500, 25, after(poisonedTrace), nil))) == 0 {
		t.Fatal("poisoned model does not alarm on healthy traffic; scenario is vacuous")
	}

	sh := NewShadow(serving.Clone(), poisoned.Clone(), shadowTestConfig())
	for _, s := range traffic(2000, 23, epoch.Add(time.Hour), nil) {
		sh.Observe(s)
	}
	v := sh.Verdict()
	if !v.Ready {
		t.Fatalf("not ready: %+v", v)
	}
	if v.Promote {
		t.Fatalf("poisoned candidate promoted: %+v", v)
	}
	if v.CandidateAnomalies == 0 || v.Divergence <= sh.cfg.FalsePositiveBudget {
		t.Fatalf("rejection not driven by candidate noise: %+v", v)
	}
	if !strings.Contains(v.Reason, "exceeds") {
		t.Fatalf("reason = %q", v.Reason)
	}
}

// TestShadowVerdictAllocs pins Verdict, which the manager calls every
// VerdictEvery synopses, at zero allocations before and after the verdict is
// ready and on both outcomes: counting the windows must not copy the serving
// detector's history.
func TestShadowVerdictAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	serving := trainOn(t, traffic(6000, 20, epoch, nil))
	for _, tc := range []struct {
		name      string
		candidate *analyzer.Model
	}{
		{"equivalent", trainOn(t, traffic(6000, 22, epoch, nil))},
		{"poisoned", trainOn(t, traffic(6000, 24, epoch, faults.NewInjector(netSendError())))},
	} {
		sh := NewShadow(serving.Clone(), tc.candidate.Clone(), shadowTestConfig())
		var v Verdict
		for i, s := range traffic(2000, 23, epoch.Add(time.Hour), nil) {
			sh.Observe(s)
			if i == 100 || i == 1999 {
				if got := testing.AllocsPerRun(20, func() { v = sh.Verdict() }); got != 0 {
					t.Errorf("%s, after %d synopses: Verdict allocates %v times, want 0", tc.name, i+1, got)
				}
			}
		}
		if !v.Ready || v.Promote != (tc.name == "equivalent") {
			t.Fatalf("%s: the stream should end in a ready verdict that promotes only the equivalent candidate: %+v", tc.name, v)
		}
	}
}

// TestShadowDeterministic: the verdict is a pure function of the synopsis
// stream — two evaluations of identical streams agree exactly.
func TestShadowDeterministic(t *testing.T) {
	serving := trainOn(t, traffic(6000, 20, epoch, nil))
	candidate := trainOn(t, traffic(6000, 24, epoch, faults.NewInjector(netSendError())))
	run := func() Verdict {
		sh := NewShadow(serving.Clone(), candidate.Clone(), shadowTestConfig())
		for _, s := range traffic(2000, 26, epoch.Add(time.Hour), nil) {
			sh.Observe(s)
		}
		return sh.Verdict()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shadow verdict is nondeterministic:\n%+v\n%+v", a, b)
	}
}
