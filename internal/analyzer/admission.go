package analyzer

import (
	"sync/atomic"

	"saad/internal/trace"
)

// Admission control: graceful degradation under overload.
//
// A metastable storm (retrying clients, a flapping partition healing, a
// replayed spill ring) can offer the engine more synopses than its shards
// can absorb. Without admission control the bounded shard queues push
// backpressure all the way into the TCP handlers, which stops reads, which
// makes clients spill and retry harder — the analyzer collapses exactly
// when it is most needed. Admission control instead sheds load at the
// front door once saturation is *sustained*, keeping a deterministic 1-in-N
// sample flowing so windows still close and verdicts still emerge, and
// recovers via hysteresis once the queues stay calm.
//
// Mechanics (all per shard, all observation-count based — no wall clock on
// the hot path, and deterministic under test):
//
//   - Saturation: a Feed observing queue depth >= HighWater×cap bumps a
//     streak counter; SaturateAfter consecutive saturated observations flip
//     the shard to degraded. One calm observation resets the streak, so
//     transient bursts never degrade.
//   - Degraded: the shard keeps 1-in-KeepEvery synopses (same counter
//     convention as trace.Sampler: the 1st, KeepEvery+1st, ... are kept)
//     and sheds the rest, counted exactly in shed_synopses_total. Groups
//     hashed to non-degraded shards are untouched.
//   - Recovery: RecoverAfter consecutive observations at depth <=
//     LowWater×cap flip the shard back. The low-water/high-water gap plus
//     the two streak lengths form the hysteresis band; recovery is
//     observation-driven, so a fully idle shard stays degraded until
//     traffic proves the queue calm (and a degraded idle shard sheds
//     almost nothing, since shedding is per arriving synopsis).
//
// Accounting invariant: offered = Fed() + Shed(), exactly — every synopsis
// offered to Feed/FeedBatch/Emit is either admitted (counted in fed, then
// delivered to its core) or counted shed. Enter/exit transitions land in
// the shard's flight-recorder ring as EventDegradeEnter/EventDegradeExit.

// AdmissionConfig tunes engine admission control. The zero value of any
// field selects its default.
type AdmissionConfig struct {
	// HighWater is the queue-depth fraction (of the shard queue capacity)
	// at or above which a Feed observation counts as saturated. Default
	// 0.9.
	HighWater float64
	// LowWater is the queue-depth fraction at or below which a Feed
	// observation counts as calm while degraded. Default 0.25.
	LowWater float64
	// SaturateAfter is how many consecutive saturated observations flip a
	// shard to degraded. Default 64.
	SaturateAfter int
	// RecoverAfter is how many consecutive calm observations flip a shard
	// back to normal. Default 256.
	RecoverAfter int
	// KeepEvery is the degraded-mode sampling divisor: 1 in KeepEvery
	// synopses is admitted (1 admits everything, disabling shedding but
	// keeping the degraded flag's observability). Default 8.
	KeepEvery int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = 0.9
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.25
	}
	if c.LowWater > c.HighWater {
		c.LowWater = c.HighWater
	}
	if c.SaturateAfter < 1 {
		c.SaturateAfter = 64
	}
	if c.RecoverAfter < 1 {
		c.RecoverAfter = 256
	}
	if c.KeepEvery < 1 {
		c.KeepEvery = 8
	}
	return c
}

// admissionState is a shard's degraded-mode state. Feeders race on the
// streak counters benignly (a lost increment only lengthens a streak by
// one observation); the degraded flag itself transitions through CAS so
// enter/exit side effects run exactly once per transition.
type admissionState struct {
	degraded atomic.Bool
	sat      atomic.Int64  // consecutive saturated observations
	calm     atomic.Int64  // consecutive calm observations while degraded
	keep     atomic.Uint64 // degraded-mode 1-in-N admission counter
}

// WithAdmission enables admission control with the given tuning (zero
// fields take defaults). Without this option the engine never sheds: a
// full shard queue blocks the feeder (pure backpressure), as before.
func WithAdmission(cfg AdmissionConfig) EngineOption {
	return func(o *engineOptions) {
		c := cfg.withDefaults()
		o.admission = &c
	}
}

// admit decides one synopsis's fate against sh's queue. It returns false
// when the synopsis must be shed (already counted); true admits it.
func (e *Engine) admit(sh *shard) bool {
	a := &sh.adm
	depth := len(sh.ch)
	if a.degraded.Load() {
		if depth <= e.admLow {
			if a.calm.Add(1) >= int64(e.admCfg.RecoverAfter) {
				e.exitDegraded(sh, depth)
			}
		} else if a.calm.Load() != 0 {
			a.calm.Store(0)
		}
		// Re-check: the observation above may just have recovered the
		// shard, and that synopsis is admitted like any post-recovery one.
		if a.degraded.Load() {
			if e.admCfg.KeepEvery != 1 && a.keep.Add(1)%uint64(e.admCfg.KeepEvery) != 1 {
				e.shed.Add(1)
				if m := e.m; m != nil {
					m.ShedSynopses.Inc()
				}
				return false
			}
		}
		return true
	}
	if depth >= e.admHigh {
		if a.sat.Add(1) >= int64(e.admCfg.SaturateAfter) {
			e.enterDegraded(sh, depth)
		}
	} else if a.sat.Load() != 0 {
		a.sat.Store(0)
	}
	return true
}

// enterDegraded flips sh into degraded mode; the CAS makes the side
// effects (gauge, transition counter, flight event) once-only when feeders
// race. Cold path: runs at most once per transition.
func (e *Engine) enterDegraded(sh *shard, depth int) {
	a := &sh.adm
	if !a.degraded.CompareAndSwap(false, true) {
		return
	}
	a.sat.Store(0)
	a.calm.Store(0)
	a.keep.Store(0) // deterministic: first degraded synopsis is kept
	n := e.degraded.Add(1)
	if m := e.m; m != nil {
		m.DegradedShards.Set(float64(n))
		m.DegradedTransitions.Inc()
	}
	sh.flight.Record(trace.EventDegradeEnter, 0, 0, uint64(depth), uint64(e.admCfg.KeepEvery))
}

// exitDegraded recovers sh from degraded mode.
func (e *Engine) exitDegraded(sh *shard, depth int) {
	a := &sh.adm
	if !a.degraded.CompareAndSwap(true, false) {
		return
	}
	a.sat.Store(0)
	a.calm.Store(0)
	n := e.degraded.Add(-1)
	if m := e.m; m != nil {
		m.DegradedShards.Set(float64(n))
		m.DegradedTransitions.Inc()
	}
	sh.flight.Record(trace.EventDegradeExit, 0, 0, uint64(depth), e.shed.Load())
}

// Degraded reports whether any shard is currently shedding load.
func (e *Engine) Degraded() bool { return e.degraded.Load() > 0 }

// DegradedShards returns how many shards are currently degraded.
func (e *Engine) DegradedShards() int { return int(e.degraded.Load()) }

// Shed returns how many synopses admission control has shed. The exact
// invariant offered = Fed() + Shed() holds at all times.
func (e *Engine) Shed() uint64 { return e.shed.Load() }
