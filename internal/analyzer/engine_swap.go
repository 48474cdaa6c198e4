package analyzer

import "saad/internal/trace"

// Hot model swap: SwapModel rides the same quiesce control plane as the
// engine's snapshot operations, so the cutover needs no new locks and
// cannot drop or reorder synopses. The swap command travels the worker's
// FIFO queue; every synopsis enqueued before the swap is therefore judged
// by the old model, every synopsis enqueued after by the new one.

// SwapModel atomically replaces the serving model and returns the anomalies
// of the windows the swap closed (in canonical order; with an anomaly sink
// attached they go to the sink instead and the return is nil, exactly like
// Flush).
//
// The cutover is at a window boundary: the open windows are closed and
// tested against the OLD model — evidence gathered under one model is never
// judged by another — and a fresh detector core on the new model takes over,
// inheriting the closed-window history and late-synopsis accounting so
// reporting and checkpoints stay continuous across the swap.
//
// Like the other control-plane methods, SwapModel serializes on the
// engine's control mutex, so it is safe from any goroutine — a lifecycle
// auto-promotion firing on a stream handler cannot interleave with a
// checkpoint or a second swap. Concurrent feeders are safe and simply
// queue behind the swap. The model must not be mutated after the call (its
// interning index becomes shared read-only).
func (e *Engine) SwapModel(model *Model) []Anomaly {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	model.ensureIndex()
	var out []Anomaly
	e.quiesce(func() {
		out = e.flushCore()
		old := e.core
		fresh := NewDetector(model)
		fresh.hist = old.hist
		fresh.late = old.late
		fresh.metrics = old.metrics
		fresh.flight = old.flight
		fresh.retainCopy = old.retainCopy
		e.core = fresh
		// Recorded on the worker goroutine, right at the cutover point: the
		// flight ring shows the swap exactly between the last old-model and
		// first new-model verdicts.
		e.flight.Record(trace.EventModelSwap, 0, 0, 0, 0)
	})
	// Safe to write outside the quiesce: e.model is only touched by
	// control-plane methods (WriteCheckpoint, Model), which hold e.ctl like
	// this one; the worker never reads it.
	e.model = model
	return out
}
