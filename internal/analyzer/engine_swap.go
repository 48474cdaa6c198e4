package analyzer

import (
	"slices"

	"saad/internal/trace"
)

// Hot model swap: SwapModel rides the same quiesce control plane as the
// engine's snapshot operations, so the cutover needs no new locks and
// cannot drop or reorder synopses. The swap command travels each shard's
// FIFO data channel; every synopsis enqueued before the swap is therefore
// judged by the old model, every synopsis enqueued after by the new one,
// and per-group FIFO is untouched because group-to-shard routing does not
// depend on the model.

// SwapModel atomically replaces the serving model on every shard and
// returns the anomalies of the windows the swap closed (in canonical
// order; with an anomaly sink attached they go to the sink instead and the
// return is nil, exactly like Flush).
//
// Each shard cuts over at a window boundary: its open windows are closed
// and tested against the OLD model — evidence gathered under one model is
// never judged by another — and a fresh detector core on the new model
// takes ownership of the shard, inheriting the closed-window history and
// late-synopsis accounting so reporting and checkpoints stay continuous
// across the swap.
//
// Like the other control-plane methods, SwapModel serializes on the
// engine's control mutex, so it is safe from any goroutine — a lifecycle
// auto-promotion firing on a stream handler cannot interleave with a
// checkpoint or a second swap. Concurrent feeders are safe and simply
// queue behind the swap. The model must not be mutated after the call (its
// interning index becomes shared read-only across shards).
func (e *Engine) SwapModel(model *Model) []Anomaly {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	model.ensureIndex()
	parts := gather(e, func(_ int, sh *shard) []Anomaly {
		part := e.flushShard(sh)
		fresh := NewDetector(model)
		fresh.stats = sh.core.stats
		fresh.late = sh.core.late
		fresh.metrics = sh.core.metrics
		fresh.flight = sh.core.flight
		fresh.retainCopy = sh.core.retainCopy
		sh.core = fresh
		// Recorded inside the quiesce fn, i.e. on the shard worker
		// goroutine, right at the cutover point: the flight ring shows the
		// swap exactly between the last old-model and first new-model
		// verdicts.
		sh.flight.Record(trace.EventModelSwap, 0, 0, 0, 0)
		return part
	})
	// Safe to write outside the quiesce: e.model is only touched by
	// control-plane methods (WriteCheckpoint, Model), which hold e.ctl like
	// this one; the data path never reads it.
	e.model = model
	if e.sink != nil {
		return nil
	}
	out := slices.Concat(parts...)
	sortAnomalies(out)
	return out
}
