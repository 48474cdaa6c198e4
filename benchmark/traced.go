package main

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// shardLoad is one engine shard's counters over a traced run.
type shardLoad struct {
	busy      time.Duration
	synopses  uint64
	overflows uint64
}

// shardLoads reads the per-shard series of the traced pipeline's engines.
func (p *pipeline) shardLoads() []shardLoad {
	var out []shardLoad
	for i, e := range p.engines {
		m := p.engineMetrics[i]
		for sh := 0; sh < e.Shards(); sh++ {
			label := strconv.Itoa(sh)
			out = append(out, shardLoad{
				busy:      time.Duration(m.ShardBusyNanos.With(label).Value()),
				synopses:  m.ShardSynopses.With(label).Value(),
				overflows: m.ShardOverflows.With(label).Value(),
			})
		}
	}
	return out
}

// ledgerLayers names the isolated legs whose costs add up to one synopsis'
// journey through the workload's shape. The engine and peer legs run
// through detection, so the detector is inside them.
func ledgerLayers(s shape) []string {
	switch s {
	case shapeEmbedded:
		return []string{"tracker.task_ns", "analyzer.feed_ns"}
	case shapeFleet:
		return []string{"tracker.task_ns", "federation.route_ns", "synopsis.encode_ns", "stream.socket_ns",
			"synopsis.decode_ns", "synopsis.pool_ns", "federation.peer_batch_ns"}
	default:
		return []string{"tracker.task_ns", "synopsis.encode_ns", "stream.socket_ns",
			"synopsis.decode_ns", "synopsis.pool_ns", "analyzer.route_ns"}
	}
}

// perLayer is the --trace 1 run: an untraced baseline of the workload, every
// isolated leg, then the same pipeline traced. No end-to-end metric is
// reported from here.
func perLayer(s spec, o options, w io.Writer) (*result, error) {
	passes, minLegs := 3, 2
	if o.quick {
		passes, minLegs = 1, 1
	}
	in, err := setUp(o.seed, o.minutes(), s.faulted, s.servers())
	if err != nil {
		return nil, err
	}
	other, err := newLap(o.seed, o.minutes(), !s.faulted)
	if err != nil {
		return nil, err
	}
	li := layerInputs{model: in.model, clean: in.lap, faulted: other, passes: passes, timeout: o.barrierTimeout}
	if s.faulted {
		li.clean, li.faulted = other, in.lap
	}

	// A third of the time each for the baseline and the traced pipeline;
	// the isolated legs are fixed work and take the rest.
	budget := time.Duration(o.seconds / 3 * float64(time.Second))
	base, err := replayWorkload(s, in, o, budget, minLegs, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced baseline: %w", err)
	}
	readFingerprint().header(w, o, base.late.laps, len(base.legs))
	res := newResult(w, base.verdict)
	values := make(map[string]float64)
	add := func(name string, value float64, unit, note string) {
		values[name] = value
		res.add(name, value, unit, note)
	}

	records := float64(base.verdict.offered)
	if base.totals.frames > 0 {
		li.recordsPerFrame = records / float64(base.totals.frames)
	}
	if err := layers(li, add); err != nil {
		return nil, fmt.Errorf("isolated legs: %w", err)
	}
	add("stream.records_per_frame", li.recordsPerFrame, "count", "mean batch frame the workload's links wrote, untraced")
	add("analyzer.train_ms", in.trainMs, "ms", "analyzer.Train on the training trace")
	add("analyzer.checkpoint_ms", base.early.checkpointMs, "ms", fmt.Sprintf("Engine.WriteCheckpoint to io.Discard after %d laps", base.early.laps))
	add("analyzer.checkpoint_bytes", base.early.checkpointBytes, "B", fmt.Sprintf("after %d laps", base.early.laps))
	growth := 0.0
	if base.late.laps > base.early.laps {
		growth = (base.late.checkpointBytes - base.early.checkpointBytes) / float64(base.late.laps-base.early.laps)
	}
	add("analyzer.checkpoint_growth", growth, "B", fmt.Sprintf("per lap, up to lap %d: state must not grow with laps", base.late.laps))
	timings(add, base.legs)
	pacing(res, s, o, base.legs)
	add("pipeline.peak_rss_mb", slices.Max(perLeg(base.legs, legRSS)), "MiB", "highest resident set at a leg's end, untraced; set-up's garbage included")
	add("pipeline.heap_growth", (base.late.heapMiB-base.early.heapMiB)*1024/float64(max(1, base.late.laps-base.early.laps)), "KiB", fmt.Sprintf("reachable heap gained per lap between lap %d and lap %d", base.early.laps, base.late.laps))

	// The ledger: what the layers add up to against what the pipeline cost.
	var sum float64
	for _, name := range ledgerLayers(s.shape) {
		sum += values[name]
	}
	e2eCPU := median(perLeg(base.legs, legCPU))
	add("ledger.sum_layers_ns", sum, "ns", fmt.Sprintf("sum of %v", ledgerLayers(s.shape)))
	add("ledger.e2e_cpu_ns", e2eCPU, "ns", fmt.Sprintf("untraced cpu per synopsis, median of %d legs", len(base.legs)))
	add("ledger.residual_share", (e2eCPU-sum)/e2eCPU, "ratio", "share of the end-to-end cost no isolated leg accounts for")

	tr := newTracer()
	traced, err := replayWorkload(s, in, o, budget, minLegs, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	res.merge(traced.verdict)
	spans, h := tr.collect(s.shape != shapeEmbedded)
	if h.incomplete > 0 {
		res.problem(fmt.Sprintf("%d sampled tasks never reached the release hook", h.incomplete))
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	lag := sorted(h.lagNs)
	pmax, lagMax := topPercentile(lag)
	add("pipeline.hop_emit_ns", mean(h.emitNs), "ns", fmt.Sprintf("mean Sink.Emit call over %d sampled tasks", len(h.emitNs)))
	add("pipeline.hop_wire_p50_ms", ms(medianOrZero(h.wireNs)), "ms", "emit return to delivery at the server's sink: batching wait, encode, socket, decode")
	add("pipeline.hop_route_ns", h.routeNs, "ns", "delivery call into the engine or peer, per delivered record")
	add("pipeline.hop_queue_detect_p50_ms", ms(medianOrZero(h.queueDetect)), "ms", "delivery call return to release hook")
	add("pipeline.lag_p50_ms", ms(quantile(lag, 0.5)), "ms", "chunk due to release hook")
	add("pipeline.lag_p99_ms", ms(quantile(lag, 0.99)), "ms", "chunk due to release hook")
	add("pipeline.lag_pmax_ms", ms(lagMax), "ms", fmt.Sprintf("p%g, the highest percentile with 10 samples beyond it", pmax))
	add("pipeline.lag_pmax", pmax, "%", "which percentile lag_pmax_ms is")
	add("pipeline.lag_samples", float64(len(lag)), "count", "sampled tasks followed end to end")
	var gcCount, gcPause float64
	for _, l := range traced.legs {
		gcCount += float64(l.gcCount)
		gcPause += float64(l.gcPause)
	}
	add("pipeline.gen_late_p99_ms", genLateP99(traced.legs), "ms", "how far behind its schedule the paced generator started a chunk")
	add("pipeline.gc_count", gcCount, "count", "collections during the traced legs")
	add("pipeline.gc_pause_ms", ms(gcPause), "ms", "stop-the-world time during the traced legs")
	tracedCPU := median(perLeg(traced.legs, legCPU))
	add("pipeline.trace_overhead_share", (tracedCPU-e2eCPU)/e2eCPU, "ratio", "traced over untraced cpu per synopsis, minus one")

	var busyMax, synMax, synSum, overflows float64
	for _, sh := range traced.shards {
		busyMax = max(busyMax, float64(sh.busy))
		synMax = max(synMax, float64(sh.synopses))
		synSum += float64(sh.synopses)
		overflows += float64(sh.overflows)
	}
	add("analyzer.shard_busy_share_max", busyMax/float64(traced.wall), "ratio", "busiest shard's busy time over the traced run's wall time")
	add("analyzer.shard_skew", synMax/(synSum/float64(len(traced.shards))), "ratio", "busiest shard's synopses over the mean shard's")
	add("analyzer.overflows", overflows, "count", "feeds that found a shard queue full")
	add("analyzer.windows_closed", float64(traced.totals.windows), "count", "traced run")
	add("analyzer.anomalies", float64(len(traced.totals.anomalies)), "count", "traced run")
	add("analyzer.late", float64(traced.totals.late), "count", "traced run")
	add("federation.forwards", float64(traced.totals.forwards), "count", "must be 0 on a steady ring")
	add("federation.parked", float64(traced.totals.parked), "count", "records parked by a rebalance")

	base.verdict.report(w)
	traced.verdict.report(w)
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %d spans to %s\n", len(spans), o.traceOut)
	}
	return res, nil
}
