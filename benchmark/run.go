package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"saad/internal/analyzer"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// options are one invocation's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string

	// barrierTimeout bounds every wait for the engines to catch up; zero
	// means the barrierTimeout constant. Only tests set it.
	barrierTimeout time.Duration
	// withhold, when non-zero, makes generator 0's sink swallow host 1's
	// task of that id. Tests use it to show the oracle fails the run; no
	// flag sets it.
	withhold uint64
}

// minutes is the length of the lap the run replays.
func (o options) minutes() int {
	if o.quick {
		return quickMinutes
	}
	return traceMinutes
}

// inputs are what set-up produces from the seed: the only things the
// program under test ever sees of it.
type inputs struct {
	model *analyzer.Model
	lap   *lap
	// pools are the warmed receive pools, one per stream server.
	pools []*synopsis.Pool
	// trainMs is how long analyzer.Train alone took.
	trainMs float64
}

// setUp generates the traces, trains the model and warms a receive pool for
// each of the workload's servers.
func setUp(seed uint64, minutes int, faulted bool, servers int) (*inputs, error) {
	syns, err := simulate(seed+trainSeedOffset, minutes, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	model, err := analyzer.Train(analyzerConfig(), syns)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainMs := float64(time.Since(t0)) / float64(time.Millisecond)
	l, err := newLap(seed, minutes, faulted)
	if err != nil {
		return nil, err
	}
	in := &inputs{model: model, lap: l, trainMs: trainMs}
	for i := 0; i < servers; i++ {
		in.pools = append(in.pools, newWarmPool())
	}
	return in, nil
}

// timedSetUp sets up reps times and returns the last result with the
// median set-up time in seconds.
func timedSetUp(seed uint64, minutes int, s spec, reps int) (*inputs, float64, error) {
	var in *inputs
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if in, err = setUp(seed, minutes, s.faulted, s.servers()); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// leg is what one leg cost, process-wide.
type leg struct {
	records uint64
	wall    time.Duration
	// genWall is the part of wall the generators took, first Begin to last
	// End: what a paced leg's rate is held against.
	genWall time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCount uint32
	gcPause time.Duration
	// taskNs is the median over the leg's chunks of the generator thread's
	// time per task inside Begin/Hit/End.
	taskNs float64
	// lateNs is, for a paced leg, how late each chunk started.
	lateNs []int64
	rssMiB float64
}

// runner replays the lap through one pipeline, leg after leg.
type runner struct {
	spec    spec
	p       *pipeline
	gens    []*generator
	timeout time.Duration

	nextLap   int
	anomalies []analyzer.Anomaly
}

// newRunner replays shares[g], generator g's records of the lap, into
// p.sinks[g].
func newRunner(s spec, shares [][]record, span time.Duration, p *pipeline, o options) *runner {
	r := &runner{spec: s, p: p, timeout: o.barrierTimeout}
	for g, recs := range shares {
		sink := p.sinks[g]
		if g == 0 && o.withhold != 0 {
			sink = &withholder{next: sink, host: 1, task: o.withhold}
		}
		g := newGenerator(recs, span, sink)
		g.window = p.window
		r.gens = append(r.gens, g)
	}
	return r
}

// offered is every synopsis the trackers have emitted so far.
func (r *runner) offered() uint64 {
	var n uint64
	for _, g := range r.gens {
		n += g.emitted()
	}
	return n
}

// leg replays the next laps laps, at the workload's rate or — rate 0 — as
// fast as the pipeline takes them, and waits until the pipeline has observed
// all of them. The clock runs from the first Begin to the end of the
// barrier.
func (r *runner) leg(laps int, rate float64) (leg, error) {
	for _, g := range r.gens {
		g.chunkNs, g.lateNs = g.chunkNs[:0], g.lateNs[:0]
	}
	offeredBefore := r.offered()
	before := snapshot()
	var wg sync.WaitGroup
	for _, g := range r.gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			g.replay(r.nextLap, r.nextLap+laps, rate/float64(len(r.gens)))
		}(g)
	}
	wg.Wait()
	generated := time.Now()
	r.nextLap += laps
	found, err := r.p.barrier(r.offered(), r.timeout)
	if err != nil {
		return leg{}, err
	}
	after := snapshot()
	r.anomalies = append(r.anomalies, found...)

	out := leg{
		records: r.offered() - offeredBefore,
		wall:    after.at.Sub(before.at),
		genWall: generated.Sub(before.at),
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		gcCount: after.gcCount - before.gcCount,
		gcPause: after.gcPause - before.gcPause,
		rssMiB:  rssMiB(),
	}
	var chunks []float64
	for _, g := range r.gens {
		chunks = append(chunks, floats(g.chunkNs)...)
		out.lateNs = append(out.lateNs, g.lateNs...)
	}
	out.taskNs = median(chunks) / chunkTasks
	return out, nil
}

// state is what the pipeline retains at a fixed point of the replay — after
// the warm-up lap and the last leg every run is sure to have — so it does
// not depend on how many legs the machine managed in the time it was given.
type state struct {
	laps int
	// heapMiB is the heap still reachable after a forced collection, less
	// the idle records in the receive pools: the benchmark's own lap and
	// model, and whatever the program under test holds on to.
	// run.baseHeapMiB is the former alone.
	heapMiB float64
	// offered and wireBytes are the synopses the trackers have emitted and
	// the bytes the links have sent for them by now. Task ids and start times
	// grow with the laps and their varints with them, so bytes per synopsis
	// taken over a whole run would depend on how far the run got.
	offered, wireBytes uint64
	// checkpointBytes and checkpointMs price Engine.WriteCheckpoint, summed
	// over the engines.
	checkpointBytes float64
	checkpointMs    float64
}

// probe reads the pipeline's state. The pipeline must be quiet.
func (r *runner) probe() (state, error) {
	// The heap first: writing a checkpoint leaves a buffer behind.
	st := state{laps: r.nextLap, heapMiB: heapLessPools(r.p.pools), offered: r.offered()}
	if m := r.p.clientMetrics; m != nil {
		st.wireBytes = m.BytesSent.Value()
	}
	for _, e := range r.p.engines {
		t0 := time.Now()
		n, err := e.WriteCheckpoint(io.Discard)
		if err != nil {
			return st, fmt.Errorf("checkpoint: %w", err)
		}
		st.checkpointMs += float64(time.Since(t0)) / float64(time.Millisecond)
		st.checkpointBytes += float64(n)
	}
	return st, nil
}

// heapLessPools forces collection and returns the heap still reachable,
// in MiB, less what the idle records of pools occupy. How many of a pool's
// records a run has touched — and so grown a Points array on — depends on
// how deep the queues behind the server got, which is timing; the records
// are counted out so that what is left is the pipeline's state. Nothing
// may be using the pools.
func heapLessPools(pools []*synopsis.Pool) float64 {
	var idle uintptr
	held := make([]*synopsis.Synopsis, poolCapacity)
	for _, pool := range pools {
		pool.GetN(held) // every idle record; bare ones make up a shortfall
		for _, s := range held {
			idle += unsafe.Sizeof(*s) + uintptr(cap(s.Points))*unsafe.Sizeof(synopsis.PointCount{})
		}
		slices.Reverse(held) // PutN pushes in order: keep the stack's
		pool.PutN(held)
	}
	// Twice: what sits in a sync.Pool survives one collection, and whether
	// something does is a matter of when the last collection ran.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(idle)) / (1 << 20)
}

// measure runs one warm-up lap and then legs of the workload's fixed lap
// count until budget has elapsed, at least minLegs of them. It probes the
// pipeline's state after leg minLegs.
//
// The warm-up lap runs unpaced on every workload: the link's and the
// decoder's buffers grow to the largest batch they have seen, and a daemon
// that has been up for a while has seen a full one. Left to the paced legs,
// whether one occurs before the probe is a matter of scheduling hiccups.
func (r *runner) measure(budget time.Duration, minLegs int) ([]leg, state, error) {
	var st state
	if _, err := r.leg(1, 0); err != nil {
		return nil, st, fmt.Errorf("warm-up lap: %w", err)
	}
	var legs []leg
	for t0 := time.Now(); len(legs) < minLegs || time.Since(t0) < budget; {
		l, err := r.leg(r.spec.lapsPerLeg, r.spec.rate)
		if err != nil {
			return nil, st, fmt.Errorf("leg %d: %w", len(legs)+1, err)
		}
		legs = append(legs, l)
		if len(legs) == minLegs {
			if st, err = r.probe(); err != nil {
				return nil, st, err
			}
		}
	}
	return legs, st, nil
}

// withholder is the deliberately broken sink of the oracle's own test.
type withholder struct {
	next tracker.Sink
	host uint16
	task uint64
}

func (w *withholder) Emit(s *synopsis.Synopsis) {
	if s.Host == w.host && s.TaskID == w.task {
		return
	}
	w.next.Emit(s)
}

// perLeg maps every leg through f.
func perLeg(legs []leg, f func(leg) float64) []float64 {
	out := make([]float64, len(legs))
	for i, l := range legs {
		out[i] = f(l)
	}
	return out
}

// legMetric reports the median over legs of f under name.
func legMetric(report reporter, legs []leg, name, unit string, f func(leg) float64) {
	v := perLeg(legs, f)
	report(name, median(v), unit, fmt.Sprintf("median of %d legs, spread %.1f%%", len(v), 100*spread(v)))
}

// steadyLegMetric reports the lower quartile over legs of f under name. The
// allocation counts have a floor — the path every synopsis takes — and
// bursts above it whenever the receive pool runs dry, which is a matter of
// timing; the lower quartile stays on the floor where the median wanders
// with the number of bursts a run happened to see.
func steadyLegMetric(report reporter, legs []leg, name, unit string, f func(leg) float64) {
	v := sorted(perLeg(legs, f))
	report(name, quantile(v, 0.25), unit, fmt.Sprintf("lower quartile of %d legs, median %.4f, highest %.4f", len(v), quantile(v, 0.5), v[len(v)-1]))
}

// timings reports the untraced pipeline's wall-clock and CPU figures.
func timings(report reporter, legs []leg) {
	legMetric(report, legs, "pipeline.synopses_per_s", "1/s", legRate)
	legMetric(report, legs, "pipeline.cpu_ns_per_synopsis", "ns", legCPU)
	legMetric(report, legs, "pipeline.task_overhead_ns", "ns", legTaskNs)
}

// genLateP99 is the 99th percentile, in ms, of how far behind its schedule a
// paced generator started a chunk; 0 for a closed loop.
func genLateP99(legs []leg) float64 {
	var late []float64
	for _, l := range legs {
		late = append(late, floats(l.lateNs)...)
	}
	return quantileOrZero(sorted(late), 0.99) / 1e6
}

// pacing holds an open-loop workload to its schedule: it prints the rate
// the generators offered and fails the result when the median leg fell more
// than 1% short of the workload's — the machine could not keep up and the
// loop was in effect closed. A -quick leg is a quarter of a second, too
// short to hold to anything.
func pacing(res *result, s spec, o options, legs []leg) {
	if s.rate == 0 {
		return
	}
	offered := median(perLeg(legs, func(l leg) float64 { return float64(l.records) / l.genWall.Seconds() }))
	res.note("pipeline.offered_per_s", offered, "1/s", fmt.Sprintf("records over the generators' own time, median of %d legs; the schedule is %.0f", len(legs), s.rate))
	if !o.quick && offered < 0.99*s.rate {
		res.problem(fmt.Sprintf("%s offered %.0f synopses/s, more than 1%% below its schedule of %.0f: the generator could not keep up", s.name, offered, s.rate))
	}
}

// The per-leg figures the reported medians are taken over.
func legRate(l leg) float64       { return float64(l.records) / l.wall.Seconds() }
func legCPU(l leg) float64        { return float64(l.cpu) / float64(l.records) }
func legAllocs(l leg) float64     { return float64(l.mallocs) / float64(l.records) }
func legAllocBytes(l leg) float64 { return float64(l.bytes) / float64(l.records) }
func legTaskNs(l leg) float64     { return l.taskNs }
func legRSS(l leg) float64        { return l.rssMiB }

// run is the outcome of replaying one workload through one pipeline.
type run struct {
	legs    []leg
	totals  totals
	verdict verdict
	// baseHeapMiB is the reachable heap just before the pipeline was built;
	// early is the pipeline's state after leg minLegs, late at the end.
	baseHeapMiB float64
	early, late state
	// wall is the whole replay, warm-up lap included; shards are the traced
	// run's per-shard counters over it.
	wall   time.Duration
	shards []shardLoad
}

// replayWorkload builds the workload's pipeline, measures it for budget,
// tears it down and checks what it produced against the reference.
func replayWorkload(s spec, in *inputs, o options, budget time.Duration, minLegs int, tr *tracer) (*run, error) {
	shares := make([][]record, s.generators())
	for g := range shares {
		shares[g] = in.lap.share(g, len(shares))
	}
	// What is reachable before the pipeline exists — the lap, the
	// generators' shares of it and the model — is the benchmark's own; it is
	// taken off what is reachable later.
	baseHeap := heapLessPools(in.pools)
	p, err := build(s, in.model, in.pools, tr)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", s.name, err)
	}
	r := newRunner(s, shares, in.lap.span, p, o)
	if tr != nil {
		tr.attach(r.gens)
	}
	started := time.Now()
	legs, early, err := r.measure(budget, minLegs)
	if err != nil {
		_ = p.close()
		return nil, err
	}
	out := &run{legs: legs, baseHeapMiB: baseHeap, early: early, wall: time.Since(started)}
	if tr != nil {
		out.shards = p.shardLoads()
	}
	if out.late, err = r.probe(); err != nil {
		_ = p.close()
		return nil, err
	}
	out.totals = p.finish()
	out.totals.anomalies = append(r.anomalies, out.totals.anomalies...)
	if err := p.close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", s.name, err)
	}
	out.verdict = check(in, r.nextLap, r.offered(), out.totals)
	return out, nil
}

// setUpReps is how often a run sets up to report a median set-up time.
const setUpReps = 3

// endToEnd is the --trace 0 run: the end-to-end metrics, tracing off.
func endToEnd(s spec, o options, w io.Writer) (*result, error) {
	reps, minLegs := setUpReps, 3
	if o.quick {
		reps, minLegs = 1, 1
	}
	in, setupS, err := timedSetUp(o.seed, o.minutes(), s, reps)
	if err != nil {
		return nil, err
	}
	r, err := replayWorkload(s, in, o, time.Duration(o.seconds*float64(time.Second)), minLegs, nil)
	if err != nil {
		return nil, err
	}
	readFingerprint().header(w, o, r.late.laps, len(r.legs))

	res := newResult(w, r.verdict)
	steadyLegMetric(res.add, r.legs, "allocs_per_synopsis", "count", legAllocs)
	steadyLegMetric(res.add, r.legs, "alloc_bytes_per_synopsis", "B", legAllocBytes)
	// The tracker's allocations are exact for a lap, so one pass prices
	// them; what is left is the link's, the server's and the engine's.
	tracker := trackerCost(in.lap, 1)
	steadyLegMetric(res.add, r.legs, "downstream_allocs_per_k", "count", func(l leg) float64 {
		return 1000 * (legAllocs(l) - tracker.allocs)
	})
	wireBytes, wireNote := float64(r.early.wireBytes)/float64(r.early.offered), fmt.Sprintf("client bytes sent over records offered, first %d laps", r.early.laps)
	if s.servers() == 0 {
		syns := materialize(in.lap)
		wireBytes, wireNote = float64(len(encodeLap(syns)))/float64(len(syns)), "nothing is sent here: the size the batch codec gives the lap"
	}
	res.add("wire_bytes_per_synopsis", wireBytes, "B", wireNote)
	res.add("live_heap_mb", r.early.heapMiB-r.baseHeapMiB, "MiB", fmt.Sprintf("reachable heap the pipeline added by lap %d, idle pool records left out: %.2f MiB now, %.2f MiB (lap, model) before it was built", r.early.laps, r.early.heapMiB, r.baseHeapMiB))
	res.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", reps))
	// Wall-clock and CPU figures are per-layer metrics (--trace 1): on a
	// shared machine they do not repeat within any bound worth gating on.
	// They are shown here for the reader, tracing off, and not reported.
	timings(res.note, r.legs)
	if s.rate > 0 {
		res.note("pipeline.gen_late_p99_ms", genLateP99(r.legs), "ms", "how far behind its schedule the paced generator started a chunk")
	}
	pacing(res, s, o, r.legs)
	r.verdict.report(w)
	return res, nil
}
