package analyzer

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/trace"
)

// Engine is the concurrent analyzer: any number of goroutines feed it, and
// one worker goroutine owns a single-threaded Detector core behind a bounded
// FIFO queue. The queue keeps every feeder's order, so every window sees
// exactly the synopses — in exactly the order — a Detector fed the same
// stream would have seen; Drain and Flush sort anomalies, and WindowHistory
// the closed windows, into a canonical order so output is reproducible
// whatever the feeders' interleaving.
//
// Concurrency contract: Feed, FeedBatch and Emit are safe from any number
// of goroutines. The control-plane methods (Model, SwapModel, Drain, Flush,
// WindowHistory, PendingTasks, WriteCheckpoint, Close) serialize on an
// internal mutex, so they too are safe from any goroutine — an
// auto-promoted SwapModel from a stream handler cannot interleave with a
// checkpoint tick. Quiescent ones (Flush, Close) should still run only
// after feeders have stopped or between their calls — a concurrent feeder
// would only queue behind them, not corrupt anything, but the snapshot
// would be ambiguous. The readers an operator polls (Fed, ShardStats,
// LateSynopses) take no lock and queue nothing: they answer while the
// worker is busy or stuck.
//
// Overload has one answer: a full queue blocks the feeder (DESIGN §14), so
// nothing offered is ever dropped and Fed counts all of it.
//
// What holds the contract (DESIGN §11): every field two goroutines touch is
// a sync/atomic type (go vet's copylocks refuses a copy; the -race run of
// the engine tests watches the rest); the feed path allocates nothing and
// reads no clock unless tracing or metrics ask (TestFeedBatchAllocs, with
// and without the metrics bundle); the polled readers are held to 100 ms
// against a blocked sink (TestShardCountsAnswerWhileSinkBlocks).
type Engine struct {
	// ctl serializes the control-plane methods against each other; model is
	// only read or written with ctl held (the worker never touches it — the
	// core holds its own reference).
	ctl    sync.Mutex
	model  *Model
	closed atomic.Bool

	// fed counts synopses accepted by Feed/FeedBatch/Emit.
	fed atomic.Uint64

	ch   chan workerMsg
	done chan struct{}
	// core is owned by the worker goroutine; control functions reach it on
	// the worker (quiesce), and after Close on the caller.
	core *Detector
	// out buffers what closed windows emitted between Drain calls; only the
	// worker appends, only control functions consume.
	out []Anomaly

	// observed (synopses the core consumed), late (of those, dropped as
	// late) and pending (tasks in the core's open windows) are the counts as
	// of the last message the worker finished: it publishes them once per
	// message, so ShardStats and LateSynopses read them without queueing
	// anything behind a worker that may be stuck in the anomaly sink.
	observed, late atomic.Uint64
	pending        atomic.Int64

	sink   func([]Anomaly)
	m      *metrics.AnalyzerMetrics
	tracer *trace.Tracer
	// flight is the engine's flight-recorder ring (nil when tracing is off):
	// the worker records sampled arrivals, the core window opens/closes and
	// late drops.
	flight *trace.FlightRing

	// The worker's series of the per-shard metric families, under shard "0";
	// nil without a metrics bundle.
	synopses  *metrics.Counter
	busy      *metrics.Counter
	overflows *metrics.Counter
	depth     *metrics.Gauge

	// release, when set, is called exactly once for every synopsis the
	// engine is done with, after the core observed it. The core runs in
	// clone-on-retain mode so no example kept for an anomaly report aliases
	// a released (and possibly recycled) synopsis.
	release func(*synopsis.Synopsis)
	// releaseBatch, when set, replaces per-record release for whole batch
	// messages: one call recycles the batch under a single free-list lock.
	releaseBatch func([]*synopsis.Synopsis)
}

// workerMsg carries one synopsis, one FeedBatch call's records or a control
// function through the one FIFO queue; a control function therefore runs
// after everything queued before it, with exclusive access to the core.
type workerMsg struct {
	syn *synopsis.Synopsis
	buf *feedBuf
	ctl *control
}

// control is a control message's payload: cmd runs on the worker, which
// then signals done when it is set.
type control struct {
	cmd  func()
	done chan<- struct{}
}

// feedBuf holds the records of one FeedBatch call, copied out of the
// caller's slice, until the worker has observed them; the worker then
// returns it, every slot nil again, to feedBufs.
type feedBuf struct {
	recs []*synopsis.Synopsis
}

// feedBufs holds idle feed buffers for every engine in the process. A
// sync.Pool rather than a free list on the engine: the collector empties
// it, so buffers grown for a burst do not outlive it (see DESIGN §15 for the
// measurement).
var feedBufs = sync.Pool{New: func() any { return new(feedBuf) }}

// getFeedBuf returns an idle buffer of n slots, all nil.
func getFeedBuf(n int) *feedBuf {
	fb := feedBufs.Get().(*feedBuf)
	if cap(fb.recs) < n {
		// Doubling keeps a buffer that meets slowly growing batches from
		// being re-made for each.
		fb.recs = make([]*synopsis.Synopsis, max(n, 2*cap(fb.recs)))
	}
	fb.recs = fb.recs[:n]
	return fb
}

// put forgets the buffer's records and returns it to feedBufs.
func (fb *feedBuf) put() {
	clear(fb.recs)
	feedBufs.Put(fb)
}

// EngineOption configures NewEngine.
type EngineOption func(*engineOptions)

type engineOptions struct {
	queueCap     int
	metrics      *metrics.AnalyzerMetrics
	sink         func([]Anomaly)
	tracer       *trace.Tracer
	release      func(*synopsis.Synopsis)
	releaseBatch func([]*synopsis.Synopsis)
}

// WithShardQueue sets the worker's queue capacity (default 1024). A feeder
// hitting a full queue blocks (backpressure) and the overflow counter
// increments.
func WithShardQueue(n int) EngineOption {
	return func(o *engineOptions) { o.queueCap = n }
}

// WithEngineMetrics attaches a metrics bundle: shared detector families
// plus the worker's queue depth, busy time, throughput and overflow series
// (labelled shard "0").
func WithEngineMetrics(m *metrics.AnalyzerMetrics) EngineOption {
	return func(o *engineOptions) { o.metrics = m }
}

// WithAnomalySink routes every anomaly batch a closed window produces to
// fn, called from the worker goroutine. Without a sink, anomalies buffer
// inside the engine until Drain or Flush. With a sink they are delivered
// immediately — in the detector's deterministic per-window order — and
// Drain returns nothing.
func WithAnomalySink(fn func([]Anomaly)) EngineOption {
	return func(o *engineOptions) { o.sink = fn }
}

// WithEngineTracer attaches pipeline tracing: sampled synopsis spans get
// their Enqueue/Detect/Done stamps and are published to the tracer on
// completion, and the worker records flight-recorder events (arrivals,
// window opens/closes, late drops, model swaps) to the tracer's engine
// ring. A nil tracer (the default) reduces every touch point to one nil
// check.
func WithEngineTracer(t *trace.Tracer) EngineOption {
	return func(o *engineOptions) { o.tracer = t }
}

// WithSynopsisRelease registers fn as the engine's synopsis free-list hook
// (typically synopsis.Pool.Put): it is called exactly once per fed synopsis,
// on the worker after the core observed it, so a zero-allocation receive
// path can recycle record structs. The engine automatically switches its
// detector core to clone-on-retain: any synopsis kept as an anomaly example
// is deep-copied first, so recycling can never corrupt a report.
func WithSynopsisRelease(fn func(*synopsis.Synopsis)) EngineOption {
	return func(o *engineOptions) { o.release = fn }
}

// WithSynopsisReleaseBatch registers fn (typically synopsis.Pool.PutN) as
// the bulk variant of the release hook: whole batch messages are recycled
// with one call instead of one per record, so free-list synchronization
// amortizes across the batch. Use it alongside WithSynopsisRelease, which
// still covers single-record feeds; the exactly-once contract is unchanged —
// every fed synopsis reaches exactly one hook.
func WithSynopsisReleaseBatch(fn func([]*synopsis.Synopsis)) EngineOption {
	return func(o *engineOptions) { o.releaseBatch = fn }
}

// NewEngine returns a running engine for the trained model. The model must
// not be mutated afterwards (its interning index is shared read-only).
func NewEngine(model *Model, opts ...EngineOption) *Engine {
	return newEngine(NewDetector(model), opts...)
}

// newEngine starts the worker on core, which it owns from then on.
func newEngine(core *Detector, opts ...EngineOption) *Engine {
	o := engineOptions{queueCap: 1024}
	for _, opt := range opts {
		opt(&o)
	}
	if o.queueCap < 1 {
		o.queueCap = 1
	}
	e := &Engine{
		model:        core.model,
		ch:           make(chan workerMsg, o.queueCap),
		done:         make(chan struct{}),
		core:         core,
		sink:         o.sink,
		m:            o.metrics,
		tracer:       o.tracer,
		release:      o.release,
		releaseBatch: o.releaseBatch,
	}
	// Given one hook, derive the other: the worker releases whole batch
	// messages through releaseBatch and single-record feeds through release,
	// exactly once either way. Only the worker calls either.
	switch {
	case e.release == nil && e.releaseBatch != nil:
		rb := e.releaseBatch
		one := make([]*synopsis.Synopsis, 1)
		e.release = func(s *synopsis.Synopsis) {
			one[0] = s
			rb(one)
		}
	case e.releaseBatch == nil && e.release != nil:
		r := e.release
		e.releaseBatch = func(batch []*synopsis.Synopsis) {
			for _, s := range batch {
				r(s)
			}
		}
	}
	if m := o.metrics; m != nil {
		e.synopses = m.ShardSynopses.With("0")
		e.busy = m.ShardBusyNanos.With("0")
		e.overflows = m.ShardOverflows.With("0")
		e.depth = m.ShardQueueDepth.With("0")
		core.SetMetrics(m)
	}
	if t := o.tracer; t != nil {
		e.flight = t.EngineRing()
		core.SetFlight(e.flight)
	}
	if e.release != nil {
		core.SetRetainCopy(true)
	}
	e.publish(0) // a restored core's late and open-task counts, readable at once
	go e.run()
	return e
}

// run is the worker loop: it owns the core until the channel closes.
func (e *Engine) run() {
	defer close(e.done)
	timed := e.busy != nil
	for msg := range e.ch {
		var start time.Time
		fed := 0
		if timed {
			// Wall-clock reads happen only when shard_busy_nanos metrics
			// are enabled, and measure real elapsed time by design.
			start = time.Now()
		}
		switch {
		case msg.syn != nil:
			fed = 1
			e.observe(msg.syn)
			if e.release != nil {
				e.release(msg.syn)
			}
		case msg.buf != nil:
			recs := msg.buf.recs
			fed = len(recs)
			for _, s := range recs {
				e.observe(s)
			}
			if e.releaseBatch != nil {
				e.releaseBatch(recs[:fed:fed])
			}
			msg.buf.put()
		case msg.ctl != nil:
			msg.ctl.cmd()
		}
		if timed {
			e.busy.Add(uint64(time.Since(start)))
			e.depth.Set(float64(len(e.ch)))
		}
		// Before done is signalled: whoever waited on a control message
		// reads counts that include it.
		e.publish(fed)
		if msg.ctl != nil && msg.ctl.done != nil {
			msg.ctl.done <- struct{}{}
		}
	}
}

// publish adds fed to the consumed count and copies the core's late and
// open-task counts to where ShardStats and LateSynopses read them. Only the
// goroutine that owns the core calls it.
func (e *Engine) publish(fed int) {
	e.observed.Add(uint64(fed))
	e.late.Store(e.core.late)
	e.pending.Store(int64(e.core.pending))
}

func (e *Engine) observe(s *synopsis.Synopsis) {
	e.synopses.Inc()
	if sp := s.Trace; sp != nil {
		sp.Detect = time.Now().UnixNano()
	}
	if out := e.core.Feed(s); len(out) > 0 {
		if e.sink != nil {
			e.sink(out)
		} else {
			e.out = append(e.out, out...)
		}
	}
	if sp := s.Trace; sp != nil {
		e.traceDone(sp)
	}
}

// traceDone finishes a sampled span after the detector's verdict: it stamps
// Done, records the arrival in the flight ring, publishes the span (now
// immutable) to the tracer, and observes the end-to-end detection latency
// histogram for the span's stage. It runs on the worker goroutine and is
// deliberately not a hot-path function: it executes once per SAMPLED
// synopsis, so wall-clock reads and the label lookup are off the unsampled
// fast path entirely.
func (e *Engine) traceDone(sp *trace.Span) {
	sp.Done = time.Now().UnixNano()
	e.flight.Record(trace.EventSynopsis, sp.Stage, sp.Host, sp.TaskID, uint64(sp.QueueWait()))
	e.tracer.SpanDone(sp)
	if m := e.m; m != nil && m.DetectionLatency != nil {
		if total := sp.Total(); total > 0 {
			m.DetectionLatency.With(strconv.Itoa(int(sp.Stage))).Observe(float64(total) / 1e9)
		}
	}
}

// send enqueues with backpressure: a full queue blocks the feeder and is
// counted as an overflow — the worker is behind what is offered.
func (e *Engine) send(msg workerMsg) {
	select {
	case e.ch <- msg:
	default:
		e.overflows.Inc()
		e.ch <- msg
	}
	if e.depth != nil {
		e.depth.Set(float64(len(e.ch)))
	}
}

// Feed queues one synopsis. Safe for concurrent use. Unlike Detector.Feed it
// returns nothing: anomalies surface via Drain, Flush, or the
// WithAnomalySink callback.
//
// Feed queues the record itself (workerMsg's syn arm) rather than a
// one-record batch: on the embedded workload routing it as a batch cost
// ≈ 45% more CPU per synopsis (DESIGN §15).
func (e *Engine) Feed(s *synopsis.Synopsis) {
	e.fed.Add(1)
	if sp := s.Trace; sp != nil {
		sp.Enqueue = time.Now().UnixNano()
	}
	e.send(workerMsg{syn: s})
}

// stampEnqueue marks a sampled span's hand-over to the queue; *now caches
// the one clock read a whole batch shares.
func stampEnqueue(s *synopsis.Synopsis, now *int64) {
	if sp := s.Trace; sp != nil {
		if *now == 0 {
			*now = time.Now().UnixNano()
		}
		sp.Enqueue = *now
	}
}

// FeedBatch queues a batch as one message, allocating nothing once the feed
// buffers are warm: the records are copied, in order, into one recycled
// buffer the worker returns after observing them. The engine takes the
// records and borrows the slice: it is neither mutated nor kept, so the
// caller may reuse it as soon as the call returns.
func (e *Engine) FeedBatch(batch []*synopsis.Synopsis) {
	if len(batch) == 0 {
		return
	}
	fb := getFeedBuf(len(batch))
	var now int64
	for i, s := range batch {
		stampEnqueue(s, &now)
		fb.recs[i] = s
	}
	e.fed.Add(uint64(len(batch)))
	e.send(workerMsg{buf: fb})
}

// Emit implements tracker.Sink, so the engine can terminate any synopsis
// transport directly — each TCP connection handler feeds it concurrently.
func (e *Engine) Emit(s *synopsis.Synopsis) { e.Feed(s) }

// EmitBatch implements stream.BatchSink: a v2 TCP connection hands each
// decoded frame over in one call, so the channel send amortizes across the
// whole frame. Ownership of the synopses passes to the engine; the slice
// stays the caller's (FeedBatch).
func (e *Engine) EmitBatch(batch []*synopsis.Synopsis) { e.FeedBatch(batch) }

// Fed returns how many synopses the engine accepted: every one offered.
func (e *Engine) Fed() uint64 { return e.fed.Load() }

// Shed is always 0: the engine drops nothing it is offered. It stays only
// because benchmark/pipeline.go:377 still adds it to the synopses its oracle
// counts as lost, and goes with the next benchmark-only change.
func (e *Engine) Shed() uint64 { return 0 }

// Closed reports whether Close has been called. Feeding a closed engine
// panics; the inspection methods keep working (inline on the caller).
func (e *Engine) Closed() bool { return e.closed.Load() }

// Shards is always 1, the one worker. It stays only because
// benchmark/traced.go still reads the shard series by it, and goes with the
// next benchmark-only change.
func (e *Engine) Shards() int { return 1 }

// Model returns a deep copy of the trained model the core currently serves
// (defensive, like Detector.Model: the live model's interning index is
// shared read-only and must never be mutated). Safe for concurrent use —
// SwapModel replaces the model under the same control mutex.
func (e *Engine) Model() *Model {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	return e.model.Clone()
}

// quiesce runs fn with the worker parked: the control message traverses the
// same FIFO queue as data, so fn observes everything enqueued before the
// quiesce began and has the core to itself. fn runs on the worker
// goroutine; after Close the core is owned by no goroutine and fn runs
// inline.
func (e *Engine) quiesce(fn func()) {
	if e.closed.Load() {
		fn()
		e.publish(0)
		return
	}
	done := make(chan struct{})
	// Blocking send, not e.send: a control message on a full queue is
	// backpressure by design, not a feed overflow worth counting.
	e.ch <- workerMsg{ctl: &control{cmd: fn, done: done}}
	<-done
}

// cmpGroup is the (host, stage) order of everything the analyzer emits
// group by group: anomalies, window history, checkpoints, exports.
func cmpGroup(aHost uint16, aStage logpoint.StageID, bHost uint16, bStage logpoint.StageID) int {
	return cmp.Or(cmp.Compare(aHost, bHost), cmp.Compare(aStage, bStage))
}

// Drain processes everything queued so far and returns the anomalies
// buffered since the last Drain/Flush, in canonical order. With an anomaly
// sink attached it still acts as a barrier (all queued synopses observed)
// but returns nil.
func (e *Engine) Drain() []Anomaly {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	var out []Anomaly
	e.quiesce(func() { out, e.out = e.out, nil })
	sortAnomalies(out)
	return out
}

// flushCore closes the core's open windows and returns their anomalies
// behind the ones it had buffered, in canonical order; with an anomaly sink
// attached the windows' anomalies go to the sink. It runs under quiesce.
func (e *Engine) flushCore() []Anomaly {
	out := e.out
	e.out = nil
	if fl := e.core.Flush(); len(fl) > 0 {
		if e.sink != nil {
			e.sink(fl)
		} else {
			out = append(out, fl...)
		}
	}
	sortAnomalies(out)
	return out
}

// Flush closes all open windows and returns their anomalies together with
// any buffered ones, in canonical order. Call at end of stream. With an
// anomaly sink attached, flush anomalies go to the sink.
func (e *Engine) Flush() []Anomaly {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	var out []Anomaly
	e.quiesce(func() { out = e.flushCore() })
	return out
}

// WindowHistory returns the closed-window statistics sorted by host, stage,
// then window start.
func (e *Engine) WindowHistory() []WindowStats {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	var all []windowEntry
	e.quiesce(func() { all = slices.Clone(e.core.stats) })
	slices.SortStableFunc(all, func(a, b windowEntry) int {
		return cmp.Or(cmpGroup(a.host, a.stage, b.host, b.stage), cmp.Compare(a.start, b.start))
	})
	return unpackHistory(all)
}

// PendingTasks counts tasks in still-open windows.
func (e *Engine) PendingTasks() int {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	var n int
	e.quiesce(func() { n = e.core.PendingTasks() })
	return n
}

// LateSynopses counts dropped late arrivals, from the count the worker
// publishes (see ShardStats).
func (e *Engine) LateSynopses() uint64 { return e.late.Load() }

// ShardStat is the worker's live load snapshot for heartbeats.
type ShardStat struct {
	// Shard is always 0, the one worker.
	Shard    int
	QueueLen int
	QueueCap int
	// Fed is the number of synopses the core consumed.
	Fed uint64
	// Pending is the core's open-window task count.
	Pending int
}

// ShardStats snapshots the worker's load as one entry. It reads what the
// worker published after the last message it finished, sends nothing
// through the queue and takes no lock, so it answers at once however busy —
// or stuck, in a blocked anomaly sink — the worker is: reading state never
// parks the data path. Fed, Pending and LateSynopses therefore trail
// whatever is still queued; once a barrier (Drain, Flush, any quiescing
// call) has returned they are exact.
func (e *Engine) ShardStats() []ShardStat {
	return []ShardStat{{
		QueueLen: len(e.ch),
		QueueCap: cap(e.ch),
		Fed:      e.observed.Load(),
		Pending:  int(e.pending.Load()),
	}}
}

// WriteCheckpoint serializes the engine in the detector checkpoint format,
// with the closed-window history in (host, stage, window) order rather than
// close order. ReadCheckpoint/ReadEngineCheckpoint both accept the result.
func (e *Engine) WriteCheckpoint(w io.Writer) (int64, error) {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	out := checkpointJSON{Version: checkpointVersion, Model: e.model.toJSON()}
	e.quiesce(func() {
		out.Windows = e.core.windowsJSON()
		out.History = e.core.historyJSON()
		out.Late = e.core.late
	})
	slices.SortStableFunc(out.History, func(a, b windowStatsJSON) int {
		return cmp.Or(cmpGroup(a.Host, a.Stage, b.Host, b.Stage), cmp.Compare(a.WindowUnixNs, b.WindowUnixNs))
	})
	return writeCheckpointJSON(w, out)
}

// WriteCheckpointFile atomically persists the engine checkpoint at path
// (WriteFileAtomic, as Detector.WriteCheckpointFile).
func (e *Engine) WriteCheckpointFile(path string) error {
	return WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		_, err := e.WriteCheckpoint(w)
		return err
	})
}

// NewEngineFromDetector lifts a single detector — typically one restored
// via ReadCheckpoint/LoadCheckpointFile — into a running engine: the
// detector becomes the engine's core, open windows, history and late count
// included. The detector must not be used afterwards.
func NewEngineFromDetector(d *Detector, opts ...EngineOption) *Engine {
	return newEngine(d, opts...)
}

// ReadEngineCheckpoint rebuilds a running engine from any checkpoint
// written by Detector.WriteCheckpoint or Engine.WriteCheckpoint — the two
// formats are identical, so a deployment moves freely between a Detector
// and an Engine across restarts.
func ReadEngineCheckpoint(r io.Reader, opts ...EngineOption) (*Engine, error) {
	d, err := ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return NewEngineFromDetector(d, opts...), nil
}

// LoadEngineCheckpointFile rebuilds a running engine from a checkpoint
// file.
func LoadEngineCheckpointFile(path string, opts ...EngineOption) (*Engine, error) {
	d, err := LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	return NewEngineFromDetector(d, opts...), nil
}

// Close stops the worker after its queue drains. Feeding after (or
// concurrently with) Close panics on the closed channel by design — stop
// feeders first. Open windows are NOT flushed; call Flush before Close (or
// WriteCheckpoint to carry them across a restart).
func (e *Engine) Close() error {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.ch)
	// Still under e.ctl: a control call let in before the worker has
	// drained would run inline on a core it still owns.
	<-e.done
	return nil
}

// sortAnomalies orders anomalies canonically: host, stage, window, then
// within one window the detector's own emission layers (new-signature flow
// first sorted by signature, then the proportion flow anomaly, then
// performance anomalies sorted by signature) — a detector's output
// re-sorted by group.
func sortAnomalies(out []Anomaly) {
	slices.SortStableFunc(out, func(a, b Anomaly) int {
		return cmp.Or(
			cmpGroup(a.Host, a.Stage, b.Host, b.Stage),
			a.Window.Compare(b.Window),
			cmp.Compare(anomalyRank(a), anomalyRank(b)),
			cmp.Compare(a.Signature, b.Signature),
		)
	})
}

func anomalyRank(a Anomaly) int {
	switch {
	case a.NewSignature:
		return 0
	case a.Kind == FlowAnomaly:
		return 1
	default:
		return 2
	}
}
