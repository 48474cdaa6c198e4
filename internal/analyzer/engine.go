package analyzer

import (
	"cmp"
	"io"
	"runtime"
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

// Engine is the sharded concurrent analyzer: it routes synopses across N
// shard workers by hashing the (host, stage) group key, each worker owning
// a private single-threaded Detector core. Because a group lives wholly on
// one shard and each shard consumes its bounded queue in FIFO order, every
// window sees exactly the synopses — in exactly the order — a single
// Detector would have seen, so detection semantics are bit-identical; the
// merge step sorts anomalies and window history into a canonical order so
// output is reproducible regardless of shard interleaving.
//
// Concurrency contract: Feed, FeedBatch and Emit are safe from any number
// of goroutines. The control-plane methods (Model, SwapModel, Drain, Flush,
// WindowHistory, PendingTasks, WriteCheckpoint, Close) serialize on an
// internal mutex, so they too are safe from any goroutine — an
// auto-promoted SwapModel from a stream handler cannot interleave with a
// checkpoint tick. Quiescent ones (Flush, Close) should still run only
// after feeders have stopped or between their calls — the engine briefly
// parks every shard, so a concurrent feeder would only block, not corrupt,
// but the snapshot would be ambiguous. The readers an operator polls (Fed,
// ShardStats, LateSynopses) take no lock and queue nothing: they answer
// while a worker is busy or stuck.
//
// Overload has one answer: a full shard queue blocks the feeder (DESIGN
// §14), so nothing offered is ever dropped and Fed counts all of it.
//
// What holds the contract (DESIGN §11): every field two goroutines touch is
// a sync/atomic type (go vet's copylocks refuses a copy; the -race run of
// the engine tests watches the rest); the feed path allocates nothing and
// reads no clock unless tracing or metrics ask (TestFeedBatchAllocs, with
// and without the metrics bundle); the polled readers are held to 100 ms
// against a blocked sink (TestShardCountsAnswerWhileSinkBlocks).
type Engine struct {
	// ctl serializes the control-plane methods against each other; model is
	// only read or written with ctl held (the shard data path never touches
	// it — each core holds its own reference).
	ctl    sync.Mutex
	model  *Model
	shards []*shard
	mask   uint32 // len(shards)-1 when power of two, else 0 and mod is used
	closed atomic.Bool

	// fed counts synopses accepted by Feed/FeedBatch/Emit across shards.
	fed atomic.Uint64

	// anomalies buffers what closed windows emitted between Drain calls,
	// collected under quiesce so no lock is needed.
	anomalies []Anomaly

	sink   func([]Anomaly)
	m      *metrics.AnalyzerMetrics
	tracer *trace.Tracer

	// release, when set, is called exactly once for every synopsis the
	// engine is done with, after its shard observed it. Cores run in
	// clone-on-retain mode so no example kept for an anomaly report aliases
	// a released (and possibly recycled) synopsis.
	release func(*synopsis.Synopsis)
	// releaseBatch, when set, replaces per-record release for whole batch
	// messages: one call recycles the batch under a single free-list lock.
	releaseBatch func([]*synopsis.Synopsis)

	queueCap int
}

// shard is one worker: a bounded FIFO queue in front of a private core.
type shard struct {
	ch   chan shardMsg
	core *Detector // owned by the worker goroutine between control ops
	done chan struct{}

	// out accumulates anomalies emitted by the core between drains; only
	// the worker goroutine appends, only control fns (on-worker) consume.
	out []Anomaly
	// nfed (synopses the core consumed), late (of those, dropped as late)
	// and pending (tasks in the core's open windows) are the shard's counts
	// as of the last message its worker finished: the worker publishes them
	// once per message, so ShardStats and LateSynopses read them without
	// queueing anything behind a worker that may be stuck in the anomaly
	// sink.
	nfed, late atomic.Uint64
	pending    atomic.Int64

	fed       *metrics.Counter
	busy      *metrics.Counter
	overflows *metrics.Counter
	depth     *metrics.Gauge

	// flight is the shard's flight-recorder ring (nil when tracing is off);
	// the worker goroutine records sampled arrivals, the core records window
	// opens/closes and late drops.
	flight *trace.FlightRing
}

// shardMsg carries either synopses or a control function through the same
// FIFO channel; a control function therefore runs after everything queued
// before it, with exclusive access to the shard's core. Every shard channel
// holds queueCap of these, so the struct stays at 48 bytes: the control
// fields, which data messages never set, share one pointer.
type shardMsg struct {
	syn *synopsis.Synopsis
	// batch is one shard's region of buf, FeedBatch's recycled backing
	// array; the two are set together.
	batch []*synopsis.Synopsis
	buf   *feedBuf
	ctl   *control
}

// control is a control message's payload: cmd runs on the worker, which
// then signals done when it is set.
type control struct {
	cmd  func(core *Detector)
	done chan<- struct{}
}

// feedBuf is the backing array of one FeedBatch call, cut into per-shard
// regions. It is recycled rather than garbage: refs counts the regions
// still queued or being observed (plus the feeder while it queues them),
// and whoever drops the last reference returns the buffer, every slot nil
// again, to feedBufs.
type feedBuf struct {
	recs []*synopsis.Synopsis
	refs atomic.Int32
}

// feedBufs holds idle feed buffers for every engine in the process. A
// sync.Pool rather than a free list on the engine: the collector empties
// it, so buffers grown for a burst do not outlive it (see DESIGN §15 for the
// measurement).
var feedBufs = sync.Pool{New: func() any { return new(feedBuf) }}

// getFeedBuf returns an idle buffer of at least n slots, all nil.
func getFeedBuf(n int) *feedBuf {
	fb := feedBufs.Get().(*feedBuf)
	if cap(fb.recs) < n {
		// Doubling keeps a buffer that meets slowly growing batches from
		// being re-made for each.
		fb.recs = make([]*synopsis.Synopsis, max(n, 2*cap(fb.recs)))
	}
	return fb
}

// done drops one reference. A worker passes the region it is finished with,
// whose records the buffer must forget if the release hook has not already
// cleared them; the feeder passes nil.
func (fb *feedBuf) done(region []*synopsis.Synopsis) {
	clear(region)
	if fb.refs.Add(-1) == 0 {
		feedBufs.Put(fb)
	}
}

// EngineOption configures NewEngine.
type EngineOption func(*engineOptions)

type engineOptions struct {
	shards       int
	queueCap     int
	metrics      *metrics.AnalyzerMetrics
	sink         func([]Anomaly)
	tracer       *trace.Tracer
	release      func(*synopsis.Synopsis)
	releaseBatch func([]*synopsis.Synopsis)
}

// WithShards sets the shard count; n < 1 selects GOMAXPROCS.
func WithShards(n int) EngineOption {
	return func(o *engineOptions) { o.shards = n }
}

// WithShardQueue sets each shard's queue capacity (default 1024). A feeder
// hitting a full queue blocks (backpressure) and the overflow counter
// increments.
func WithShardQueue(n int) EngineOption {
	return func(o *engineOptions) { o.queueCap = n }
}

// WithEngineMetrics attaches a metrics bundle: shared detector families
// plus the per-shard queue depth, busy time, throughput and overflow
// series.
func WithEngineMetrics(m *metrics.AnalyzerMetrics) EngineOption {
	return func(o *engineOptions) { o.metrics = m }
}

// WithAnomalySink routes every anomaly batch a closed window produces to
// fn, called from shard worker goroutines (fn must be safe for concurrent
// use). Without a sink, anomalies buffer inside the engine until Drain or
// Flush. With a sink they are delivered immediately — in the shard's
// deterministic per-window order — and Drain returns nothing.
func WithAnomalySink(fn func([]Anomaly)) EngineOption {
	return func(o *engineOptions) { o.sink = fn }
}

// WithEngineTracer attaches pipeline tracing: sampled synopsis spans get
// their Enqueue/Detect/Done stamps and are published to the tracer on
// completion, and each shard records flight-recorder events (arrivals,
// window opens/closes, late drops, model swaps) to its ring. A nil tracer
// (the default) reduces every touch point to one nil check.
func WithEngineTracer(t *trace.Tracer) EngineOption {
	return func(o *engineOptions) { o.tracer = t }
}

// WithSynopsisRelease registers fn as the engine's synopsis free-list hook
// (typically synopsis.Pool.Put): it is called exactly once per fed synopsis,
// on the shard worker after the core observed it, so a zero-allocation
// receive path can recycle record structs. The engine automatically switches
// its detector cores to clone-on-retain: any synopsis kept as an anomaly
// example is deep-copied first, so recycling can never corrupt a report.
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
// not be mutated afterwards (its interning index is shared read-only by
// every shard).
func NewEngine(model *Model, opts ...EngineOption) *Engine {
	e, _ := newEngine(model, opts...)
	return e
}

func newEngine(model *Model, opts ...EngineOption) (*Engine, *engineOptions) {
	o := engineOptions{queueCap: 1024}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards < 1 {
		o.shards = runtime.GOMAXPROCS(0)
	}
	if o.queueCap < 1 {
		o.queueCap = 1
	}
	e := &Engine{
		model:    model,
		shards:   make([]*shard, o.shards),
		sink:     o.sink,
		m:        o.metrics,
		tracer:   o.tracer,
		release:  o.release,
		queueCap: o.queueCap,
	}
	e.releaseBatch = o.releaseBatch
	// Given one hook, derive the other: the worker releases whole batch
	// messages through releaseBatch and single-record feeds through release,
	// exactly once either way.
	switch {
	case e.release == nil && e.releaseBatch != nil:
		rb := e.releaseBatch
		one := make([]*synopsis.Synopsis, 1)
		var mu sync.Mutex
		e.release = func(s *synopsis.Synopsis) {
			mu.Lock()
			one[0] = s
			rb(one)
			mu.Unlock()
		}
	case e.releaseBatch == nil && e.release != nil:
		r := e.release
		e.releaseBatch = func(batch []*synopsis.Synopsis) {
			for _, s := range batch {
				r(s)
			}
		}
	}
	if o.shards&(o.shards-1) == 0 {
		e.mask = uint32(o.shards - 1)
	}
	for i := range e.shards {
		sh := &shard{
			ch:   make(chan shardMsg, o.queueCap),
			core: NewDetector(model),
			done: make(chan struct{}),
		}
		if m := o.metrics; m != nil {
			label := strconv.Itoa(i)
			sh.fed = m.ShardSynopses.With(label)
			sh.busy = m.ShardBusyNanos.With(label)
			sh.overflows = m.ShardOverflows.With(label)
			sh.depth = m.ShardQueueDepth.With(label)
			sh.core.SetMetrics(m)
		}
		if t := o.tracer; t != nil {
			sh.flight = t.ShardRing(i)
			sh.core.SetFlight(sh.flight)
		}
		if e.release != nil {
			sh.core.SetRetainCopy(true)
		}
		e.shards[i] = sh
		go e.run(sh)
	}
	return e, &o
}

// run is the shard worker loop: it owns the core until the channel closes.
func (e *Engine) run(sh *shard) {
	defer close(sh.done)
	timed := sh.busy != nil
	for msg := range sh.ch {
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
			sh.observe(e, msg.syn)
			if e.release != nil {
				e.release(msg.syn)
			}
		case msg.batch != nil:
			fed = len(msg.batch)
			for _, s := range msg.batch {
				sh.observe(e, s)
			}
			if e.releaseBatch != nil {
				e.releaseBatch(msg.batch)
			}
			msg.buf.done(msg.batch)
		case msg.ctl != nil:
			msg.ctl.cmd(sh.core)
		}
		if timed {
			sh.busy.Add(uint64(time.Since(start)))
			sh.depth.Set(float64(len(sh.ch)))
		}
		// Before done is signalled: whoever waited on a control message
		// reads counts that include it.
		sh.publish(fed)
		if msg.ctl != nil && msg.ctl.done != nil {
			msg.ctl.done <- struct{}{}
		}
	}
}

// publish adds fed to the shard's consumed count and copies the core's late
// and open-task counts to where ShardStats and LateSynopses read them. Only
// the goroutine that owns the core calls it.
func (sh *shard) publish(fed int) {
	sh.nfed.Add(uint64(fed))
	sh.late.Store(sh.core.late)
	sh.pending.Store(int64(sh.core.pending))
}

func (sh *shard) observe(e *Engine, s *synopsis.Synopsis) {
	sh.fed.Inc()
	if sp := s.Trace; sp != nil {
		sp.Detect = time.Now().UnixNano()
	}
	if out := sh.core.Feed(s); len(out) > 0 {
		if e.sink != nil {
			e.sink(out)
		} else {
			sh.out = append(sh.out, out...)
		}
	}
	if sp := s.Trace; sp != nil {
		e.traceDone(sh, sp)
	}
}

// traceDone finishes a sampled span after the detector's verdict: it stamps
// Done, records the arrival in the shard's flight ring, publishes the span
// (now immutable) to the tracer, and observes the end-to-end detection
// latency histogram for the span's stage. It runs on the shard worker
// goroutine and is deliberately not a hot-path function: it executes once
// per SAMPLED synopsis, so wall-clock reads and the label lookup are off
// the unsampled fast path entirely.
func (e *Engine) traceDone(sh *shard, sp *trace.Span) {
	sp.Done = time.Now().UnixNano()
	sh.flight.Record(trace.EventSynopsis, sp.Stage, sp.Host, sp.TaskID, uint64(sp.QueueWait()))
	e.tracer.SpanDone(sp)
	if m := e.m; m != nil && m.DetectionLatency != nil {
		if total := sp.Total(); total > 0 {
			m.DetectionLatency.With(strconv.Itoa(int(sp.Stage))).Observe(float64(total) / 1e9)
		}
	}
}

// shardFor hashes the (host, stage) group key to a shard. Any group maps
// to exactly one shard, preserving per-group FIFO order.
func (e *Engine) shardFor(s *synopsis.Synopsis) *shard {
	return e.shards[e.shardIndex(s.Host, s.Stage)]
}

// shardIndex is the routing hash (a Fibonacci/murmur-style mix of the two
// key halves): checkpoint adoption must partition state with exactly the
// same function that routes live synopses.
func (e *Engine) shardIndex(host uint16, stage logpoint.StageID) int {
	h := (uint32(host)+1)*0x9E3779B1 ^ (uint32(stage)+1)*0x85EBCA77
	h ^= h >> 16
	if e.mask != 0 || len(e.shards) == 1 {
		return int(h & e.mask)
	}
	return int(h % uint32(len(e.shards)))
}

// send enqueues with backpressure: a full queue blocks the feeder and is
// counted as an overflow (the signal to raise -shards or the queue size).
func (e *Engine) send(sh *shard, msg shardMsg) {
	select {
	case sh.ch <- msg:
	default:
		sh.overflows.Inc()
		sh.ch <- msg
	}
	if sh.depth != nil {
		sh.depth.Set(float64(len(sh.ch)))
	}
}

// Feed routes one synopsis to its shard. Safe for concurrent use. Unlike
// Detector.Feed it returns nothing: anomalies surface via Drain, Flush, or
// the WithAnomalySink callback.
//
// Feed queues the record itself (shardMsg's syn arm) rather than partition a
// one-element batch: on the embedded workload that partition cost ≈ 45% more
// CPU per synopsis (DESIGN §15).
func (e *Engine) Feed(s *synopsis.Synopsis) {
	e.fed.Add(1)
	if sp := s.Trace; sp != nil {
		sp.Enqueue = time.Now().UnixNano()
	}
	e.send(e.shardFor(s), shardMsg{syn: s})
}

// stampEnqueue marks a sampled span's hand-over to its shard queue; *now
// caches the one clock read a whole batch shares.
func stampEnqueue(s *synopsis.Synopsis, now *int64) {
	if sp := s.Trace; sp != nil {
		if *now == 0 {
			*now = time.Now().UnixNano()
		}
		sp.Enqueue = *now
	}
}

// FeedBatch routes a batch, partitioning it per shard with stable order so
// per-group FIFO is preserved while channel operations amortize. The engine
// takes the records and borrows the slice: it is neither mutated nor kept,
// so the caller may reuse it as soon as the call returns.
func (e *Engine) FeedBatch(batch []*synopsis.Synopsis) {
	if len(batch) > 0 {
		e.partition(batch)
	}
}

// maxStackShards bounds the shard counters partition keeps on its stack;
// engines with more shards pay one extra allocation per batch.
const maxStackShards = 64

// partition is FeedBatch on every engine, allocating nothing once the feed
// buffers are warm: a counting pass sizes each shard's region of one
// recycled backing array, a second pass fills the regions in batch order,
// and every non-empty region goes to its shard as one message, in shard
// order. Regions are capacity-limited sub-slices, so a shard (or the release
// hook it hands its batch to) can never reach a neighbour's records.
func (e *Engine) partition(batch []*synopsis.Synopsis) {
	var stack [2][maxStackShards]int
	count, next := stack[0][:], stack[1][:]
	if n := len(e.shards); n > maxStackShards {
		heap := make([]int, 2*n)
		count, next = heap[:n], heap[n:]
	}
	for _, s := range batch {
		count[e.shardIndex(s.Host, s.Stage)]++
	}
	lo := 0
	for i := range e.shards {
		next[i] = lo
		lo += count[i]
	}
	fb := getFeedBuf(len(batch))
	out := fb.recs[:len(batch)]
	var now int64
	for _, s := range batch {
		i := e.shardIndex(s.Host, s.Stage)
		stampEnqueue(s, &now)
		out[next[i]] = s
		next[i]++
	}
	e.fed.Add(uint64(len(batch)))
	// The feeder holds a reference of its own while it queues the regions: a
	// worker may be done with one before the next is sent.
	fb.refs.Store(1)
	lo = 0
	for i, sh := range e.shards { // deterministic shard order
		if hi := next[i]; hi > lo {
			fb.refs.Add(1)
			e.send(sh, shardMsg{batch: out[lo:hi:hi], buf: fb})
		}
		lo += count[i]
	}
	fb.done(nil)
}

// Emit implements tracker.Sink, so the engine can terminate any synopsis
// transport directly — each TCP connection handler feeds it concurrently.
func (e *Engine) Emit(s *synopsis.Synopsis) { e.Feed(s) }

// EmitBatch implements stream.BatchSink: a v2 TCP connection hands each
// decoded frame over in one call, so the engine's per-shard partitioning
// and channel sends amortize across the whole frame. Ownership of the
// synopses passes to the engine; the slice stays the caller's (FeedBatch).
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

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Model returns a deep copy of the trained model every shard currently
// serves (defensive, like Detector.Model: the live model's interning index
// is shared read-only across shards and must never be mutated). Safe for
// concurrent use — SwapModel replaces the model under the same control
// mutex.
func (e *Engine) Model() *Model {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	return e.model.Clone()
}

// quiesce runs fn against every shard's core with the shard parked: the
// control message traverses the same FIFO queue as data, so fn observes
// everything enqueued before the quiesce began. After Close, cores are
// owned by no goroutine and fn runs inline.
//
// fn runs on the shard WORKER goroutines, concurrently across shards:
// callers must only write per-shard slots (index i), never append to or
// sum into shared state inside fn — merge after quiesce returns.
func (e *Engine) quiesce(fn func(i int, sh *shard)) {
	if e.closed.Load() {
		for i, sh := range e.shards {
			fn(i, sh)
			sh.publish(0)
		}
		return
	}
	done := make(chan struct{}, len(e.shards))
	for i, sh := range e.shards {
		i, sh := i, sh
		// Blocking send, not e.send: a control message on a full queue is
		// backpressure by design, not a feed overflow worth counting.
		sh.ch <- shardMsg{ctl: &control{cmd: func(*Detector) { fn(i, sh) }, done: done}}
	}
	for range e.shards {
		<-done
	}
}

// gather runs fn against every shard under quiesce and returns the results
// indexed by shard: the per-shard slots quiesce asks for, merged by the
// caller once it has returned.
func gather[T any](e *Engine, fn func(i int, sh *shard) T) []T {
	out := make([]T, len(e.shards))
	e.quiesce(func(i int, sh *shard) { out[i] = fn(i, sh) })
	return out
}

// cmpGroup is the (host, stage) order of everything the analyzer emits
// group by group: anomalies, window history, checkpoints, exports.
func cmpGroup(aHost uint16, aStage logpoint.StageID, bHost uint16, bStage logpoint.StageID) int {
	return cmp.Or(cmp.Compare(aHost, bHost), cmp.Compare(aStage, bStage))
}

// takeBuffered collects (and clears) every shard's buffered anomalies under
// quiesce.
func (e *Engine) takeBuffered() []Anomaly {
	return slices.Concat(gather(e, func(_ int, sh *shard) []Anomaly {
		part := sh.out
		sh.out = nil
		return part
	})...)
}

// Drain processes everything queued so far and returns the anomalies
// buffered since the last Drain/Flush, in canonical order. With an anomaly
// sink attached it still acts as a barrier (all queued synopses observed)
// but returns nil.
func (e *Engine) Drain() []Anomaly {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	out := e.takeBuffered()
	sortAnomalies(out)
	return out
}

// flushShard closes the shard's open windows and returns their anomalies
// behind the ones it had buffered; with an anomaly sink attached the
// windows' anomalies go to the sink. It runs under quiesce.
func (e *Engine) flushShard(sh *shard) []Anomaly {
	part := sh.out
	sh.out = nil
	if fl := sh.core.Flush(); len(fl) > 0 {
		if e.sink != nil {
			e.sink(fl)
		} else {
			part = append(part, fl...)
		}
	}
	return part
}

// Flush closes all open windows on every shard and returns their anomalies
// together with any buffered ones, in canonical order. Call at end of
// stream. With an anomaly sink attached, flush anomalies go to the sink.
func (e *Engine) Flush() []Anomaly {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	out := slices.Concat(gather(e, func(_ int, sh *shard) []Anomaly { return e.flushShard(sh) })...)
	sortAnomalies(out)
	return out
}

// WindowHistory returns the merged closed-window statistics of every
// shard, sorted by host, stage, then window start.
func (e *Engine) WindowHistory() []WindowStats {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	all := slices.Concat(gather(e, func(_ int, sh *shard) []windowEntry { return sh.core.stats })...)
	slices.SortFunc(all, func(a, b windowEntry) int {
		return cmp.Or(cmpGroup(a.host, a.stage, b.host, b.stage), cmp.Compare(a.start, b.start))
	})
	return unpackHistory(all)
}

// PendingTasks sums tasks in still-open windows across shards.
func (e *Engine) PendingTasks() int {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	n := 0
	for _, c := range gather(e, func(_ int, sh *shard) int { return sh.core.PendingTasks() }) {
		n += c
	}
	return n
}

// LateSynopses sums dropped late arrivals across shards, from the counts
// the workers publish (see ShardStats).
func (e *Engine) LateSynopses() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.late.Load()
	}
	return n
}

// ShardStat is one shard's live load snapshot for heartbeats.
type ShardStat struct {
	Shard    int
	QueueLen int
	QueueCap int
	// Fed is the number of synopses the shard's core consumed.
	Fed uint64
	// Pending is the shard's open-window task count.
	Pending int
}

// ShardStats snapshots per-shard load. It reads what each worker published
// after the last message it finished, sends nothing through the shard queues
// and takes no lock, so it answers at once however busy — or stuck, in a
// blocked anomaly sink — the workers are: reading state never parks the data
// path. Fed, Pending and LateSynopses therefore trail whatever is still
// queued; once a barrier (Drain, Flush, any quiescing call) has returned they
// are exact.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardStat{
			Shard:    i,
			QueueLen: len(sh.ch),
			QueueCap: e.queueCap,
			Fed:      sh.nfed.Load(),
			Pending:  int(sh.pending.Load()),
		}
	}
	return out
}

// WriteCheckpoint serializes the engine in the single-detector checkpoint
// format: per-shard sections merge into one — group keys are unique across
// shards, so the union of open windows, the sorted union of histories and
// the summed late count are exactly what one Detector fed the same stream
// would have written. ReadCheckpoint/ReadEngineCheckpoint both accept the
// result.
func (e *Engine) WriteCheckpoint(w io.Writer) (int64, error) {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	out := checkpointJSON{Version: checkpointVersion, Model: e.model.toJSON()}
	type section struct {
		windows []windowJSON
		history []windowStatsJSON
		late    uint64
	}
	for _, sec := range gather(e, func(_ int, sh *shard) section {
		return section{sh.core.windowsJSON(), sh.core.historyJSON(), sh.core.late}
	}) {
		out.Windows = append(out.Windows, sec.windows...)
		out.History = append(out.History, sec.history...)
		out.Late += sec.late
	}
	slices.SortFunc(out.Windows, func(a, b windowJSON) int {
		return cmpGroup(a.Host, a.Stage, b.Host, b.Stage)
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
// via ReadCheckpoint/LoadCheckpointFile — into a running engine: its open
// windows and history partition across shards by the same (host, stage)
// hash that routes live synopses, and the late count lands on shard 0. The
// detector must not be used afterwards.
func NewEngineFromDetector(d *Detector, opts ...EngineOption) *Engine {
	e, _ := newEngine(d.model, opts...)
	// Partition the detector's state to the owning shards.
	type adopted struct {
		open  map[groupKey]*windowState
		stats []windowEntry
	}
	parts := make([]adopted, len(e.shards))
	for k, ws := range d.open {
		i := e.shardIndex(k.host, k.stage)
		if parts[i].open == nil {
			parts[i].open = make(map[groupKey]*windowState)
		}
		parts[i].open[k] = ws
	}
	for _, st := range d.stats {
		i := e.shardIndex(st.host, st.stage)
		parts[i].stats = append(parts[i].stats, st)
	}
	e.quiesce(func(i int, sh *shard) {
		for k, ws := range parts[i].open {
			sh.core.adopt(k, ws)
		}
		sh.core.stats = parts[i].stats
		if i == 0 {
			sh.core.late = d.late
		}
	})
	return e
}

// ReadEngineCheckpoint rebuilds a running engine from any checkpoint
// written by Detector.WriteCheckpoint or Engine.WriteCheckpoint — the two
// formats are identical, which is what makes single-process deployments
// free to move between -shards settings across restarts.
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

// Close stops every shard worker after its queue drains. Feeding after (or
// concurrently with) Close panics on the closed channel by design — stop
// feeders first. Open windows are NOT flushed; call Flush before Close (or
// WriteCheckpoint to carry them across a restart).
func (e *Engine) Close() error {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range e.shards {
		close(sh.ch)
	}
	for _, sh := range e.shards {
		// Still under e.ctl: a control call let in before the workers have
		// drained would run inline on cores they still own.
		<-sh.done
	}
	return nil
}

// sortAnomalies orders anomalies canonically: host, stage, window, then
// within one window the detector's own emission layers (new-signature flow
// first sorted by signature, then the proportion flow anomaly, then
// performance anomalies sorted by signature) — so a merged multi-shard
// drain reads exactly like a single detector's output re-sorted by group.
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
