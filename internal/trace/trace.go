// Package trace is SAAD's end-to-end pipeline tracing substrate: sampled
// per-task spans carried from the tracker's synopsis emission through the
// stream transport and the engine shard queue into the detection verdict,
// plus a lock-free flight recorder of recent pipeline events that every
// anomaly event can ship as its own evidence trail.
//
// The paper localizes anomalies to a stage and host; operators then ask
// "how long did that verdict take from log point to alarm?" and "what was
// flowing through the pipeline when it fired?". Spans answer the first
// (per-hop latency breakdowns), the flight recorder the second.
//
// Cost model: tracing is opt-in and allocation-bounded. An unsampled
// synopsis carries a nil *Span, so every hot-path touch point reduces to
// one nil check (the same discipline the metrics bundles use); only the
// sampled 1-in-N path allocates its fixed-size span and pays the wall-clock
// reads. The flight rings are fixed-size arrays of atomics: recording an
// event is a handful of atomic stores, never an allocation, and readers
// (the /flight endpoint, the anomaly event writer) snapshot without
// blocking writers.
package trace

import (
	"sync"
	"sync/atomic"
)

// Span is one sampled task's journey through the pipeline, stamped with
// wall-clock unix nanoseconds at each hop boundary. Zero stamps mean the
// span did not traverse that hop (e.g. the in-process channel transport has
// no Send/Recv). Stages fill stamps in pipeline order; after the detection
// verdict (Done) the span is immutable and safe to publish across
// goroutines.
type Span struct {
	// Stage, Host and TaskID identify the task the span follows.
	Stage  uint16
	Host   uint16
	TaskID uint64

	// Emit is when the tracker emitted the synopsis (Task.End).
	Emit int64
	// Send is when the stream client encoded the synopsis onto the wire —
	// after any dial wait and spill-ring dwell, so Send-Emit is the
	// client-side dwell (the paper pipeline's emit→dial leg).
	Send int64
	// Recv is when the stream server decoded the synopsis off the wire.
	Recv int64
	// Enqueue is when the engine accepted the synopsis onto its shard
	// queue.
	Enqueue int64
	// Detect is when the shard worker dequeued the synopsis and began
	// feeding the detector core; Detect-Enqueue is the shard-queue wait.
	Detect int64
	// Done is when the detector core finished judging the synopsis.
	Done int64
}

// Hop durations in nanoseconds; 0 when either stamp is missing.

// EmitToSend is the client-side dwell between emission and wire encode.
func (s *Span) EmitToSend() int64 { return hop(s.Emit, s.Send) }

// Wire is the transport time between client encode and server decode.
func (s *Span) Wire() int64 { return hop(s.Send, s.Recv) }

// QueueWait is the time spent on the engine shard queue.
func (s *Span) QueueWait() int64 { return hop(s.Enqueue, s.Detect) }

// DetectTime is the detector core's processing time.
func (s *Span) DetectTime() int64 { return hop(s.Detect, s.Done) }

// Total is the end-to-end latency from the earliest stamp present to Done:
// emit→done for tracker-originated spans, recv→done for spans the analyzer
// originated at arrival (partial spans still measure the analyzer's share).
func (s *Span) Total() int64 {
	if s.Done == 0 {
		return 0
	}
	for _, start := range [...]int64{s.Emit, s.Send, s.Recv, s.Enqueue} {
		if start > 0 {
			return s.Done - start
		}
	}
	return 0
}

// Complete reports whether every hop stamp is present and monotonic — the
// full tracker→wire→queue→verdict journey.
func (s *Span) Complete() bool {
	return s.Emit > 0 && s.Send >= s.Emit && s.Recv >= s.Send &&
		s.Enqueue >= s.Recv && s.Detect >= s.Enqueue && s.Done >= s.Detect
}

func hop(from, to int64) int64 {
	if from <= 0 || to <= 0 || to < from {
		return 0
	}
	return to - from
}

// Sampler decides which synopses carry spans: a deterministic 1-in-N
// counter, safe for concurrent use from every tracker goroutine. A nil
// Sampler (or N <= 0) samples nothing, so hot paths guard span work with a
// single Sample() call and pay one atomic add when sampling is enabled and
// one nil check when it is not.
type Sampler struct {
	every uint64
	ctr   atomic.Uint64
}

// NewSampler returns a sampler selecting 1 in every synopses (1 = all).
// every <= 0 returns nil: the disabled sampler.
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether the caller's synopsis should carry a span.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.ctr.Add(1)%s.every == 1 || s.every == 1
}

// SpanBuffer retains the most recent completed spans in a fixed-size ring
// for the /trace endpoint. Publication is an atomic pointer store into a
// claimed slot, so concurrent shard workers never block each other and
// readers snapshot without locks.
type SpanBuffer struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64
}

// NewSpanBuffer returns a buffer retaining the last capacity spans
// (capacity < 1 is clamped to 1).
func NewSpanBuffer(capacity int) *SpanBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanBuffer{slots: make([]atomic.Pointer[Span], capacity)}
}

// Push publishes a completed span. The span must not be mutated afterwards.
func (b *SpanBuffer) Push(sp *Span) {
	if b == nil || sp == nil {
		return
	}
	i := b.next.Add(1) - 1
	b.slots[i%uint64(len(b.slots))].Store(sp)
}

// Snapshot returns the retained spans, newest first.
func (b *SpanBuffer) Snapshot() []*Span {
	if b == nil {
		return nil
	}
	n := b.next.Load()
	count := uint64(len(b.slots))
	if n < count {
		count = n
	}
	out := make([]*Span, 0, count)
	for i := uint64(0); i < count; i++ {
		if sp := b.slots[(n-1-i)%uint64(len(b.slots))].Load(); sp != nil {
			out = append(out, sp)
		}
	}
	return out
}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery selects 1 in N synopses for span tracing (0 = spans off;
	// the flight recorder still runs).
	SampleEvery int
	// SpanCapacity bounds the completed spans retained for /trace
	// (default 256).
	SpanCapacity int
	// RingCapacity bounds each flight ring's event count (default 256;
	// rounded up to a power of two).
	RingCapacity int
}

func (c Config) withDefaults() Config {
	if c.SpanCapacity <= 0 {
		c.SpanCapacity = 256
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = 256
	}
	return c
}

// Tracer aggregates the tracing state one pipeline shares: the sampler,
// the completed-span buffer and one flight ring per engine shard.
// All methods are safe for concurrent use and nil-receiver-safe, so
// pipeline layers hold an optional *Tracer exactly like an optional
// metrics bundle.
type Tracer struct {
	cfg     Config
	sampler *Sampler
	spans   *SpanBuffer

	mu     sync.Mutex
	shards []*FlightRing
}

// New returns a tracer for cfg.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:     cfg,
		sampler: NewSampler(cfg.SampleEvery),
		spans:   NewSpanBuffer(cfg.SpanCapacity),
	}
}

// Sampler returns the tracer's span sampler (nil when sampling is off or
// the tracer is nil; Sampler.Sample is nil-safe either way).
func (t *Tracer) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.sampler
}

// ShardRing returns (creating on first use) the flight ring for engine
// shard i.
func (t *Tracer) ShardRing(i int) *FlightRing {
	if t == nil || i < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.shards) <= i {
		t.shards = append(t.shards, NewFlightRing(t.cfg.RingCapacity))
	}
	return t.shards[i]
}

// SpanDone publishes a completed span to the /trace buffer.
func (t *Tracer) SpanDone(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.spans.Push(sp)
}

// Spans returns the retained completed spans, newest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans.Snapshot()
}

// FlightSnapshot merges every shard ring's events, newest first, bounded to
// max events (max <= 0 = all retained).
func (t *Tracer) FlightSnapshot(max int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	rings := append([]*FlightRing(nil), t.shards...)
	t.mu.Unlock()
	var out []Event
	for _, r := range rings {
		out = append(out, r.Snapshot()...)
	}
	// Newest first across rings; ring snapshots are already newest-first,
	// so a simple merge by timestamp keeps the dump readable.
	sortEventsByTime(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// sortEventsByTime orders events newest first (insertion sort: snapshots
// are small and mostly ordered).
func sortEventsByTime(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Nanos > evs[j-1].Nanos; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}
