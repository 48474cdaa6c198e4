package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// The traced leg runs the same concurrent pipeline with wrappers at the
// four seams that can be reached from outside the program: the generator's
// chunk loop, the tracker.Sink the trackers emit into, the sink the stream
// server delivers to, and the engine's release hook. One task in sampleEvery
// is followed across all four, joined by (host, task id).

// sampleEvery is the task sampling interval; a power of two.
const sampleEvery = 64

func sampled(taskID uint64) bool { return taskID&(sampleEvery-1) == 0 }

// span is one timed interval of the traced leg. Times are nanoseconds since
// the tracer started. Parent is the id of the span that caused this one, 0
// for a root; spans of one generator chunk share Chunk.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Chunk  int64  `json:"chunk"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.End - s.Start }

// selfTimes returns, by span id, each span's duration minus the part of its
// own interval that its child spans cover. Children may overlap each other
// and may run past their parent (a hop that outlives the call that caused
// it); only the covered part of the parent's interval is subtracted.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

type flightKey struct {
	host uint16
	task uint64
}

// flight is one sampled task's journey. due is when its chunk was due (its
// creation time), the rest are the seam stamps; zero means not reached.
type flight struct {
	gen       int
	chunk     int64
	due       time.Time
	emitStart time.Time
	emitEnd   time.Time
	arrived   time.Time
	routed    time.Time
	released  time.Time
}

// chunkSpan is one generator chunk as the generator saw it.
type chunkSpan struct {
	id         int64
	start, end time.Time
}

// tracer holds the traced leg's spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	flights map[flightKey]*flight // guarded by mu

	// routeNs and routeRecords total the delivery calls into the server's
	// sink; guarded by mu.
	routeNs      int64
	routeRecords int64

	// gens and chunks[g] belong to generator g's goroutine during a leg and
	// are read only between legs.
	gens   []*generator
	chunks [][]chunkSpan
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), flights: make(map[flightKey]*flight)}
}

// attach hooks the generators' chunk loops.
func (tr *tracer) attach(gens []*generator) {
	tr.gens = gens
	tr.chunks = make([][]chunkSpan, len(gens))
	for g, gen := range gens {
		g := g
		gen.onChunk = func(id int64, start, end time.Time) {
			tr.chunks[g] = append(tr.chunks[g], chunkSpan{id: id, start: start, end: end})
		}
	}
}

// tracedSink wraps the sink generator gen's trackers emit into.
type tracedSink struct {
	tr   *tracer
	gen  int
	next tracker.Sink
}

func (tr *tracer) wrapSink(gen int, next tracker.Sink) tracker.Sink {
	return &tracedSink{tr: tr, gen: gen, next: next}
}

func (t *tracedSink) Emit(s *synopsis.Synopsis) {
	if !sampled(s.TaskID) {
		t.next.Emit(s)
		return
	}
	// The flight is registered before the hand-off: in process the engine
	// can release the synopsis before Emit returns.
	g := t.tr.gens[t.gen]
	f := &flight{gen: t.gen, chunk: g.chunk, due: g.chunkDue, emitStart: time.Now()}
	key := flightKey{host: s.Host, task: s.TaskID}
	t.tr.mu.Lock()
	t.tr.flights[key] = f
	t.tr.mu.Unlock()
	t.next.Emit(s)
	end := time.Now()
	t.tr.mu.Lock()
	f.emitEnd = end
	t.tr.mu.Unlock()
}

// tracedBatchSink wraps the sink a stream.Server delivers to.
type tracedBatchSink struct {
	tr   *tracer
	next batchSink
}

func (tr *tracer) wrapBatchSink(next batchSink) batchSink {
	return &tracedBatchSink{tr: tr, next: next}
}

func (t *tracedBatchSink) Emit(s *synopsis.Synopsis) {
	one := [1]*synopsis.Synopsis{s}
	t.deliver(one[:], func() { t.next.Emit(s) })
}

func (t *tracedBatchSink) EmitBatch(batch []*synopsis.Synopsis) {
	t.deliver(batch, func() { t.next.EmitBatch(batch) })
}

// deliver stamps arrival on the batch's sampled tasks, times the delivery
// call, and stamps its return. Keys are collected first: the records belong
// to the sink once the call is made.
func (t *tracedBatchSink) deliver(batch []*synopsis.Synopsis, call func()) {
	var keys []flightKey
	for _, s := range batch {
		if sampled(s.TaskID) {
			keys = append(keys, flightKey{host: s.Host, task: s.TaskID})
		}
	}
	n := int64(len(batch))
	arrived := time.Now()
	call()
	routed := time.Now()
	t.tr.mu.Lock()
	t.tr.routeNs += int64(routed.Sub(arrived))
	t.tr.routeRecords += n
	for _, k := range keys {
		if f := t.tr.flights[k]; f != nil {
			f.arrived, f.routed = arrived, routed
		}
	}
	t.tr.mu.Unlock()
}

// wrapRelease interposes the observed stamp on the engine's release hooks.
// Either hook may be nil.
func (tr *tracer) wrapRelease(one func(*synopsis.Synopsis), batch func([]*synopsis.Synopsis)) (func(*synopsis.Synopsis), func([]*synopsis.Synopsis)) {
	stamp := func(s *synopsis.Synopsis, now time.Time) {
		if f := tr.flights[flightKey{host: s.Host, task: s.TaskID}]; f != nil {
			f.released = now
		}
	}
	wrappedOne := func(s *synopsis.Synopsis) {
		if sampled(s.TaskID) {
			now := time.Now()
			tr.mu.Lock()
			stamp(s, now)
			tr.mu.Unlock()
		}
		one(s)
	}
	if batch == nil {
		return wrappedOne, nil
	}
	return wrappedOne, func(b []*synopsis.Synopsis) {
		var now time.Time
		for _, s := range b {
			if s == nil || !sampled(s.TaskID) {
				continue
			}
			if now.IsZero() {
				now = time.Now()
				tr.mu.Lock()
			}
			stamp(s, now)
		}
		if !now.IsZero() {
			tr.mu.Unlock()
		}
		batch(b)
	}
}

// hops are the traced leg's figures, in nanoseconds.
type hops struct {
	emitNs      []float64 // Sink.Emit call of a sampled task
	wireNs      []float64 // emit return → delivery at the server's sink
	queueDetect []float64 // delivery call return → engine release hook
	lagNs       []float64 // chunk due → engine release hook
	routeNs     float64   // delivery call time per delivered record
	incomplete  int       // sampled tasks that never reached the release hook
}

// ns is the offset of t from the tracer's start.
func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// collect turns the stamps into spans and hop samples. The pipeline must be
// quiet. wired reports whether the workload has a wire at all.
func (tr *tracer) collect(wired bool) ([]span, hops) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var (
		spans []span
		h     hops
		next  int64
	)
	add := func(parent, chunk int64, name string, start, end time.Time) int64 {
		next++
		spans = append(spans, span{ID: next, Parent: parent, Chunk: chunk, Name: name, Start: tr.ns(start), End: tr.ns(end)})
		return next
	}
	// Chunk ids are per generator; the trace id carries the generator too.
	traceID := func(gen int, chunk int64) int64 { return int64(gen)<<40 | chunk }
	roots := make(map[int64]int64)
	for g, chunks := range tr.chunks {
		for _, c := range chunks {
			id := traceID(g, c.id)
			roots[id] = add(0, id, "chunk", c.start, c.end)
		}
	}
	if tr.routeRecords > 0 {
		h.routeNs = float64(tr.routeNs) / float64(tr.routeRecords)
	}
	keys := make([]flightKey, 0, len(tr.flights))
	for k := range tr.flights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].host != keys[j].host {
			return keys[i].host < keys[j].host
		}
		return keys[i].task < keys[j].task
	})
	for _, k := range keys {
		f := tr.flights[k]
		if f.released.IsZero() || f.emitEnd.IsZero() || (wired && f.arrived.IsZero()) {
			h.incomplete++
			continue
		}
		id := traceID(f.gen, f.chunk)
		parent := add(roots[id], id, "emit", f.emitStart, f.emitEnd)
		h.emitNs = append(h.emitNs, float64(f.emitEnd.Sub(f.emitStart)))
		handed := f.emitEnd
		if wired {
			parent = add(parent, id, "wire", f.emitEnd, f.arrived)
			parent = add(parent, id, "route", f.arrived, f.routed)
			h.wireNs = append(h.wireNs, float64(f.arrived.Sub(f.emitEnd)))
			handed = f.routed
		}
		// In process the release can precede Emit's return.
		if f.released.After(handed) {
			add(parent, id, "queue_detect", handed, f.released)
			h.queueDetect = append(h.queueDetect, float64(f.released.Sub(handed)))
		} else {
			h.queueDetect = append(h.queueDetect, 0)
		}
		h.lagNs = append(h.lagNs, float64(f.released.Sub(f.due)))
	}
	return spans, h
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
