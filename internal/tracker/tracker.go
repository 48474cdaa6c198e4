// Package tracker implements SAAD's task execution tracker (paper Sections
// 3.2 and 4.1): the thin layer between server code and the logging library
// that identifies tasks, registers the log points each task encounters, and
// emits a task synopsis at task termination.
//
// The paper's Java implementation keys task state off thread-local storage;
// the idiomatic Go equivalent is an explicit *Task handle carried by the
// code executing the task (stage runtimes in internal/stage do this
// automatically). The Worker type reproduces the thread-reuse semantics of
// the producer-consumer model, where beginning a new task implicitly
// terminates the previous one.
package tracker

import (
	"sync"
	"sync/atomic"
	"time"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/trace"
)

// Sink consumes task synopses as tasks terminate. Implementations must be
// safe for concurrent use; trackers on many goroutines share one sink.
type Sink interface {
	Emit(*synopsis.Synopsis)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*synopsis.Synopsis)

var _ Sink = SinkFunc(nil)

// Emit implements Sink.
func (f SinkFunc) Emit(s *synopsis.Synopsis) { f(s) }

// Tracker mints tasks and routes their synopses to a sink. The zero value is
// a disabled tracker; construct with New. Tracker is safe for concurrent
// use.
type Tracker struct {
	host    uint16
	sink    Sink
	enabled atomic.Bool
	nextID  atomic.Uint64
	emitted atomic.Uint64
	metrics *metrics.TrackerMetrics
	sampler *trace.Sampler
}

// New returns an enabled tracker for the given host id emitting to sink.
// A nil sink yields a tracker that tracks but drops synopses.
func New(host uint16, sink Sink) *Tracker {
	t := &Tracker{host: host, sink: sink}
	t.enabled.Store(true)
	return t
}

// SetMetrics attaches a metrics bundle (nil disables). Call before the
// tracker is shared with instrumented goroutines; the field is read
// without synchronization on the hot path. Log-point hits are accumulated
// per task and charged once at End, so enabling metrics adds no per-Hit
// atomic operations.
func (t *Tracker) SetMetrics(m *metrics.TrackerMetrics) { t.metrics = m }

// SetSampler attaches a pipeline-trace sampler (nil disables tracing, the
// default). Sampled tasks emit synopses carrying a trace.Span stamped with
// the emission time; downstream hops stamp the rest. Like SetMetrics, call
// before the tracker is shared: the field is read without synchronization.
func (t *Tracker) SetSampler(s *trace.Sampler) { t.sampler = s }

// SetEnabled turns tracking on or off at runtime. While disabled, Begin
// returns nil and instrumentation devolves to nil-checks — this is the
// "original system" configuration Figure 7's overhead comparison uses.
func (t *Tracker) SetEnabled(v bool) { t.enabled.Store(v) }

// Enabled reports whether the tracker is recording.
func (t *Tracker) Enabled() bool { return t != nil && t.enabled.Load() }

// Emitted returns the number of synopses emitted so far.
func (t *Tracker) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted.Load()
}

// Host returns the host id stamped on emitted synopses.
func (t *Tracker) Host() uint16 { return t.host }

// Begin starts a new task of the given stage at virtual time now. It is the
// equivalent of the paper's setContext(stageId) stage delimiter. It returns
// nil when the tracker is disabled or nil; all Task methods are nil-safe so
// instrumented code needs no branches.
func (t *Tracker) Begin(stage logpoint.StageID, now time.Time) *Task {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	task := taskPool.Get().(*Task)
	task.tracker = t
	task.stage = stage
	task.id = t.nextID.Add(1)
	task.start = now
	task.lastHit = time.Time{}
	task.points = task.points[:0]
	if m := t.metrics; m != nil {
		m.TasksBegun.Inc()
	}
	return task
}

// taskPool recycles Task structs; tasks are created at very high rates in
// the simulated servers and the tracker must stay near-zero-overhead.
var taskPool = sync.Pool{New: func() any { return &Task{points: make([]synopsis.PointCount, 0, 8)} }}

// Task is the per-task in-memory structure the tracker maintains between a
// stage's begin and the task's termination: stage id, unique id, start time
// and the log point frequency vector. All methods are nil-safe no-ops so
// instrumentation can run unconditionally.
type Task struct {
	tracker *Tracker
	stage   logpoint.StageID
	id      uint64
	start   time.Time
	lastHit time.Time
	points  []synopsis.PointCount
}

// Hit registers one encounter of the log point at virtual time now. This is
// what the interposed logging shim calls for every log statement the task
// executes, regardless of verbosity level.
func (t *Task) Hit(id logpoint.ID, now time.Time) {
	if t == nil {
		return
	}
	if now.After(t.lastHit) {
		t.lastHit = now
	}
	// Tasks touch few distinct points; linear scan beats a map here.
	for i := range t.points {
		if t.points[i].Point == id {
			t.points[i].Count++
			return
		}
	}
	t.points = append(t.points, synopsis.PointCount{Point: id, Count: 1})
}

// ID returns the task's unique id (0 for a nil task).
func (t *Task) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Stage returns the task's stage (0 for a nil task).
func (t *Task) Stage() logpoint.StageID {
	if t == nil {
		return 0
	}
	return t.stage
}

// Start returns the task's start time.
func (t *Task) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// End terminates the task at virtual time now and emits its synopsis. The
// duration is the span from the task start to the last log point encountered
// (the paper's definition); a task that hit no log points falls back to the
// termination time. End is idempotent only in the sense that a nil task is a
// no-op; the Task must not be used after End.
func (t *Task) End(now time.Time) {
	if t == nil {
		return
	}
	tr := t.tracker
	end := t.lastHit
	if end.IsZero() {
		end = now
	}
	dur := end.Sub(t.start)
	if dur < 0 {
		dur = 0
	}
	// The sink owns the record from Emit on, while t.points is recycled
	// with the task: New copies the points into the record's own block.
	syn := synopsis.New(t.points)
	syn.Stage = t.stage
	syn.Host = tr.host
	syn.TaskID = t.id
	syn.Start = t.start
	syn.Duration = dur
	syn.Normalize()
	if smp := tr.sampler; smp.Sample() {
		syn.Trace = &trace.Span{
			Stage:  uint16(t.stage),
			Host:   tr.host,
			TaskID: t.id,
			Emit:   time.Now().UnixNano(),
		}
	}
	if m := tr.metrics; m != nil {
		var hits uint64
		for i := range t.points {
			hits += uint64(t.points[i].Count)
		}
		m.PointHits.Add(hits)
		m.TasksEnded.Inc()
		m.SynopsesEmitted.Inc()
	}
	t.tracker = nil
	taskPool.Put(t)
	tr.emitted.Add(1)
	if tr.sink != nil {
		tr.sink.Emit(syn)
	}
}

// Worker models one server thread. In the producer-consumer staging model a
// thread is reused for many tasks and task termination is inferred when the
// thread begins its next task (paper Section 4.1); StartTask reproduces
// exactly that. Worker is not safe for concurrent use — it models a single
// thread.
type Worker struct {
	tracker *Tracker
	current *Task
}

// NewWorker returns a worker bound to tr.
func NewWorker(tr *Tracker) *Worker {
	return &Worker{tracker: tr}
}

// StartTask begins a new task, implicitly terminating the worker's previous
// task at the same instant (thread reuse). It returns the new task handle.
func (w *Worker) StartTask(stage logpoint.StageID, now time.Time) *Task {
	if w.current != nil {
		w.current.End(now)
	}
	w.current = w.tracker.Begin(stage, now)
	return w.current
}

// Current returns the worker's in-flight task, or nil.
func (w *Worker) Current() *Task { return w.current }

// Finish terminates the worker's in-flight task, modeling thread exit in the
// dispatcher-worker model (where the paper infers termination from thread
// finalization).
func (w *Worker) Finish(now time.Time) {
	if w.current != nil {
		w.current.End(now)
		w.current = nil
	}
}
