// Package stage provides a concurrent staged-execution runtime for real Go
// servers instrumented with SAAD: an Executor implements the
// producer-consumer staging model (a pool of worker goroutines consuming a
// task queue, with thread reuse semantics — beginning a task implicitly
// terminates the worker's previous one), and Spawn implements the
// dispatcher-worker model (a dedicated goroutine per task).
//
// The paper instruments these two models' stage entry points to delimit
// tasks (Section 3.2.1); this package is the equivalent runtime for library
// users who want SAAD on their own staged servers, as the quickstart example
// demonstrates.
package stage

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"saad/internal/logpoint"
	"saad/internal/tracker"
)

// Ctx carries the per-task tracking state into stage handlers. Handlers
// call Log for every log statement; the id is the log point assigned by the
// instrumentation pass.
type Ctx struct {
	task *tracker.Task
	now  func() time.Time
}

// Log registers one log-point encounter (the interposed logger call).
func (c *Ctx) Log(id logpoint.ID) {
	c.task.Hit(id, c.now())
}

// Task exposes the underlying tracked task (may be nil when tracking is
// disabled).
func (c *Ctx) Task() *tracker.Task { return c.task }

// Handler is a stage body: it processes one queued request.
type Handler func(ctx *Ctx, req any)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("stage: executor closed")

// Executor is a producer-consumer stage: a named stage, a bounded queue and
// a fixed pool of workers. Construct with NewExecutor; stop with Close,
// which drains the queue and waits for the workers.
type Executor struct {
	stage   logpoint.StageID
	handler Handler
	tracker *tracker.Tracker
	now     func() time.Time

	queue chan any

	mu     sync.Mutex
	closed bool

	wg sync.WaitGroup
}

// NewExecutor registers (or reuses) the named stage in dict and starts
// `workers` goroutines consuming the queue. now supplies timestamps
// (time.Now for production; a virtual clock in tests).
func NewExecutor(
	dict *logpoint.Dictionary,
	tr *tracker.Tracker,
	name string,
	workers, queueCap int,
	now func() time.Time,
	handler Handler,
) (*Executor, error) {
	if workers < 1 {
		return nil, fmt.Errorf("stage: executor %q needs >= 1 worker, got %d", name, workers)
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if now == nil {
		now = time.Now
	}
	if handler == nil {
		return nil, fmt.Errorf("stage: executor %q needs a handler", name)
	}
	id, err := dict.RegisterStage(name, logpoint.ProducerConsumer)
	if err != nil {
		return nil, fmt.Errorf("stage: register %q: %w", name, err)
	}
	e := &Executor{
		stage:   id,
		handler: handler,
		tracker: tr,
		now:     now,
		queue:   make(chan any, queueCap),
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Stage returns the executor's stage id.
func (e *Executor) Stage() logpoint.StageID { return e.stage }

// Submit enqueues a request, blocking while the queue is full. It returns
// ErrClosed after Close.
func (e *Executor) Submit(req any) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	// Hold the lock across the send so Close cannot close the channel
	// between the check and the send. The queue is buffered, so the common
	// case does not block; when it does, submitters serialize, which is
	// the backpressure a bounded stage queue is meant to apply.
	e.queue <- req
	e.mu.Unlock()
	return nil
}

// worker is one consumer thread: it begins a new task per request,
// reproducing the thread-reuse semantics (the previous task ends when the
// next begins; the final task ends when the worker exits).
func (e *Executor) worker() {
	defer e.wg.Done()
	w := tracker.NewWorker(e.tracker)
	defer func() {
		w.Finish(e.now())
	}()
	for req := range e.queue {
		task := w.StartTask(e.stage, e.now())
		e.handler(&Ctx{task: task, now: e.now}, req)
	}
}

// Close stops accepting work, drains the queue, and waits for the workers
// to exit. It is idempotent.
func (e *Executor) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Spawner implements the dispatcher-worker model: each Spawn runs the
// handler in a fresh goroutine tracked as one task (the paper's
// DataXceiver-style stages). Use Wait to join all spawned tasks.
type Spawner struct {
	stage   logpoint.StageID
	tracker *tracker.Tracker
	now     func() time.Time
	wg      sync.WaitGroup
}

// NewSpawner registers (or reuses) the named dispatcher-worker stage.
func NewSpawner(
	dict *logpoint.Dictionary,
	tr *tracker.Tracker,
	name string,
	now func() time.Time,
) (*Spawner, error) {
	if now == nil {
		now = time.Now
	}
	id, err := dict.RegisterStage(name, logpoint.DispatcherWorker)
	if err != nil {
		return nil, fmt.Errorf("stage: register %q: %w", name, err)
	}
	return &Spawner{stage: id, tracker: tr, now: now}, nil
}

// Stage returns the spawner's stage id.
func (s *Spawner) Stage() logpoint.StageID { return s.stage }

// Spawn runs fn as one tracked task in a new goroutine. The task ends when
// fn returns (the runtime equivalent of inferring worker-thread termination,
// Section 4.1).
func (s *Spawner) Spawn(fn func(ctx *Ctx)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		task := s.tracker.Begin(s.stage, s.now())
		defer func() {
			task.End(s.now())
		}()
		fn(&Ctx{task: task, now: s.now})
	}()
}

// Wait blocks until all spawned tasks have finished.
func (s *Spawner) Wait() { s.wg.Wait() }
