package analyzer

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// park blocks e's worker inside a control message until the returned
// release func is called, and returns once the worker has picked the
// message up, so whatever is queued behind it stays queued.
func park(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	e.ch <- workerMsg{ctl: &control{cmd: func() { close(entered); <-gate }}}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never picked up the park command")
	}
	return func() { close(gate) }
}

// parkedEngine returns an engine whose worker sits inside a control
// message, so whatever FeedBatch queues stays in the channel for the test to
// read.
func parkedEngine(t *testing.T, model *Model, opts ...EngineOption) *Engine {
	t.Helper()
	e := NewEngine(model, append(opts, WithShardQueue(4))...)
	t.Cleanup(func() { e.Close() }) // cleanups run last-in first-out: after the worker is let go
	t.Cleanup(park(t, e))
	return e
}

// popQueued pops the one message FeedBatch may have queued; the zero
// message when there is none.
func popQueued(e *Engine) (msg workerMsg) {
	select {
	case msg = <-e.ch:
	default:
	}
	return msg
}

// finish gives msg's buffer back the way the worker does after observing it.
func (msg workerMsg) finish() {
	if msg.buf != nil {
		msg.buf.put()
	}
}

// TestPartitionMatchesReference: for random batches, the worker is handed
// one message holding exactly the batch, in order and nothing past it, the
// fed count agrees, nothing reaches the release hook on the feeder and the
// caller's slice is left alone. This is the one equivalence proof not held
// to analyzertest.Spec: what it pins — which records the worker is handed,
// in what order and capacity — is queue structure the verdict spec does not
// define.
func TestPartitionMatchesReference(t *testing.T) {
	model := trainedModel(t)
	rng := rand.New(rand.NewSource(1))
	var released int
	e := parkedEngine(t, model, WithSynopsisRelease(func(*synopsis.Synopsis) { released++ }))
	var fed uint64
	for round := 0; round < 60; round++ {
		batch := make([]*synopsis.Synopsis, 1+rng.Intn(300))
		for i := range batch {
			batch[i] = makeSyn(logpoint.StageID(1+rng.Intn(6)), uint16(1+rng.Intn(24)), epoch, time.Millisecond, 1)
		}
		before := slices.Clone(batch)

		e.FeedBatch(batch)

		if !slices.Equal(batch, before) {
			t.Fatalf("round %d: FeedBatch reordered the caller's slice", round)
		}
		msg := popQueued(e)
		if msg.buf == nil || !slices.Equal(msg.buf.recs, before) {
			t.Fatalf("round %d: the queued message does not hold the %d records fed, in order", round, len(before))
		}
		if extra := popQueued(e); extra.buf != nil || extra.syn != nil {
			t.Fatalf("round %d: one call queued more than one message", round)
		}
		fed += uint64(len(msg.buf.recs))
		msg.finish()
		if e.Fed() != fed {
			t.Fatalf("round %d: fed %d, the worker was handed %d", round, e.Fed(), fed)
		}
		if released != 0 {
			t.Fatalf("round %d: %d records released before the worker observed them", round, released)
		}
	}
}

// TestFeedBatchAllocs pins the routing cost of a frame: once one call has
// warmed the feed buffer, nothing — whatever the batch size, alone and with
// the metrics bundle the daemon attaches.
func TestFeedBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	model := trainedModel(t)
	for _, mode := range []string{"plain", "metrics"} {
		var opts []EngineOption
		if mode == "metrics" {
			opts = append(opts, WithEngineMetrics(metrics.NewAnalyzerMetrics(metrics.NewRegistry())))
		}
		e := parkedEngine(t, model, opts...)
		for _, n := range []int{8, 512, 4096} {
			batch := make([]*synopsis.Synopsis, n)
			for i := range batch {
				batch[i] = makeSyn(logpoint.StageID(1+i%5), uint16(1+i%24), epoch, time.Millisecond, 1)
			}
			feed := func() {
				e.FeedBatch(batch)
				popQueued(e).finish()
			}
			feed()
			if got := testing.AllocsPerRun(50, feed); got != 0 {
				t.Errorf("%s: FeedBatch(%d records) = %v allocs, want 0", mode, n, got)
			}
		}
	}
}

// TestShardMsgSize keeps the queue message at three pointers: the channel
// holds queueCap messages, so a word added here is 8 KB at the default
// queue.
func TestShardMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(workerMsg{}); got != 24 {
		t.Fatalf("workerMsg is %d bytes, want 24", got)
	}
}

// TestFeedBufferHeldWhileQueued: the engine copies out of the caller's slice
// into a buffer it holds for as long as the message is queued. Two calls
// from one slice, overwritten between them, leave two messages that each
// still read what was fed; once the worker has drained both, the buffers
// are back and a third call allocates nothing.
func TestFeedBufferHeldWhileQueued(t *testing.T) {
	model := trainedModel(t)
	const n = 257
	var released atomic.Int64
	e := NewEngine(model, WithShardQueue(4),
		WithSynopsisRelease(func(*synopsis.Synopsis) { released.Add(1) }))
	defer e.Close()
	unpark := sync.OnceFunc(park(t, e)) // also on the way out of a failure, or Close waits for ever
	defer unpark()
	fill := func(batch []*synopsis.Synopsis, round int) {
		for i := range batch {
			batch[i] = makeSyn(logpoint.StageID(1+i%5), uint16(1+(i+round)%24), epoch, time.Millisecond, 1)
		}
	}
	batch := make([]*synopsis.Synopsis, n)
	var fed [2][]*synopsis.Synopsis
	for round := range fed {
		fill(batch, round)
		fed[round] = slices.Clone(batch)
		e.FeedBatch(batch)
	}
	clear(batch) // the caller's slice is its own again

	// Peek without consuming: the queue holds round 0's message, then round
	// 1's, and every record in them is the one fed, in feed order.
	var queued [2]workerMsg
	for round := range queued {
		queued[round] = <-e.ch
	}
	for round, msg := range queued {
		if !slices.Equal(msg.buf.recs, fed[round]) {
			t.Fatalf("call %d: the queued message no longer reads what was fed", round)
		}
		e.ch <- msg
	}
	if queued[0].buf == queued[1].buf {
		t.Fatal("two calls share one buffer while both are queued")
	}
	unpark()
	e.Drain()
	if got := released.Load(); got != 2*n {
		t.Fatalf("released %d records, fed %d", got, 2*n)
	}
	if raceflag.Enabled {
		return // sync.Pool drops puts at random under the race detector
	}
	// Not testing.AllocsPerRun: it lowers GOMAXPROCS, and a sync.Pool
	// forgets what it holds when that changes.
	defer park(t, e)()
	fill(batch, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.FeedBatch(batch)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("a call after the drain allocated %d times; the buffers did not come back", got)
	}
}

// TestEngineFeedBatchBorrowStress: four feeders each refill and re-feed one
// slice of their own the moment FeedBatch returns, against a live worker
// behind a short queue and with both release hooks on. Every record must be
// observed and released exactly once; the race detector watches the
// hand-over of the recycled buffers.
func TestEngineFeedBatchBorrowStress(t *testing.T) {
	const feeders, rounds, maxBatch = 4, 200, 300
	releases := make([]atomic.Int32, feeders*rounds*maxBatch)
	releaseBatch := func(batch []*synopsis.Synopsis) {
		for _, s := range batch {
			releases[s.TaskID].Add(1)
		}
		clear(batch) // as synopsis.Pool.PutN does
	}
	e := NewEngine(trainedModel(t), WithShardQueue(2),
		WithSynopsisRelease(func(s *synopsis.Synopsis) { releases[s.TaskID].Add(1) }),
		WithSynopsisReleaseBatch(releaseBatch))
	defer e.Close()

	var fed atomic.Uint64
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			batch := make([]*synopsis.Synopsis, maxBatch)
			id := uint64(f * rounds * maxBatch)
			for round := 0; round < rounds; round++ {
				batch = batch[:1+rng.Intn(maxBatch)]
				for i := range batch {
					s := makeSyn(logpoint.StageID(1+rng.Intn(6)), uint16(1+rng.Intn(24)), epoch, time.Millisecond, 1)
					s.TaskID = id
					id++
					batch[i] = s
				}
				fed.Add(uint64(len(batch)))
				if round%16 == 0 {
					e.Feed(batch[0]) // the per-record path shares the queue
					e.FeedBatch(batch[1:])
				} else {
					e.FeedBatch(batch)
				}
			}
		}(f)
	}
	wg.Wait()
	e.Drain() // ShardStats reads published counts and is no barrier itself
	if got := e.ShardStats()[0].Fed; got != fed.Load() {
		t.Errorf("the worker observed %d records, %d were fed", got, fed.Load())
	}
	var once uint64
	for i := range releases {
		switch n := releases[i].Load(); n {
		case 0:
		case 1:
			once++
		default:
			t.Fatalf("record %d was released %d times", i, n)
		}
	}
	if once != fed.Load() || e.Fed() != fed.Load() {
		t.Fatalf("fed %d records, engine counted %d, %d released", fed.Load(), e.Fed(), once)
	}
}
