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

// referencePartition is the partition FeedBatch used before it counted and
// filled one backing array: a map of per-shard slices grown by append. It
// lives on here as the model the new routine must reproduce exactly.
func referencePartition(e *Engine, batch []*synopsis.Synopsis) map[*shard][]*synopsis.Synopsis {
	parts := make(map[*shard][]*synopsis.Synopsis, len(e.shards))
	for _, s := range batch {
		sh := e.shardFor(s)
		parts[sh] = append(parts[sh], s)
	}
	return parts
}

// park blocks sh's worker inside a control message until the returned
// release func is called, and returns once the worker has picked the
// message up, so whatever is queued behind it stays queued.
func park(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	sh.ch <- shardMsg{ctl: &control{cmd: func(*Detector) { close(entered); <-gate }}}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard worker never picked up the park command")
	}
	return func() { close(gate) }
}

// parkedEngine returns an engine whose workers all sit inside a control
// message, so whatever FeedBatch queues stays in the shard channels for the
// test to read.
func parkedEngine(t *testing.T, model *Model, shards int, opts ...EngineOption) *Engine {
	t.Helper()
	e := NewEngine(model, append(opts, WithShards(shards), WithShardQueue(4))...)
	t.Cleanup(func() { e.Close() }) // cleanups run last-in first-out: after the workers are let go
	for _, sh := range e.shards {
		t.Cleanup(park(t, sh))
	}
	return e
}

// popQueued pops the one message FeedBatch may have queued on sh; the zero
// message when there is none.
func popQueued(sh *shard) (msg shardMsg) {
	select {
	case msg = <-sh.ch:
	default:
	}
	return msg
}

// finish gives msg's region back the way the worker does after observing it.
func (msg shardMsg) finish() {
	if msg.buf != nil {
		msg.buf.done(msg.batch)
	}
}

// TestPartitionMatchesReference: for random batches over shard counts on
// both sides of the power-of-two and the stack-counter limits, every shard
// is handed exactly the sequence the map-append reference builds, the fed
// count agrees, nothing reaches the release hook on the feeder and the
// caller's slice is left alone. A single shard is in the table like any
// other: there is one routine. This is the one equivalence proof not held
// to analyzertest.Spec: what it pins — which records each shard is handed,
// in what order and capacity — is routing structure the verdict spec does
// not define.
func TestPartitionMatchesReference(t *testing.T) {
	model := trainedModel(t)
	for _, shards := range []int{1, 2, 3, 4, 8, 65} {
		rng := rand.New(rand.NewSource(int64(shards)))
		var released int
		got := parkedEngine(t, model, shards,
			WithSynopsisRelease(func(*synopsis.Synopsis) { released++ }))
		ref := parkedEngine(t, model, shards)
		var fed uint64
		for round := 0; round < 60; round++ {
			batch := make([]*synopsis.Synopsis, 1+rng.Intn(300))
			for i := range batch {
				batch[i] = makeSyn(logpoint.StageID(1+rng.Intn(6)), uint16(1+rng.Intn(24)), epoch, time.Millisecond, 1)
			}
			before := append([]*synopsis.Synopsis(nil), batch...)

			got.FeedBatch(batch)
			wantParts := referencePartition(ref, before)

			if !slices.Equal(batch, before) {
				t.Fatalf("shards=%d: FeedBatch reordered the caller's slice", shards)
			}
			for i, sh := range got.shards {
				msg := popQueued(sh)
				part := msg.batch
				if want := wantParts[ref.shards[i]]; !slices.Equal(part, want) {
					t.Fatalf("shards=%d round %d: shard %d got %d records, reference %d (or a different order)",
						shards, round, i, len(part), len(want))
				}
				if cap(part) != len(part) {
					t.Fatalf("shard %d's batch has spare capacity %d reaching into a neighbour's region", i, cap(part)-len(part))
				}
				fed += uint64(len(part))
				msg.finish()
			}
			if got.Fed() != fed {
				t.Fatalf("shards=%d round %d: fed %d, the shards were handed %d", shards, round, got.Fed(), fed)
			}
			if released != 0 {
				t.Fatalf("shards=%d round %d: %d records released before any shard observed them", shards, round, released)
			}
		}
	}
}

// TestFeedBatchAllocs pins the routing cost of a frame: once one call has
// warmed the feed buffer, nothing — whatever the shard count or batch size,
// alone and with the metrics bundle the daemon attaches.
func TestFeedBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	model := trainedModel(t)
	for _, shards := range []int{1, 2, 4} {
		for _, mode := range []string{"plain", "metrics"} {
			var opts []EngineOption
			if mode == "metrics" {
				opts = append(opts, WithEngineMetrics(metrics.NewAnalyzerMetrics(metrics.NewRegistry())))
			}
			e := parkedEngine(t, model, shards, opts...)
			for _, n := range []int{8, 512, 4096} {
				batch := make([]*synopsis.Synopsis, n)
				for i := range batch {
					batch[i] = makeSyn(logpoint.StageID(1+i%5), uint16(1+i%24), epoch, time.Millisecond, 1)
				}
				feed := func() {
					e.FeedBatch(batch)
					for _, sh := range e.shards {
						popQueued(sh).finish()
					}
				}
				feed()
				if got := testing.AllocsPerRun(50, feed); got != 0 {
					t.Errorf("%d shards, %s: FeedBatch(%d records) = %v allocs, want 0", shards, mode, n, got)
				}
			}
		}
	}
}

// TestShardMsgSize keeps the control fields folded: every shard channel
// holds queueCap messages, so a word added here is 8 KB per default shard.
func TestShardMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(shardMsg{}); got != 48 {
		t.Fatalf("shardMsg is %d bytes, want 48", got)
	}
}

// TestFeedBufferHeldWhileQueued: the engine copies out of the caller's slice
// into a buffer it holds for as long as a region of it is queued. Two calls
// from one slice, overwritten between them, leave two sets of regions that
// each still read what was fed; once the workers have drained both, the
// buffers are back and a third call allocates nothing.
func TestFeedBufferHeldWhileQueued(t *testing.T) {
	model := trainedModel(t)
	const shards, n = 4, 257
	var released atomic.Int64
	e := NewEngine(model, WithShards(shards), WithShardQueue(4),
		WithSynopsisRelease(func(*synopsis.Synopsis) { released.Add(1) }))
	defer e.Close()
	var unparks []func()
	for _, sh := range e.shards {
		unparks = append(unparks, park(t, sh))
	}
	unpark := sync.OnceFunc(func() { // also on the way out of a failure, or Close waits for ever
		for _, fn := range unparks {
			fn()
		}
	})
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

	// Peek without consuming: each shard's queue holds round 0's region, then
	// round 1's, and every record in them is the one fed, in feed order.
	for i, sh := range e.shards {
		var queued [2]shardMsg
		for round := range queued {
			queued[round] = <-sh.ch
		}
		for round, msg := range queued {
			var want []*synopsis.Synopsis
			for _, s := range fed[round] {
				if e.shardIndex(s.Host, s.Stage) == i {
					want = append(want, s)
				}
			}
			if !slices.Equal(msg.batch, want) {
				t.Fatalf("shard %d, call %d: the queued region no longer reads what was fed", i, round)
			}
			sh.ch <- msg
		}
		if queued[0].buf == queued[1].buf {
			t.Fatalf("shard %d: two calls share one buffer while both are queued", i)
		}
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
	for _, sh := range e.shards {
		defer park(t, sh)()
	}
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
// slice of their own the moment FeedBatch returns, against live workers
// behind short queues and with both release hooks on. Every record must be
// observed once, by the shard its group hashes to, and released exactly
// once; the race detector watches the hand-over of the recycled buffers.
func TestEngineFeedBatchBorrowStress(t *testing.T) {
	const shards, feeders, rounds, maxBatch = 4, 4, 200, 300
	var e *Engine
	releases := make([]atomic.Int32, feeders*rounds*maxBatch)
	var strays atomic.Int64
	releaseBatch := func(region []*synopsis.Synopsis) {
		own := e.shardIndex(region[0].Host, region[0].Stage)
		for _, s := range region {
			if e.shardIndex(s.Host, s.Stage) != own {
				strays.Add(1)
			}
			releases[s.TaskID].Add(1)
		}
		clear(region) // as synopsis.Pool.PutN does
	}
	e = NewEngine(trainedModel(t), WithShards(shards), WithShardQueue(2),
		WithSynopsisRelease(func(s *synopsis.Synopsis) { releases[s.TaskID].Add(1) }),
		WithSynopsisReleaseBatch(releaseBatch))
	defer e.Close()

	want := make([]atomic.Uint64, shards)
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
					want[e.shardIndex(s.Host, s.Stage)].Add(1)
					batch[i] = s
				}
				fed.Add(uint64(len(batch)))
				if round%16 == 0 {
					e.Feed(batch[0]) // the per-record path shares the queues
					e.FeedBatch(batch[1:])
				} else {
					e.FeedBatch(batch)
				}
			}
		}(f)
	}
	wg.Wait()
	e.Drain() // ShardStats reads published counts and is no barrier itself
	for i, st := range e.ShardStats() {
		if st.Fed != want[i].Load() {
			t.Errorf("shard %d observed %d records, its groups were fed %d", i, st.Fed, want[i].Load())
		}
	}
	if n := strays.Load(); n != 0 {
		t.Errorf("%d records reached the release hook in another shard's region", n)
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
