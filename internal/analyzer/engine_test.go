package analyzer

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// multiGroupStream builds a detection stream spanning several (host, stage)
// groups: per host, healthy stage-1 traffic with a new-signature burst and
// a latency burst, plus an untrained stage-2 trickle and a few late
// stragglers whose Start has fallen a full window behind their group.
func multiGroupStream(hosts int) []*synopsis.Synopsis {
	rng := vtime.NewRNG(7)
	var syns []*synopsis.Synopsis
	for h := 1; h <= hosts; h++ {
		ts := epoch
		for i := 0; i < 4000; i++ {
			dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
			pts := []logpoint.ID{1, 2, 4, 5}
			switch {
			case i >= 1500 && i < 1650:
				pts = []logpoint.ID{1}
				dur = time.Millisecond
			case i >= 2500 && i < 2800:
				dur = 40 * time.Millisecond
			case i%250 == 0:
				pts = []logpoint.ID{1, 2, 3, 4, 5}
			}
			syns = append(syns, makeSyn(1, uint16(h), ts, dur, pts...))
			if i%500 == 499 {
				syns = append(syns, makeSyn(2, uint16(h), ts, dur, 1, 2))
			}
			if i == 3000 {
				// Late straggler: belongs to a window closed long ago.
				syns = append(syns, makeSyn(1, uint16(h), ts.Add(-2*time.Minute), dur, 1, 2, 4, 5))
			}
			ts = ts.Add(30 * time.Millisecond)
		}
	}
	return syns
}

// feedEngineConcurrently partitions the stream by group and feeds each
// group's subsequence through feed (an engine's Feed, or a wrapper of it)
// from its own goroutine, preserving per-group order while randomizing
// cross-group interleaving — the worst legal schedule.
func feedEngineConcurrently(feed func(*synopsis.Synopsis), stream []*synopsis.Synopsis) {
	parts := make(map[groupKey][]*synopsis.Synopsis)
	for _, s := range stream {
		k := groupKey{host: s.Host, stage: s.Stage}
		parts[k] = append(parts[k], s)
	}
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []*synopsis.Synopsis) {
			defer wg.Done()
			for i, s := range part {
				if i%64 == 0 {
					// Vary pacing so goroutine interleavings differ run to
					// run without breaking per-group order.
					runtime.Gosched()
				}
				feed(s)
			}
		}(part)
	}
	wg.Wait()
}

// TestEngineCheckpointFile: the engine's atomic file checkpoint loads via
// both LoadCheckpointFile (detector) and LoadEngineCheckpointFile.
func TestEngineCheckpointFile(t *testing.T) {
	model := trainedModel(t)
	eng := NewEngine(model)
	feedEngineConcurrently(eng.Feed, multiGroupStream(2)[:3000])
	path := t.TempDir() + "/engine.ckpt"
	if err := eng.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	wantPending := eng.PendingTasks()
	eng.Close()
	det, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if det.PendingTasks() != wantPending {
		t.Fatalf("detector restore pending = %d, want %d", det.PendingTasks(), wantPending)
	}
	eng2, err := LoadEngineCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.PendingTasks() != wantPending {
		t.Fatalf("engine restore pending = %d, want %d", eng2.PendingTasks(), wantPending)
	}
}

// TestEngineShardStatsAndMetrics: the worker's accounting covers every fed
// synopsis and its shard "0" series carry the same totals.
func TestEngineShardStatsAndMetrics(t *testing.T) {
	model := trainedModel(t)
	reg := metrics.NewRegistry()
	am := metrics.NewAnalyzerMetrics(reg)
	eng := NewEngine(model, WithEngineMetrics(am))
	defer eng.Close()
	stream := multiGroupStream(4)
	feedEngineConcurrently(eng.Feed, stream)
	eng.Drain() // ShardStats reads published counts and is no barrier itself
	stats := eng.ShardStats()
	if len(stats) != 1 {
		t.Fatalf("ShardStats len = %d, want the one worker", len(stats))
	}
	if st := stats[0]; st.Shard != 0 || st.QueueCap != 1024 || st.QueueLen != 0 || st.Fed != uint64(len(stream)) {
		t.Fatalf("worker stat %+v after a barrier, want %d fed", st, len(stream))
	}
	snap := reg.Snapshot()
	if got := snap.Counter(`saad_analyzer_shard_synopses_total{shard="0"}`); got != uint64(len(stream)) {
		t.Fatalf("shard metric = %d, want %d", got, len(stream))
	}
	if got := snap.Counter("saad_analyzer_late_synopses_total"); got != eng.LateSynopses() {
		t.Fatalf("late metric = %d, engine reports %d", got, eng.LateSynopses())
	}
}

// TestShardCountsAnswerWhileSinkBlocks: reading state never parks behind the
// data path. With the one shard's worker stuck inside the anomaly sink — a
// stalled event log, a full stdout pipe — ShardStats and LateSynopses still
// answer at once, with the counts as of the last message the worker finished;
// once the sink lets go and a barrier has passed they are exact again.
func TestShardCountsAnswerWhileSinkBlocks(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	e := NewEngine(trainedModel(t), WithAnomalySink(func([]Anomaly) {
		close(entered) // the one anomaly batch of this stream
		<-release
	}))
	defer e.Close()
	defer letGo() // on the way out of a failure too, or Close waits for ever

	e.Feed(makeSyn(1, 1, epoch, 10*time.Millisecond, 9))                             // a flow the model never saw
	e.Feed(makeSyn(1, 1, epoch.Add(2*time.Minute), 10*time.Millisecond, 1, 2, 4, 5)) // closes its window: the sink blocks
	e.Feed(makeSyn(1, 1, epoch, 10*time.Millisecond, 1, 2, 4, 5))                    // queued behind it, late once observed
	<-entered

	type counts struct {
		stat ShardStat
		late uint64
	}
	read := func() counts { return counts{e.ShardStats()[0], e.LateSynopses()} }
	answered := make(chan counts, 1)
	go func() { answered <- read() }()
	select {
	case got := <-answered:
		want := counts{stat: ShardStat{QueueLen: 1, QueueCap: 1024, Fed: 1, Pending: 1}}
		if got != want {
			t.Fatalf("while the sink blocks: %+v, want %+v", got, want)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("ShardStats and LateSynopses did not answer within 100 ms of the sink blocking")
	}

	letGo()
	e.Drain()
	want := counts{stat: ShardStat{QueueCap: 1024, Fed: 3, Pending: 1}, late: 1}
	if got := read(); got != want || e.PendingTasks() != want.stat.Pending {
		t.Fatalf("after the barrier: %+v (PendingTasks %d), want %+v", got, e.PendingTasks(), want)
	}
}

// TestEngineBackpressure: a tiny queue forces overflows but loses nothing.
func TestEngineBackpressure(t *testing.T) {
	model := trainedModel(t)
	reg := metrics.NewRegistry()
	am := metrics.NewAnalyzerMetrics(reg)
	eng := NewEngine(model, WithShardQueue(1), WithEngineMetrics(am))
	defer eng.Close()
	stream := multiGroupStream(2)
	feedEngineConcurrently(eng.Feed, stream)
	eng.Flush()
	if fed := eng.ShardStats()[0].Fed; fed != uint64(len(stream)) {
		t.Fatalf("fed %d of %d synopses under backpressure", fed, len(stream))
	}
}

// TestEngineDefaultsAndClose: zero-value options pick sane defaults and
// Close is idempotent.
func TestEngineDefaultsAndClose(t *testing.T) {
	model := trainedModel(t)
	eng := NewEngine(model)
	if eng.Shards() != 1 {
		t.Fatalf("Shards() = %d, want the one worker", eng.Shards())
	}
	if got := eng.Model(); got == model || got.TrainedOn != model.TrainedOn || len(got.Stages) != len(model.Stages) {
		t.Fatalf("Model() should return a defensive copy of the trained model: %p vs %p", got, model)
	}
	eng.Feed(makeSyn(1, 1, epoch, 10*time.Millisecond, 1, 2, 4, 5))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close inspection still works (runs inline on the parked core).
	if got := eng.PendingTasks(); got != 1 {
		t.Fatalf("PendingTasks after close = %d, want 1", got)
	}
	if got := eng.Flush(); len(got) != 0 {
		t.Fatalf("Flush after close = %v", got)
	}
	if hist := eng.WindowHistory(); len(hist) != 1 {
		t.Fatalf("history after close = %+v", hist)
	}
}
