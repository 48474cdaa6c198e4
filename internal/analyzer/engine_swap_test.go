package analyzer

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// trainedModelB builds a second model whose judgments differ sharply from
// trainedModel's: the dominant flows are {1,2,4,5} and {1,2,6} with ~40ms
// durations, so the mixed streams' 40ms latency bursts are healthy under B
// while their baseline {1,2,3,4,5} trickle is a never-seen signature. The
// trace size also differs (18000) so the two models are distinguishable by
// TrainedOn alone.
func trainedModelB(t testing.TB) *Model {
	t.Helper()
	rng := vtime.NewRNG(99)
	var trace []*synopsis.Synopsis
	ts := epoch
	for i := 0; i < 18000; i++ {
		dur := 35*time.Millisecond + time.Duration(rng.Intn(int(10*time.Millisecond)))
		pts := []logpoint.ID{1, 2, 4, 5}
		if i%2 == 0 {
			pts = []logpoint.ID{1, 2, 6}
		}
		trace = append(trace, makeSyn(1, 1, ts, dur, pts...))
		ts = ts.Add(time.Millisecond)
	}
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestEngineSwapDuringConcurrentFeed races repeated SwapModel calls against
// live concurrent feeders and proves the zero-drop invariant directly: with
// an in-order stream, every synopsis must land in exactly one closed window
// (no late drops, no losses), and each group's window sequence must stay
// monotone — an intra-group reorder would surface as a late synopsis.
func TestEngineSwapDuringConcurrentFeed(t *testing.T) {
	modelA := trainedModel(t)
	modelB := trainedModelB(t)

	// Strictly in-order per-group stream (no deliberate stragglers): any
	// late synopsis after this is a FIFO violation.
	rng := vtime.NewRNG(11)
	var stream []*synopsis.Synopsis
	for h := 1; h <= 4; h++ {
		ts := epoch
		for i := 0; i < 3000; i++ {
			dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
			pts := []logpoint.ID{1, 2, 4, 5}
			if i%100 == 0 {
				pts = []logpoint.ID{1, 2, 3, 4, 5}
			}
			stream = append(stream, makeSyn(1, uint16(h), ts, dur, pts...))
			ts = ts.Add(20 * time.Millisecond)
		}
	}

	eng := NewEngine(modelA)
	defer eng.Close()
	// Swap back and forth while the feeders run: once each time they signal
	// that another fifth of the stream has been fed.
	models := []*Model{modelB, modelA, modelB, modelA, modelB}
	fifths := make(chan struct{}, len(models))
	var fed atomic.Int64
	feed := func(s *synopsis.Synopsis) {
		eng.Feed(s)
		if fed.Add(1)%int64(len(stream)/len(models)) == 0 {
			fifths <- struct{}{}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedEngineConcurrently(feed, stream)
	}()
	for _, m := range models {
		<-fifths
		eng.SwapModel(m)
	}
	wg.Wait()
	eng.Flush()

	if got := eng.Fed(); got != uint64(len(stream)) {
		t.Fatalf("Fed = %d, want %d", got, len(stream))
	}
	if got := eng.LateSynopses(); got != 0 {
		t.Fatalf("LateSynopses = %d, want 0: per-group FIFO violated across swaps", got)
	}
	hist := eng.WindowHistory()
	total := 0
	lastWindow := make(map[groupKey]time.Time)
	for _, w := range hist {
		total += w.Tasks
		k := groupKey{host: w.Host, stage: w.Stage}
		if prev, ok := lastWindow[k]; ok && w.Window.Before(prev) {
			t.Fatalf("group %v window regressed: %v after %v", k, w.Window, prev)
		}
		lastWindow[k] = w.Window
	}
	if total != len(stream) {
		t.Fatalf("window history accounts for %d tasks, want %d: synopses dropped", total, len(stream))
	}
	if got := eng.Model(); got.TrainedOn != modelB.TrainedOn {
		t.Fatalf("Model().TrainedOn = %d, want %d after final swap", got.TrainedOn, modelB.TrainedOn)
	}
}

// TestEngineSwapChaosKill simulates the analyzer dying mid-swap: the last
// durable checkpoint predates the swap, the process is killed right after
// the cutover, and a replacement restores from the checkpoint. The restored
// engine must serve the OLD model (the swap never became durable) and must
// stay silent on healthy traffic — a crash can lose the promotion, never
// invent anomalies.
func TestEngineSwapChaosKill(t *testing.T) {
	modelA := trainedModel(t)
	modelB := trainedModelB(t)

	// Healthy-under-A traffic across several groups: dominant {1,2,4,5}
	// with the trained 0.4%-rate {1,2,3,4,5} trickle, durations in range.
	rng := vtime.NewRNG(33)
	var stream []*synopsis.Synopsis
	for h := 1; h <= 3; h++ {
		ts := epoch
		for i := 0; i < 4000; i++ {
			dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
			pts := []logpoint.ID{1, 2, 4, 5}
			if i%250 == 0 {
				pts = []logpoint.ID{1, 2, 3, 4, 5}
			}
			stream = append(stream, makeSyn(1, uint16(h), ts, dur, pts...))
			ts = ts.Add(15 * time.Millisecond)
		}
	}
	cut := len(stream) / 2

	eng := NewEngine(modelA)
	feedEngineConcurrently(eng.Feed, stream[:cut])
	if spurious := eng.Drain(); len(spurious) != 0 {
		t.Fatalf("healthy prefix raised %d anomalies before the swap", len(spurious))
	}
	var buf bytes.Buffer
	if _, err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The swap lands, then the process dies before the next checkpoint:
	// everything after buf is lost.
	eng.SwapModel(modelB)
	eng.Close()

	eng2, err := ReadEngineCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := eng2.Model(); got.TrainedOn != modelA.TrainedOn {
		t.Fatalf("restored model TrainedOn = %d, want pre-swap model %d", got.TrainedOn, modelA.TrainedOn)
	}
	feedEngineConcurrently(eng2.Feed, stream[cut:])
	if anoms := eng2.Flush(); len(anoms) != 0 {
		t.Fatalf("restored engine raised %d spurious anomalies on healthy traffic: %v", len(anoms), anoms)
	}
	if got := eng2.LateSynopses(); got != 0 {
		t.Fatalf("restored engine counted %d late synopses on an in-order stream", got)
	}
}

// TestEngineSwapControlPlaneConcurrent hammers the control plane from many
// goroutines at once — swaps, checkpoints, model reads, stats — while
// feeders run: exactly the mix a lifecycle auto-promotion firing on a
// stream handler produces against the checkpoint tick and the /model
// endpoint. The engine's internal control mutex must serialize them; under
// -race this is the regression test for the old "one control goroutine"
// assumption, and any checkpoint or Model() taken mid-race must carry one
// whole model (A or B), never a blend of the two.
func TestEngineSwapControlPlaneConcurrent(t *testing.T) {
	modelA := trainedModel(t)
	modelB := trainedModelB(t)
	stream := multiGroupStream(4)

	eng := NewEngine(modelA)
	defer eng.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedEngineConcurrently(eng.Feed, stream)
	}()
	wholeModel := func(trainedOn int) bool {
		return trainedOn == modelA.TrainedOn || trainedOn == modelB.TrainedOn
	}
	for _, m := range []*Model{modelB, modelA, modelB} {
		m := m
		wg.Add(3)
		go func() {
			defer wg.Done()
			eng.SwapModel(m)
		}()
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if _, err := eng.WriteCheckpoint(&buf); err != nil {
				t.Error(err)
				return
			}
			det, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Error(err)
				return
			}
			if got := det.Model().TrainedOn; !wholeModel(got) {
				t.Errorf("mid-race checkpoint carries a blended model: TrainedOn = %d", got)
			}
		}()
		go func() {
			defer wg.Done()
			if got := eng.Model().TrainedOn; !wholeModel(got) {
				t.Errorf("mid-race Model() returned a blend: TrainedOn = %d", got)
			}
			eng.ShardStats()
			eng.PendingTasks()
		}()
	}
	wg.Wait()
	eng.Flush()
	if got := eng.Fed(); got != uint64(len(stream)) {
		t.Fatalf("Fed = %d, want %d: synopses dropped under control-plane contention", got, len(stream))
	}
	// The swap goroutines serialize in arbitrary order, so either model may
	// end up serving — but it must be one of them, whole.
	if got := eng.Model().TrainedOn; !wholeModel(got) {
		t.Fatalf("Model().TrainedOn = %d after the race, want one whole model", got)
	}
}

// TestModelDefensiveCopy: Detector.Model and Engine.Model hand back deep
// copies — a caller can sabotage every field of the returned model without
// changing what the serving detector reports.
func TestModelDefensiveCopy(t *testing.T) {
	stream := multiGroupStream(1)
	want := feedAll(NewDetector(trainedModel(t)), stream)
	sortAnomalies(want)
	if len(want) == 0 {
		t.Fatal("baseline produced no anomalies; mutation check is vacuous")
	}

	sabotage := func(m *Model) {
		for _, sm := range m.Stages {
			sm.FlowOutlierShare = 0.999
			sm.Total = 1
			for sig, s := range sm.Signatures {
				s.DurationThreshold = 0
				s.FlowOutlier = true
				s.PerfEligible = false
				delete(sm.Signatures, sig)
			}
		}
		delete(m.Stages, 1)
		m.Config.Alpha = 0.5
	}

	t.Run("detector", func(t *testing.T) {
		det := NewDetector(trainedModel(t))
		sabotage(det.Model())
		got := feedAll(det, stream)
		sortAnomalies(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mutating Model()'s return changed detection output:\ngot:  %v\nwant: %v", got, want)
		}
		// The serving model still reports intact state through a new copy.
		if m := det.Model(); m.Stages[1] == nil || len(m.Stages[1].Signatures) == 0 {
			t.Fatal("serving model was hollowed out by mutating a returned copy")
		}
	})

	t.Run("engine", func(t *testing.T) {
		eng := NewEngine(trainedModel(t))
		defer eng.Close()
		sabotage(eng.Model())
		for _, s := range stream {
			eng.Feed(s)
		}
		if got := eng.Flush(); !reflect.DeepEqual(got, want) {
			t.Fatalf("mutating Engine.Model()'s return changed detection output:\ngot:  %v\nwant: %v", got, want)
		}
	})
}
