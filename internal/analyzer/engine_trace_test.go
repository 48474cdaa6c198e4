package analyzer

import (
	"testing"
	"time"

	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/trace"
)

// tracedDetectStream is a short healthy stream where every synopsis carries
// a span stamped as if it had just crossed the wire.
func tracedDetectStream(n int) []*synopsis.Synopsis {
	ts := epoch
	var syns []*synopsis.Synopsis
	for i := 0; i < n; i++ {
		s := makeSyn(1, 1, ts, 10*time.Millisecond, 1, 2, 4, 5)
		now := time.Now().UnixNano()
		s.Trace = &trace.Span{
			Stage: 1, Host: 1, TaskID: s.TaskID,
			Emit: now - 3000, Send: now - 2000, Recv: now - 1000,
		}
		ts = ts.Add(30 * time.Millisecond)
		syns = append(syns, s)
	}
	return syns
}

func TestEngineCompletesSpansAndRecordsFlight(t *testing.T) {
	model := trainedModel(t)
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Config{SampleEvery: 1, RingCapacity: 8192})
	e := NewEngine(model,
		WithEngineMetrics(metrics.NewPipeline(reg).Analyzer),
		WithEngineTracer(tr))
	defer e.Close()

	// Two windows' worth of traffic so at least one window closes.
	stream := tracedDetectStream(4000)
	for _, s := range stream {
		e.Feed(s)
	}
	e.Drain()

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("tracer retained no completed spans")
	}
	for _, sp := range spans {
		if !sp.Complete() {
			t.Fatalf("span incomplete after engine pass: %+v", sp)
		}
		if sp.Enqueue < sp.Recv || sp.Detect < sp.Enqueue || sp.Done < sp.Detect {
			t.Fatalf("engine stamps not monotonic: %+v", sp)
		}
		if sp.Total() <= 0 {
			t.Fatalf("completed span has non-positive total: %+v", sp)
		}
	}

	// The detection-latency histogram observed every completed span.
	snap := reg.Snapshot()
	h, ok := snap.Histograms[`saad_detection_latency_seconds{stage="1"}`]
	if !ok {
		t.Fatalf("detection latency series missing; histograms: %v", keysOf(snap.Histograms))
	}
	if h.Count != uint64(len(stream)) {
		t.Fatalf("histogram count = %d, want %d (one per sampled synopsis)", h.Count, len(stream))
	}

	// The flight recorder saw the traffic: synopsis events plus at least one
	// window_open and one window_close.
	events := tr.FlightSnapshot(16384)
	if len(events) == 0 {
		t.Fatal("flight snapshot empty after feeding traffic")
	}
	kinds := map[trace.EventKind]int{}
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && events[i-1].Nanos < ev.Nanos {
			// Snapshot is newest-first; tolerate equal stamps.
			t.Fatalf("flight snapshot out of order at %d: %d then %d", i, events[i-1].Nanos, ev.Nanos)
		}
	}
	if kinds[trace.EventSynopsis] == 0 {
		t.Fatalf("no synopsis events in flight snapshot: %v", kinds)
	}
	if kinds[trace.EventWindowOpen] == 0 || kinds[trace.EventWindowClose] == 0 {
		t.Fatalf("window lifecycle missing from flight snapshot: %v", kinds)
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestEngineSwapRecordsFlightEvent(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1})
	e := NewEngine(trainedModel(t), WithEngineTracer(tr))
	defer e.Close()

	for _, s := range tracedDetectStream(50) {
		e.Feed(s)
	}
	e.SwapModel(trainedModelB(t))
	for _, s := range tracedDetectStream(50) {
		e.Feed(s)
	}
	e.Drain()

	var swaps int
	for _, ev := range tr.FlightSnapshot(1024) {
		if ev.Kind == trace.EventModelSwap {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("model swap left no flight-recorder event")
	}
	// Spans fed after the swap still complete on the swapped core.
	for _, sp := range tr.Spans() {
		if sp.Done == 0 {
			t.Fatalf("span not completed after swap: %+v", sp)
		}
	}
}

func TestEngineLateSynopsisRecordsDrop(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1})
	e := NewEngine(trainedModel(t), WithEngineTracer(tr))
	defer e.Close()

	ts := epoch
	for i := 0; i < 200; i++ {
		e.Feed(makeSyn(1, 1, ts, 10*time.Millisecond, 1, 2, 4, 5))
		ts = ts.Add(time.Second)
	}
	// A straggler two windows behind the group's watermark.
	e.Feed(makeSyn(1, 1, epoch.Add(-2*time.Minute), 10*time.Millisecond, 1, 2, 4, 5))
	e.Drain()

	if e.LateSynopses() == 0 {
		t.Skip("straggler not classified late by this config")
	}
	var drops int
	for _, ev := range tr.FlightSnapshot(2048) {
		if ev.Kind == trace.EventLateDrop {
			drops++
			if ev.Stage != 1 || ev.Host != 1 {
				t.Fatalf("late-drop event has wrong identity: %+v", ev)
			}
		}
	}
	if drops == 0 {
		t.Fatal("late synopsis left no flight-recorder event")
	}
}

// TestEngineUntracedFeedKeepsWorking pins the common path: with a tracer
// attached but no spans on the synopses, detection runs normally and the
// tracer retains nothing.
func TestEngineUntracedFeedKeepsWorking(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1})
	e := NewEngine(trainedModel(t), WithEngineTracer(tr))
	defer e.Close()
	ts := epoch
	for i := 0; i < 500; i++ {
		e.Feed(makeSyn(1, 1, ts, 10*time.Millisecond, 1, 2, 4, 5))
		ts = ts.Add(30 * time.Millisecond)
	}
	e.Drain()
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("tracer retained %d spans from untraced traffic", len(got))
	}
	if e.Fed() != 500 {
		t.Fatalf("fed = %d, want 500", e.Fed())
	}
}
