package trace

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestSpanHopsAndComplete(t *testing.T) {
	base := time.Now().UnixNano()
	sp := &Span{
		Stage: 3, Host: 7, TaskID: 42,
		Emit:    base,
		Send:    base + 10,
		Recv:    base + 30,
		Enqueue: base + 35,
		Detect:  base + 55,
		Done:    base + 60,
	}
	if !sp.Complete() {
		t.Fatalf("span should be complete: %+v", sp)
	}
	if got := sp.EmitToSend(); got != 10 {
		t.Errorf("EmitToSend = %d, want 10", got)
	}
	if got := sp.Wire(); got != 20 {
		t.Errorf("Wire = %d, want 20", got)
	}
	if got := sp.QueueWait(); got != 20 {
		t.Errorf("QueueWait = %d, want 20", got)
	}
	if got := sp.DetectTime(); got != 5 {
		t.Errorf("DetectTime = %d, want 5", got)
	}
	if got := sp.Total(); got != 60 {
		t.Errorf("Total = %d, want 60", got)
	}
}

func TestSpanPartial(t *testing.T) {
	base := time.Now().UnixNano()
	// Analyzer-originated span: no Emit/Send, starts at Recv.
	sp := &Span{Recv: base, Enqueue: base + 5, Detect: base + 15, Done: base + 20}
	if sp.Complete() {
		t.Fatal("partial span must not report complete")
	}
	if got := sp.EmitToSend(); got != 0 {
		t.Errorf("EmitToSend = %d, want 0 for missing stamps", got)
	}
	if got := sp.Wire(); got != 0 {
		t.Errorf("Wire = %d, want 0 for missing Send", got)
	}
	if got := sp.Total(); got != 20 {
		t.Errorf("Total = %d, want 20 (recv->done)", got)
	}
	var zero Span
	if zero.Total() != 0 || zero.Complete() {
		t.Error("zero span must have zero total and not be complete")
	}
	// Non-monotonic stamps are not complete.
	bad := &Span{Emit: base, Send: base - 1, Recv: base, Enqueue: base, Detect: base, Done: base}
	if bad.Complete() {
		t.Error("non-monotonic span must not report complete")
	}
}

func TestSamplerRate(t *testing.T) {
	if NewSampler(0) != nil || NewSampler(-3) != nil {
		t.Fatal("non-positive rates must return nil sampler")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler must never sample")
	}
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatalf("every=1 must sample call %d", i)
		}
	}
	s4 := NewSampler(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s4.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("every=4 sampled %d of 400, want 100", hits)
	}
}

func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(8)
	const goroutines, per = 8, 1000
	counts := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if s.Sample() {
					counts[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if want := goroutines * per / 8; total != want {
		t.Fatalf("concurrent sampling got %d, want exactly %d", total, want)
	}
}

func TestSpanBuffer(t *testing.T) {
	b := NewSpanBuffer(4)
	if got := b.Snapshot(); len(got) != 0 {
		t.Fatalf("empty buffer snapshot has %d spans", len(got))
	}
	for i := 1; i <= 6; i++ {
		b.Push(&Span{TaskID: uint64(i)})
	}
	got := b.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if got[i].TaskID != want {
			t.Errorf("snapshot[%d].TaskID = %d, want %d", i, got[i].TaskID, want)
		}
	}
	var nilB *SpanBuffer
	nilB.Push(&Span{})
	if nilB.Snapshot() != nil {
		t.Error("nil buffer snapshot must be nil")
	}
}

func TestFlightRingBasics(t *testing.T) {
	r := NewFlightRing(5) // rounds up to 16
	if len(r.slots) != 16 {
		t.Fatalf("slots = %d, want 16", len(r.slots))
	}
	if r.Len() != 0 || len(r.Snapshot()) != 0 {
		t.Fatal("new ring must be empty")
	}
	r.Record(EventWindowOpen, 2, 9, 111, 0)
	r.Record(EventWindowClose, 2, 9, 5, 1)
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(evs))
	}
	if evs[0].Kind != EventWindowClose || evs[1].Kind != EventWindowOpen {
		t.Fatalf("snapshot order wrong: %+v", evs)
	}
	if evs[0].Stage != 2 || evs[0].Host != 9 || evs[0].A != 5 || evs[0].B != 1 {
		t.Fatalf("event payload wrong: %+v", evs[0])
	}
	if evs[0].Nanos < evs[1].Nanos {
		t.Fatal("newer event must have later timestamp")
	}
	var nilR *FlightRing
	nilR.Record(EventSynopsis, 0, 0, 0, 0)
	if nilR.Len() != 0 || nilR.Snapshot() != nil {
		t.Fatal("nil ring must be inert")
	}
}

func TestFlightRingWrap(t *testing.T) {
	r := NewFlightRing(16)
	for i := 0; i < 40; i++ {
		r.Record(EventSynopsis, 1, 1, uint64(i), 0)
	}
	if r.Len() != 16 {
		t.Fatalf("Len = %d, want 16", r.Len())
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(39 - i); ev.A != want {
			t.Fatalf("snapshot[%d].A = %d, want %d (newest first)", i, ev.A, want)
		}
	}
}

func TestFlightRingConcurrent(t *testing.T) {
	r := NewFlightRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Record(EventSynopsis, uint16(g), 1, uint64(i), 0)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot() {
				if ev.Kind != EventSynopsis {
					t.Errorf("torn read surfaced: %+v", ev)
					return
				}
			}
		}
	}()
	// Wait for writers, then stop the reader.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64 after saturation", r.Len())
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventSynopsis:    "synopsis",
		EventWindowOpen:  "window_open",
		EventWindowClose: "window_close",
		EventModelSwap:   "model_swap",
		EventLateDrop:    "late_drop",
		EventKind(99):    "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestTracerLifecycle(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SpanCapacity: 8, RingCapacity: 16})
	if tr.Sampler() == nil {
		t.Fatal("sampling on must yield a sampler")
	}
	sp := &Span{TaskID: 1, Done: time.Now().UnixNano()}
	tr.SpanDone(sp)
	if len(tr.Spans()) != 1 {
		t.Fatalf("span not published: spans=%d", len(tr.Spans()))
	}
	r0 := tr.ShardRing(0)
	r2 := tr.ShardRing(2)
	if r0 == nil || r2 == nil || r0 == r2 {
		t.Fatal("shard rings must be distinct and non-nil")
	}
	if tr.ShardRing(0) != r0 {
		t.Fatal("shard ring must be stable across calls")
	}
	r0.Record(EventWindowOpen, 1, 1, 0, 0)
	r2.Record(EventModelSwap, 0, 0, 0, 0)
	evs := tr.FlightSnapshot(0)
	if len(evs) != 2 {
		t.Fatalf("FlightSnapshot merged %d events, want 2", len(evs))
	}
	if evs[0].Nanos < evs[1].Nanos {
		t.Fatal("FlightSnapshot must be newest first")
	}
	if got := tr.FlightSnapshot(1); len(got) != 1 {
		t.Fatalf("FlightSnapshot(1) returned %d events", len(got))
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sampler() != nil || tr.Spans() != nil || tr.FlightSnapshot(0) != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}
	if tr.ShardRing(0) != nil {
		t.Fatal("nil tracer rings must be nil")
	}
	tr.SpanDone(&Span{}) // must not panic
}

func TestHandlersServeJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 2})
	base := time.Now().UnixNano()
	tr.SpanDone(&Span{
		Stage: 1, Host: 2, TaskID: 3,
		Emit: base, Send: base + 1, Recv: base + 2,
		Enqueue: base + 3, Detect: base + 4, Done: base + 5,
	})
	tr.ShardRing(0).Record(EventSynopsis, 1, 2, 3, 0)

	rec := httptest.NewRecorder()
	tr.SpansHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var spansBody struct {
		SampleEvery int `json:"sample_every"`
		Spans       []struct {
			TaskID   uint64 `json:"task_id"`
			Total    int64  `json:"total_ns"`
			Complete bool   `json:"complete"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &spansBody); err != nil {
		t.Fatalf("/trace not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if spansBody.SampleEvery != 2 || len(spansBody.Spans) != 1 {
		t.Fatalf("unexpected /trace body: %+v", spansBody)
	}
	if !spansBody.Spans[0].Complete || spansBody.Spans[0].Total != 5 {
		t.Fatalf("span JSON wrong: %+v", spansBody.Spans[0])
	}

	rec = httptest.NewRecorder()
	tr.FlightHandler(0).ServeHTTP(rec, httptest.NewRequest("GET", "/flight", nil))
	var flightBody struct {
		Events []struct {
			Kind string `json:"kind"`
			A    uint64 `json:"a"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &flightBody); err != nil {
		t.Fatalf("/flight not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if len(flightBody.Events) != 1 || flightBody.Events[0].Kind != "synopsis" || flightBody.Events[0].A != 3 {
		t.Fatalf("unexpected /flight body: %+v", flightBody)
	}

	// Nil tracer handlers must still serve valid JSON.
	var nilTr *Tracer
	rec = httptest.NewRecorder()
	nilTr.SpansHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &map[string]any{}); err != nil {
		t.Fatalf("nil tracer /trace not valid JSON: %v", err)
	}
	rec = httptest.NewRecorder()
	nilTr.FlightHandler(10).ServeHTTP(rec, httptest.NewRequest("GET", "/flight", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &map[string]any{}); err != nil {
		t.Fatalf("nil tracer /flight not valid JSON: %v", err)
	}
}
