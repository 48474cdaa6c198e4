package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/report"
	"saad/internal/stream"
	"saad/internal/trace"
	"saad/internal/tracker"
)

// trainModelFile trains a model on healthy {1,2} flows and writes it.
func trainModelFile(t *testing.T, path string) {
	t.Helper()
	train := stream.NewChannel(1 << 12)
	tr := tracker.New(1, train)
	for i := 0; i < 600; i++ {
		at := epoch.Add(time.Duration(i) * time.Millisecond)
		task := tr.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		task.Hit(2, at.Add(2*time.Millisecond))
		task.End(at.Add(2 * time.Millisecond))
	}
	model, err := analyzer.Train(analyzer.DefaultConfig(), train.Drain())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: invalid JSON: %v", url, err)
	}
}

// TestTraceEndToEnd is the acceptance path for pipeline tracing: a sampling
// tracker streams over real TCP into detect mode with -trace-sample=1, an
// anomaly fires, and its JSONL event carries a complete span (every hop
// stamped, monotonic) plus a non-empty flight snapshot — while /trace,
// /flight and /statusz serve valid JSON under feed.
func TestTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	trainModelFile(t, modelPath)

	d, stop := runDaemon(t, detectOptions{
		modelPath:   modelPath,
		eventsPath:  eventsPath,
		httpAddr:    "127.0.0.1:0",
		traceSample: 1,
	})
	addr, httpAddr := d.srv.Addr(), d.http.Addr()

	// A span-sampling tracker: every task carries a span from Task.End on.
	cli, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracker.New(1, cli)
	tr.SetSampler(trace.NewSampler(1))
	at := epoch
	for i := 0; i < 100; i++ {
		task := tr.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		task.Hit(2, at.Add(2*time.Millisecond))
		task.End(at.Add(2 * time.Millisecond))
		at = at.Add(time.Millisecond)
	}
	// Premature {1}-only exits: a signature unseen in training → anomaly.
	for i := 0; i < 5; i++ {
		task := tr.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		task.End(at.Add(time.Millisecond))
		at = at.Add(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	// Wait (via /statusz) until the engine has consumed the whole stream.
	var status struct {
		Mode        string `json:"mode"`
		Processed   uint64 `json:"processed"`
		TraceSample int    `json:"trace_sample_every"`
	}
	waitUntil(t, 10*time.Second, "/statusz to show the whole stream processed", func() bool {
		getJSON(t, "http://"+httpAddr+"/statusz", &status)
		return status.Processed == 105
	})
	if status.Mode != "detecting" || status.TraceSample != 1 {
		t.Fatalf("statusz = %+v", status)
	}

	// The operator surfaces serve valid JSON while the pipeline is live.
	var spansDoc struct {
		SampleEvery int              `json:"sample_every"`
		Spans       []map[string]any `json:"spans"`
	}
	getJSON(t, "http://"+httpAddr+"/trace", &spansDoc)
	if spansDoc.SampleEvery != 1 || len(spansDoc.Spans) == 0 {
		t.Fatalf("trace endpoint: sample_every=%d spans=%d, want 1/nonzero", spansDoc.SampleEvery, len(spansDoc.Spans))
	}
	var flightDoc struct {
		Events []map[string]any `json:"events"`
	}
	getJSON(t, "http://"+httpAddr+"/flight", &flightDoc)
	if len(flightDoc.Events) == 0 {
		t.Fatal("flight endpoint returned no events under feed")
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + httpAddr + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d under feed, want 200", probe, resp.StatusCode)
		}
	}
	// The Prometheus side observed the sampled spans.
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "saad_detection_latency_seconds_count") {
		t.Fatal("/metrics missing the detection latency histogram")
	}

	// Graceful stop flushes the open window, emitting the anomaly event.
	stop()

	ef, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := report.ReadEvents(ef)
	if cerr := ef.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no anomaly events written")
	}
	var withSpan *report.AnomalyEvent
	for i := range events {
		if events[i].Span != nil {
			withSpan = &events[i]
			break
		}
	}
	if withSpan == nil {
		t.Fatalf("no event carries a span; events: %+v", events)
	}
	sp := withSpan.Span
	if !sp.Complete {
		t.Fatalf("span incomplete: %+v", sp)
	}
	stamps := []int64{sp.EmitNs, sp.SendNs, sp.RecvNs, sp.EnqueueNs, sp.DetectNs, sp.DoneNs}
	for i, v := range stamps {
		if v <= 0 {
			t.Fatalf("stamp %d missing: %+v", i, sp)
		}
		if i > 0 && v < stamps[i-1] {
			t.Fatalf("stamps not monotonic at %d: %+v", i, sp)
		}
	}
	for name, hop := range map[string]int64{
		"emit_to_send": sp.EmitToSendNs,
		"wire":         sp.WireNs,
		"queue_wait":   sp.QueueWaitNs,
		"detect_time":  sp.DetectTimeNs,
	} {
		if hop < 0 {
			t.Fatalf("%s hop negative: %+v", name, sp)
		}
	}
	if sp.TotalNs != sp.DoneNs-sp.EmitNs {
		t.Fatalf("total %d != done-emit %d", sp.TotalNs, sp.DoneNs-sp.EmitNs)
	}
	if len(withSpan.Flight) == 0 {
		t.Fatal("anomaly event has an empty flight snapshot")
	}
}
