package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// registerPipelineFixture builds a registry holding every pipeline family
// plus a channel, with a few nonzero values.
func registerPipelineFixture(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	p := NewPipeline(r)
	RegisterChannel(r,
		func() uint64 { return 7 }, func() uint64 { return 2 },
		func() int { return 3 }, func() int { return 16 })
	NewTCPClientMetrics(r)
	NewTCPServerMetrics(r)
	p.Tracker.TasksBegun.Add(10)
	p.Analyzer.WindowCloseLatency.Observe(0.004)
	p.Analyzer.Anomalies.With("flow", "3").Inc()
	p.Analyzer.ShardQueueDepth.With("0").Set(5)
	p.Analyzer.ShardBusyNanos.With("0").Add(1200)
	p.Analyzer.ShardSynopses.With("0").Inc()
	p.Analyzer.ShardOverflows.With("0").Inc()
	p.Analyzer.DetectionLatency.With("3").Observe(0.002)
	p.Monitor.Mode.Set(2)
	return r
}

// parsePrometheus runs a strict line-level parse of the exposition format:
// every non-comment line must be `name[{labels}] value`, every sample must
// be preceded by HELP and TYPE for its family. It returns the set of family
// names that have at least one sample.
func parsePrometheus(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	typed := map[string]string{}
	helped := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type %q in %q", parts[1], line)
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("sample %q has non-numeric value %q: %v", series, value, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = series[:i]
		}
		// Histogram child series map back to their family name.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && typed[f] == "histogram" {
				family = f
			}
		}
		if !helped[family] || typed[family] == "" {
			t.Fatalf("sample %q not preceded by HELP+TYPE for %q", line, family)
		}
		families[family] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

func TestMetricsHandlerServesEveryRegisteredSeries(t *testing.T) {
	r := registerPipelineFixture(t)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	families := parsePrometheus(t, out)
	for _, name := range r.Names() {
		if !families[name] {
			t.Errorf("registered series %q missing from /metrics output", name)
		}
	}
	// Spot-check the values made nonzero in the fixture.
	for _, want := range []string{
		"saad_tracker_tasks_begun_total 10",
		"saad_stream_channel_emits_total 7",
		"saad_stream_channel_drops_total 2",
		`saad_analyzer_anomalies_total{kind="flow",stage="3"} 1`,
		"saad_analyzer_window_close_seconds_count 1",
		"saad_monitor_mode 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestVarsHandler(t *testing.T) {
	r := registerPipelineFixture(t)
	mux := NewMux(r)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("vars output is not JSON: %v", err)
	}
	if got := doc["saad_tracker_tasks_begun_total"]; got != float64(10) {
		t.Fatalf("tasks begun = %v, want 10", got)
	}
	// Histograms serialize as {count, sum, buckets}; the +Inf bound must be
	// the string "+Inf" (JSON has no infinity).
	hist, ok := doc["saad_analyzer_window_close_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram missing from vars output: %v", doc["saad_analyzer_window_close_seconds"])
	}
	buckets, ok := hist["buckets"].([]any)
	if !ok || len(buckets) == 0 {
		t.Fatalf("histogram buckets missing: %v", hist)
	}
	last, ok := buckets[len(buckets)-1].(map[string]any)
	if !ok || last["le"] != "+Inf" {
		t.Fatalf("last bucket le = %v, want +Inf", last["le"])
	}
}

func TestMuxServesPprof(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	r := registerPipelineFixture(t)
	srv, err := ServeMux("127.0.0.1:0", NewMux(r))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
