package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saad/internal/metrics"
	"saad/internal/stream"
	"saad/internal/tracker"
)

// metricValue scrapes one counter or gauge from the Prometheus text
// exposition, summed over its label sets (a per-shard family reads as the
// engine's total), and fails the test when the daemon does not export it.
func metricValue(t *testing.T, httpAddr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var sum float64
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok {
			continue
		}
		if strings.HasPrefix(rest, "{") {
			_, rest, _ = strings.Cut(rest, "}")
		} else if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
			continue // a longer metric name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parse %s value %q: %v", name, rest, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("/metrics has no %s", name)
	}
	return sum
}

// TestShutdownFlipsReadyBeforeDrain: with -drain-grace, shutdown must flip
// /readyz to not-ready FIRST and keep both the observability server and the
// synopsis listener alive through the grace window — so load balancers stop
// routing while in-flight streams still land — before the listener drains.
func TestShutdownFlipsReadyBeforeDrain(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	trainModelFile(t, modelPath)

	d, stop := runDaemon(t, detectOptions{
		modelPath:  modelPath,
		httpAddr:   "127.0.0.1:0",
		drainGrace: 800 * time.Millisecond,
	})
	addr, httpAddr := d.srv.Addr(), d.http.Addr()

	readyStatus := func() int {
		resp, err := http.Get("http://" + httpAddr + "/readyz")
		if err != nil {
			return -1
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	waitUntil(t, 5*time.Second, "initial /readyz 200", func() bool {
		return readyStatus() == http.StatusOK
	})

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	waitUntil(t, 5*time.Second, "/readyz to flip to 503", func() bool {
		return readyStatus() == http.StatusServiceUnavailable
	})

	// We are inside the drain grace: not-ready is visible, but shutdown has
	// not finished and the synopsis listener still accepts streams.
	select {
	case <-stopped:
		t.Fatal("shutdown finished before the drain grace elapsed")
	default:
	}
	cli, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatalf("listener gone while /readyz already 503 — drain ran before the ready flip: %v", err)
	}
	tr := tracker.New(1, cli)
	task := tr.Begin(1, epoch)
	task.Hit(1, epoch.Add(time.Millisecond))
	task.Hit(2, epoch.Add(2*time.Millisecond))
	task.End(epoch.Add(2 * time.Millisecond))
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readyStatus(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d during drain grace, want 503", got)
	}

	<-stopped
}

// TestChaosRetryStormBackpressure is the acceptance path for overload: two
// storms of eight clients hammering one (host, stage) group of a one-shard
// daemon at the default queue — plain clients redialling session after
// session, then long-lived WithReconnect clients whose 20 ms write timeout
// turns every stall into a spill and a redial. /statusz and /metrics must
// answer every poll of both, and the second must really push back
// (shard_overflows_total grows; at the default queue the plain storm does
// not fill it, DESIGN §14). Nothing received may be lost
// (frames_received_total == processed, exactly), every client must account
// for what its tracker emitted (emitted == frames_sent + frames_dropped),
// and an anomalous stream from host 2 after the storms must still yield
// its verdict.
func TestChaosRetryStormBackpressure(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	trainModelFile(t, modelPath)

	d, stop := runDaemon(t, detectOptions{
		modelPath:  modelPath,
		eventsPath: eventsPath,
		httpAddr:   "127.0.0.1:0",
		shards:     1,
	})
	addr, httpAddr := d.srv.Addr(), d.http.Addr()

	// Every client shares one metrics bundle, and adds what its tracker
	// emitted once it has closed.
	clients := metrics.NewTCPClientMetrics(metrics.NewRegistry())
	var emitted atomic.Uint64
	// stormTasks runs up to n healthy tasks of host 1's stage 1 through tr,
	// 3 µs of event time apart, as fast as the client takes them.
	stormTasks := func(tr *tracker.Tracker, w, n int, stopped *atomic.Bool) {
		at := epoch.Add(time.Duration(w) * time.Second)
		for i := 0; i < n && !stopped.Load(); i++ {
			task := tr.Begin(1, at)
			task.Hit(1, at.Add(time.Microsecond))
			task.Hit(2, at.Add(2*time.Microsecond))
			task.End(at.Add(2 * time.Microsecond))
			at = at.Add(3 * time.Microsecond)
		}
	}
	// storm runs client on eight goroutines for at least a second — and, with
	// pushBack, until a feed has found the shard queue full — while both
	// surfaces answer every poll (getJSON and metricValue fail the test on
	// anything but 200).
	storm := func(name string, pushBack bool, client func(w int, stopped *atomic.Bool)) {
		t.Helper()
		before := metricValue(t, httpAddr, "saad_analyzer_shard_overflows_total")
		var stopped atomic.Bool
		var wg sync.WaitGroup
		defer func() { // also on the way out of a failure
			stopped.Store(true)
			wg.Wait()
		}()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				client(w, &stopped)
			}(w)
		}
		start := time.Now()
		var doc struct{}
		waitUntil(t, 30*time.Second, "the "+name+" storm to run its course", func() bool {
			getJSON(t, "http://"+httpAddr+"/statusz", &doc)
			overflows := metricValue(t, httpAddr, "saad_analyzer_shard_overflows_total")
			return (overflows > before || !pushBack) && time.Since(start) >= time.Second
		})
	}

	storm("plain", false, func(w int, stopped *atomic.Bool) {
		for !stopped.Load() {
			cli, err := stream.Dial(addr, 0, stream.WithClientMetrics(clients))
			if err != nil {
				runtime.Gosched() // a full accept backlog: try again
				continue
			}
			tr := tracker.New(1, cli)
			stormTasks(tr, w, 2000, stopped)
			_ = cli.Close()
			emitted.Add(tr.Emitted())
		}
	})
	storm("reconnecting", true, func(w int, stopped *atomic.Bool) {
		cli, err := stream.Dial(addr, 0, stream.WithReconnect(stream.ReconnectConfig{}),
			stream.WithWriteTimeout(20*time.Millisecond), stream.WithClientMetrics(clients))
		if err != nil {
			t.Error(err)
			return
		}
		tr := tracker.New(1, cli)
		stormTasks(tr, w, math.MaxInt, stopped)
		_ = cli.Close()
		emitted.Add(tr.Emitted())
	})

	// After the storms, an anomalous stream from host 2 ({1}-only premature
	// exits, a signature unseen in training) must reach the detector whole.
	cli, err := stream.Dial(addr, 0, stream.WithClientMetrics(clients))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := tracker.New(2, cli)
	at := epoch.Add(time.Hour)
	for i := 0; i < 120; i++ {
		task := tr2.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		if i < 80 {
			task.Hit(2, at.Add(2*time.Millisecond))
		}
		task.End(at.Add(2 * time.Millisecond))
		at = at.Add(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	emitted.Add(tr2.Emitted())

	// Exact accounting once every handler has read its stream to the end:
	// each client counted every synopsis it was handed as sent or dropped,
	// the server decoded what the clients sent (a frame cut by a timed-out
	// write is replayed whole, never received in part), and backpressure
	// dropped nothing between the decoder and the engine.
	waitUntil(t, 15*time.Second, "every stream to be read to its end", func() bool {
		return len(d.srv.Remotes()) == 0
	})
	var doc struct {
		Processed uint64 `json:"processed"`
	}
	getJSON(t, "http://"+httpAddr+"/statusz", &doc)
	received := metricValue(t, httpAddr, "saad_stream_tcp_server_frames_received_total")
	sent, dropped := clients.FramesSent.Value(), clients.FramesDropped.Value()
	if emitted.Load() != sent+dropped {
		t.Fatalf("trackers emitted %d, clients sent %d + dropped %d", emitted.Load(), sent, dropped)
	}
	if uint64(received) != sent {
		t.Fatalf("clients sent %d, frames_received_total = %.0f", sent, received)
	}
	if uint64(received) != doc.Processed || doc.Processed == 0 {
		t.Fatalf("frames_received_total = %.0f, processed = %d; backpressure must lose nothing", received, doc.Processed)
	}
	overflows := metricValue(t, httpAddr, "saad_analyzer_shard_overflows_total")
	t.Logf("processed %d; %.0f feeds found the queue full; clients: %d sent, %d dropped, %d transport errors",
		doc.Processed, overflows, sent, dropped, clients.Errors.Value())

	stop()

	// The flush at shutdown closes host 2's window; its anomaly must be in
	// the event log attributed to host 2.
	raw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	var host2 bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Host uint16 `json:"host"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("invalid event line %q: %v", line, err)
		}
		if ev.Host == 2 {
			host2 = true
		}
	}
	if !host2 {
		t.Fatalf("no host-2 anomaly in the event log (%d bytes)", len(raw))
	}
}
