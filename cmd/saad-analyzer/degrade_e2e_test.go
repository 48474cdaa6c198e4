package main

import (
	"encoding/json"
	"io"
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

	"saad/internal/analyzer"
	"saad/internal/stream"
	"saad/internal/tracker"
)

// metricValue scrapes one counter/gauge from the Prometheus text exposition.
func metricValue(t *testing.T, httpAddr, name string) (float64, bool) {
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
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := strings.TrimPrefix(line, name)
		if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
			continue // a longer metric name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parse %s value %q: %v", name, rest, err)
		}
		return v, true
	}
	return 0, false
}

// degradeStatus is the slice of /statusz the degradation tests care about.
type degradeStatus struct {
	Processed      uint64 `json:"processed"`
	Degraded       bool   `json:"degraded"`
	DegradedShards int    `json:"degraded_shards"`
	ShedSynopses   uint64 `json:"shed_synopses"`
	// Connections is empty once every stream's handler has read to EOF.
	Connections []string `json:"connections"`
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

// TestChaosRetryStormDegradesAndRecovers is the acceptance path for graceful
// degradation: a metastable storm of retrying clients saturates the single
// shard until admission control degrades it and sheds load; /metrics and
// /statusz stay responsive throughout; once the storm subsides, paced
// traffic recovers the shard via hysteresis; accounting is exact (every
// decoded frame is either processed or counted shed); and a post-recovery
// anomalous stream still yields the right verdict for the right host.
func TestChaosRetryStormDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	trainModelFile(t, modelPath)

	d, stop := runDaemon(t, detectOptions{
		modelPath:  modelPath,
		eventsPath: eventsPath,
		httpAddr:   "127.0.0.1:0",
		shards:     1,
		shardQueue: 64,
		admission: analyzer.AdmissionConfig{
			HighWater:     0.5,
			LowWater:      0.05,
			SaturateAfter: 8,
			RecoverAfter:  64,
			KeepEvery:     4,
		},
	})
	addr, httpAddr := d.srv.Addr(), d.http.Addr()

	status := func() degradeStatus {
		var doc degradeStatus
		getJSON(t, "http://"+httpAddr+"/statusz", &doc)
		return doc
	}

	// The storm: eight concurrent clients hammering the same (host, stage)
	// group as fast as TCP lets them — eight decode loops offering into one
	// shard worker. Each client redials in sessions so a write timeout during
	// the pre-degrade backpressure phase never silences the storm.
	var stormStop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stormStop.Load() {
				cli, err := stream.Dial(addr, 0)
				if err != nil {
					runtime.Gosched() // a full accept backlog: try again
					continue
				}
				tr := tracker.New(1, cli)
				at := epoch.Add(time.Duration(w) * time.Second)
				for i := 0; i < 2000 && !stormStop.Load(); i++ {
					task := tr.Begin(1, at)
					task.Hit(1, at.Add(time.Microsecond))
					task.Hit(2, at.Add(2*time.Microsecond))
					task.End(at.Add(2 * time.Microsecond))
					at = at.Add(3 * time.Microsecond)
				}
				_ = cli.Close()
			}
		}(w)
	}

	// Degradation must be observed while the storm rages: the shard flips
	// degraded and sheds. Both surfaces must answer the whole time (getJSON
	// fatals on any non-200 /statusz).
	waitUntil(t, 30*time.Second, "shard to degrade and shed under the storm", func() bool {
		doc := status()
		return doc.Degraded && doc.DegradedShards == 1 && doc.ShedSynopses > 0
	})
	if v, ok := metricValue(t, httpAddr, "saad_analyzer_degraded_transitions_total"); !ok || v < 1 {
		t.Fatalf("degraded_transitions_total = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := metricValue(t, httpAddr, "saad_analyzer_shed_synopses_total"); !ok || v < 1 {
		t.Fatalf("shed_synopses_total = %v (present=%v), want >= 1", v, ok)
	}

	stormStop.Store(true)
	wg.Wait()

	// Recovery is observation-driven: traffic on the same group that keeps
	// the queue calm until the hysteresis streak flips the shard back. The
	// pace is closed-loop — a task is sent once the shard has consumed (or
	// shed) the one before it — so every arrival finds the queue empty.
	waitUntil(t, 15*time.Second, "the storm's streams to be read to their end", func() bool {
		return len(d.srv.Remotes()) == 0
	})
	offered := d.eng.Fed() + d.eng.Shed()
	paced, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	pacedTr := tracker.New(1, paced)
	at := epoch.Add(30 * time.Second)
	for i := 0; i < 5000 && d.eng.Degraded(); i++ {
		task := pacedTr.Begin(1, at)
		task.Hit(1, at.Add(time.Microsecond))
		task.Hit(2, at.Add(2*time.Microsecond))
		task.End(at.Add(2 * time.Microsecond))
		at = at.Add(3 * time.Microsecond)
		if err := paced.Flush(); err != nil {
			t.Fatal(err)
		}
		offered++
		waitUntil(t, 5*time.Second, "the shard to take the paced task", func() bool {
			return d.eng.Fed()+d.eng.Shed() == offered && d.eng.ShardStats()[0].QueueLen == 0
		})
	}
	recovered := !status().Degraded
	if err := paced.Close(); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("shard never recovered from degraded mode under paced traffic")
	}
	var ready struct {
		Ready    bool `json:"ready"`
		Degraded bool `json:"degraded"`
	}
	getJSON(t, "http://"+httpAddr+"/readyz", &ready)
	if !ready.Ready || ready.Degraded {
		t.Fatalf("/readyz after recovery = %+v, want ready and not degraded", ready)
	}

	// Post-recovery, nothing is sampled away: an anomalous stream from host 2
	// ({1}-only premature exits, a signature unseen in training) must reach
	// the detector whole and produce a host-2 verdict.
	cli, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := tracker.New(2, cli)
	at2 := epoch.Add(time.Hour)
	for i := 0; i < 80; i++ {
		task := tr2.Begin(1, at2)
		task.Hit(1, at2.Add(time.Millisecond))
		task.Hit(2, at2.Add(2*time.Millisecond))
		task.End(at2.Add(2 * time.Millisecond))
		at2 = at2.Add(time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		task := tr2.Begin(1, at2)
		task.Hit(1, at2.Add(time.Millisecond))
		task.End(at2.Add(time.Millisecond))
		at2 = at2.Add(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	// Exact accounting: the engine is the server's sink, so every frame the
	// server ever decoded was offered to admission — processed + shed must
	// meet frames_received exactly once the handlers drain — all of them:
	// the sum also balances while host 2's frames still sit unread in the
	// socket, and a shutdown begun then would cut them off.
	waitUntil(t, 15*time.Second, "processed + shed to meet frames_received", func() bool {
		fr, ok := metricValue(t, httpAddr, "saad_stream_tcp_server_frames_received_total")
		if !ok {
			return false
		}
		doc := status()
		return len(doc.Connections) == 0 && uint64(fr) == doc.Processed+doc.ShedSynopses && fr > 0
	})
	finalStatus := status()
	if finalStatus.ShedSynopses == 0 {
		t.Fatal("shed_synopses = 0 after the storm, want > 0")
	}

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
