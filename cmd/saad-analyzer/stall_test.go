package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/tracker"
)

// TestStatuszAnswersWhileSinkIsStalled: /statusz is for the moment something
// is wrong, so it must not wait on the data path. Stdout is a pipe nobody
// reads; one window closing with 1,200 never-seen flows prints far more than
// a pipe holds, which leaves the engine's worker stuck in the anomaly sink,
// under the report mutex. /statusz keeps answering within 100 ms and shows
// the wedge: every frame accepted and taken off the queue, but the one that
// closes the window not finished, so the open-window count is still what
// the earlier frames left, not the one task the closing frame opens.
// Draining the pipe lets the daemon finish.
func TestStatuszAnswersWhileSinkIsStalled(t *testing.T) {
	modelPath := filepath.Join(t.TempDir(), "model.json")
	trainModelFile(t, modelPath)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w

	// finish unsticks the sink, stops the daemon and gives stdout back; it
	// also runs on the way out of a failure, or the worker stays stuck.
	var stop func()
	finish := sync.OnceFunc(func() {
		drained := make(chan struct{})
		go func() {
			_, _ = io.Copy(io.Discard, r)
			close(drained)
		}()
		if stop != nil {
			stop()
		}
		os.Stdout = stdout
		_ = w.Close()
		<-drained
	})
	defer finish()
	var d *daemon
	d, stop = runDaemon(t, detectOptions{
		modelPath: modelPath,
		httpAddr:  "127.0.0.1:0",
	})
	addr, httpAddr := d.srv.Addr(), d.http.Addr()

	const flows = 1200
	cli, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracker.New(1, cli)
	for i := 0; i < flows; i++ {
		at := epoch.Add(time.Duration(i) * time.Microsecond)
		task := tr.Begin(1, at)
		task.Hit(logpoint.ID(100+i), at)
		task.End(at)
	}
	next := epoch.Add(2 * time.Minute) // two windows on: closes the first
	task := tr.Begin(1, next)
	task.Hit(1, next)
	task.Hit(2, next)
	task.End(next)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	type status struct {
		Processed uint64 `json:"processed"`
		Anomalies int    `json:"anomalies"`
		QueueLen  int    `json:"queue_len"`
		Pending   int    `json:"pending"`
	}
	client := &http.Client{Timeout: 2 * time.Second}
	get := func() (status, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := client.Get("http://" + httpAddr + "/statusz")
		if err != nil {
			t.Fatalf("GET /statusz with the sink stalled: %v", err)
		}
		defer resp.Body.Close()
		var doc status
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("GET /statusz: invalid JSON: %v", err)
		}
		return doc, time.Since(start)
	}
	waitUntil(t, 10*time.Second, "the window's anomalies to reach the sink", func() bool {
		doc, _ := get()
		return doc.Anomalies >= flows
	})
	// The sink is now printing its way into the full pipe, if not there yet.
	// A scheduling hiccup may slow one request on a loaded machine, not five.
	best := time.Hour
	for i := 0; i < 5; i++ {
		doc, took := get()
		best = min(best, took)
		if doc.Processed != flows+1 || doc.QueueLen != 0 || doc.Pending == 1 {
			t.Fatalf("/statusz with the sink stalled: %+v; want %d processed, nothing queued and the closing frame unfinished", doc, flows+1)
		}
	}
	if best > 100*time.Millisecond {
		t.Fatalf("/statusz took %v at best with the sink stalled, want under 100 ms", best)
	}

	finish()
}

// stdoutOf runs fn with os.Stdout redirected and returns what it printed
// (which must be less than a pipe holds: nothing reads until fn is back).
func stdoutOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	fn()
	os.Stdout = stdout
	_ = w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDaemonEarlyErrorsReleaseEverything: whatever start fails on, it leaves
// nothing behind — every address it printed on the way can be bound again
// (the ingest port, and in a fleet the gossip and handoff ports) and no
// goroutine it started survives. close is the one teardown; start calls it.
func TestDaemonEarlyErrorsReleaseEverything(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	trainModelFile(t, modelPath)

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	busyUDP, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busyUDP.Close()

	const port0 = "127.0.0.1:0"
	for _, tc := range []struct {
		name  string
		opts  detectOptions
		want  string // in the error
		bound int    // addresses start had bound, and printed, before it failed
	}{
		{"unwritable -events", detectOptions{modelPath: modelPath, eventsPath: filepath.Join(dir, "nowhere", "events.jsonl")}, "no such file", 0},
		{"taken -http", detectOptions{modelPath: modelPath, httpAddr: busy.Addr().String()}, "address already in use", 1},
		{"taken -http, in a fleet", detectOptions{modelPath: modelPath, httpAddr: busy.Addr().String(), peerID: "a1", gossipAddr: port0, handoffAddr: port0}, "address already in use", 3},
		{"taken -gossip-addr", detectOptions{modelPath: modelPath, peerID: "a1", gossipAddr: busyUDP.LocalAddr().String(), handoffAddr: port0}, "address already in use", 1},
		{"taken -handoff-addr", detectOptions{modelPath: modelPath, peerID: "a1", gossipAddr: port0, handoffAddr: busy.Addr().String()}, "address already in use", 0},
		{"missing model after a store opened", detectOptions{modelPath: filepath.Join(dir, "nope.json"), storeDir: filepath.Join(dir, "models")}, "no such file", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.listen = port0
			baseline := runtime.NumGoroutine()
			var err error
			out := stdoutOf(t, func() {
				var d *daemon
				if d, err = start(logpoint.NewDictionary(), tc.opts); err == nil {
					_ = d.close()
				}
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("start: %v, want an error holding %q", err, tc.want)
			}

			// What start printed names every address it had bound by then.
			var tcp, udp []string
			for _, line := range strings.Split(out, "\n") {
				var ingest, id, gossip, handoff string
				if n, _ := fmt.Sscanf(line, "detecting: listening on %s", &ingest); n == 1 {
					tcp = append(tcp, ingest)
				}
				if n, _ := fmt.Sscanf(line, "federation: peer %s gossiping on %s handoff on %s", &id, &gossip, &handoff); n == 3 {
					udp = append(udp, strings.TrimSuffix(gossip, ","))
					tcp = append(tcp, handoff)
				}
			}
			if got := len(tcp) + len(udp); got != tc.bound {
				t.Fatalf("start printed %d bound addresses, want %d:\n%s", got, tc.bound, out)
			}
			for _, addr := range tcp {
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatalf("still bound after the failed start: %v", err)
				}
				_ = ln.Close()
			}
			for _, addr := range udp {
				pc, err := net.ListenPacket("udp", addr)
				if err != nil {
					t.Fatalf("still bound after the failed start: %v", err)
				}
				_ = pc.Close()
			}
			waitUntil(t, 5*time.Second, "the goroutines start launched to end", func() bool {
				return runtime.NumGoroutine() <= baseline
			})
		})
	}
}

// TestDaemonCloseTwice: the second close finds nothing left to shut.
func TestDaemonCloseTwice(t *testing.T) {
	modelPath := filepath.Join(t.TempDir(), "model.json")
	trainModelFile(t, modelPath)
	d, err := start(logpoint.NewDictionary(), detectOptions{listen: "127.0.0.1:0", modelPath: modelPath, httpAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := d.srv.Addr()
	for i := 0; i < 2; i++ {
		if err := d.close(); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("the ingest port is still bound after close: %v", err)
	}
	_ = ln.Close()
}
