package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
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
// a pipe holds, which leaves the only shard's worker stuck in the anomaly
// sink, under the report mutex. /statusz keeps answering within 100 ms and
// shows the wedge (a frame accepted but not yet observed). Draining the pipe
// lets the daemon finish.
func TestStatuszAnswersWhileSinkIsStalled(t *testing.T) {
	modelPath := filepath.Join(t.TempDir(), "model.json")
	trainModelFile(t, modelPath)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w

	addr := freePort(t)
	stop := make(chan struct{})
	done := make(chan error, 1)
	httpCh := make(chan string, 1)
	go func() {
		done <- detectMode(logpoint.NewDictionary(), detectOptions{
			listen:    addr,
			modelPath: modelPath,
			httpAddr:  "127.0.0.1:0",
			shards:    1,
			stop:      stop,
			httpBound: func(a string) { httpCh <- a },
		})
	}()
	// finish unsticks the sink, stops the daemon and gives stdout back; it
	// also runs on the way out of a failure, or the worker stays stuck.
	finish := sync.OnceValue(func() error {
		drained := make(chan struct{})
		go func() {
			_, _ = io.Copy(io.Discard, r)
			close(drained)
		}()
		close(stop)
		err := <-done
		os.Stdout = stdout
		_ = w.Close()
		<-drained
		return err
	})
	defer finish()

	var httpAddr string
	select {
	case httpAddr = <-httpCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("observability server never bound (detect mode returned %v)", finish())
	}

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
		Shards    []struct {
			Fed uint64 `json:"fed"`
		} `json:"shards"`
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
	pollUntil(t, 10*time.Second, "the window's anomalies to reach the sink", func() bool {
		doc, _ := get()
		return doc.Anomalies >= flows
	})
	// The sink is now printing its way into the full pipe, if not there yet.
	// A scheduling hiccup may slow one request on a loaded machine, not five.
	best := time.Hour
	for i := 0; i < 5; i++ {
		doc, took := get()
		best = min(best, took)
		if doc.Processed != flows+1 || len(doc.Shards) != 1 || doc.Shards[0].Fed >= doc.Processed {
			t.Fatalf("/statusz with the sink stalled: %+v; want %d processed and the shard short of it, mid-frame", doc, flows+1)
		}
	}
	if best > 100*time.Millisecond {
		t.Fatalf("/statusz took %v at best with the sink stalled, want under 100 ms", best)
	}

	if err := finish(); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyErrorReleasesGossipPort: an error return after the gossiper has
// started — here the observability address is taken — must stop it, socket
// and goroutines, like everything else detect mode opened on the way.
func TestEarlyErrorReleasesGossipPort(t *testing.T) {
	modelPath := filepath.Join(t.TempDir(), "model.json")
	trainModelFile(t, modelPath)

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	uc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gossipAddr := uc.LocalAddr().String()
	if err := uc.Close(); err != nil {
		t.Fatal(err)
	}

	err = detectMode(logpoint.NewDictionary(), detectOptions{
		listen:      "127.0.0.1:0",
		modelPath:   modelPath,
		httpAddr:    busy.Addr().String(),
		shards:      1,
		peerID:      "a1",
		gossipAddr:  gossipAddr,
		handoffAddr: "127.0.0.1:0",
	})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("detect mode on a taken -http address: %v, want address already in use", err)
	}
	uc, err = net.ListenPacket("udp", gossipAddr)
	if err != nil {
		t.Fatalf("the gossip port is still bound after the early return: %v", err)
	}
	_ = uc.Close()
}
