package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/federation"
	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/tracker"
)

func TestParsePeerSeeds(t *testing.T) {
	seeds, err := parsePeerSeeds("a1=127.0.0.1:7946, a2=127.0.0.1:7947,")
	if err != nil {
		t.Fatal(err)
	}
	want := []federation.PeerInfo{
		{ID: "a1", GossipAddr: "127.0.0.1:7946"},
		{ID: "a2", GossipAddr: "127.0.0.1:7947"},
	}
	if len(seeds) != len(want) {
		t.Fatalf("parsed %d seeds, want %d", len(seeds), len(want))
	}
	for i := range want {
		if seeds[i] != want[i] {
			t.Fatalf("seed %d = %+v, want %+v", i, seeds[i], want[i])
		}
	}
	for _, bad := range []string{"a1", "=addr", "a1="} {
		if _, err := parsePeerSeeds(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
}

func TestFederationFlagErrors(t *testing.T) {
	if err := run([]string{"-peers", "a1=127.0.0.1:7946"}); err == nil {
		t.Fatal("-peers without -peer-id accepted")
	}
	if err := run([]string{"-peer-id", "a1", "-model-store", t.TempDir()}); err == nil {
		t.Fatal("-peer-id with -model-store accepted")
	}
	if err := run([]string{"-peer-id", "a1", "-peers", "broken"}); err == nil {
		t.Fatal("malformed -peers entry accepted")
	}
}

// TestFederationTwoPeerE2E boots two detect-mode analyzers as a gossip-
// seeded fleet, streams records into one of them, and asserts through
// /statusz that the rings converge on both members and that every record
// was processed somewhere in the fleet (forwarding covers whatever the
// ring assigns to the peer the tracker did not dial).
func TestFederationTwoPeerE2E(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")

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
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.WriteTo(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	// Reserve a gossip port for the seed peer (bind-and-release; detect
	// mode rebinds it a moment later).
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	gossipA := uc.LocalAddr().String()
	if err := uc.Close(); err != nil {
		t.Fatal(err)
	}

	start := func(id, ingest, gossip, seeds string) (string, chan struct{}, chan error) {
		httpCh := make(chan string, 1)
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- detectMode(logpoint.NewDictionary(), detectOptions{
				listen:      ingest,
				modelPath:   modelPath,
				httpAddr:    "127.0.0.1:0",
				peerID:      id,
				peers:       seeds,
				gossipAddr:  gossip,
				handoffAddr: "127.0.0.1:0",
				stop:        stop,
				httpBound:   func(addr string) { httpCh <- addr },
			})
		}()
		select {
		case addr := <-httpCh:
			return addr, stop, done
		case err := <-done:
			t.Fatalf("peer %s exited before binding: %v", id, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("peer %s never bound its observability server", id)
		}
		return "", nil, nil
	}

	ingestA := freePort(t)
	httpA, stopA, doneA := start("a1", ingestA, gossipA, "")
	httpB, stopB, doneB := start("a2", freePort(t), "127.0.0.1:0", "a1="+gossipA)

	type statusDoc struct {
		Processed  uint64             `json:"processed"`
		Federation *federation.Status `json:"federation"`
	}
	statusz := func(addr string) (statusDoc, error) {
		var doc statusDoc
		resp, err := http.Get(fmt.Sprintf("http://%s/statusz", addr))
		if err != nil {
			return doc, err
		}
		defer resp.Body.Close()
		return doc, json.NewDecoder(resp.Body).Decode(&doc)
	}

	// Gossip converges: both peers' rings settle on {a1, a2}.
	deadline := time.Now().Add(15 * time.Second)
	for {
		a, errA := statusz(httpA)
		b, errB := statusz(httpB)
		if errA == nil && errB == nil &&
			a.Federation != nil && len(a.Federation.RingPeers) == 2 &&
			b.Federation != nil && len(b.Federation.RingPeers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rings never converged: a=%+v b=%+v (%v %v)", a.Federation, b.Federation, errA, errB)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Stream through one ingest point only; the ring decides who owns the
	// groups and the fleet forwards the rest.
	const records = 600
	emit(t, ingestA, records)
	deadline = time.Now().Add(15 * time.Second)
	for {
		a, errA := statusz(httpA)
		b, errB := statusz(httpB)
		if errA == nil && errB == nil && a.Processed+b.Processed == records {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet processed %d+%d records, want %d (%v %v)",
				a.Processed, b.Processed, records, errA, errB)
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stopB)
	if err := <-doneB; err != nil {
		t.Fatalf("peer a2 shutdown: %v", err)
	}
	close(stopA)
	if err := <-doneA; err != nil {
		t.Fatalf("peer a1 shutdown: %v", err)
	}
}
