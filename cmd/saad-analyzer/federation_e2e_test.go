package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"saad/internal/federation"
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

	trainModelFile(t, modelPath)

	// a1 gossips on a port of its own choosing; a2 is seeded with it.
	peer := func(id, seeds string) *daemon {
		d, _ := runDaemon(t, detectOptions{
			modelPath:   modelPath,
			httpAddr:    "127.0.0.1:0",
			peerID:      id,
			peers:       seeds,
			gossipAddr:  "127.0.0.1:0",
			handoffAddr: "127.0.0.1:0",
		})
		return d
	}
	a := peer("a1", "")
	b := peer("a2", "a1="+a.gossiper.Addr())
	httpA, httpB, ingestA := a.http.Addr(), b.http.Addr(), a.srv.Addr()

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
	waitUntil(t, 15*time.Second, "both rings to hold both peers", func() bool {
		a, errA := statusz(httpA)
		b, errB := statusz(httpB)
		return errA == nil && errB == nil &&
			a.Federation != nil && len(a.Federation.RingPeers) == 2 &&
			b.Federation != nil && len(b.Federation.RingPeers) == 2
	})

	// Stream through one ingest point only; the ring decides who owns the
	// groups and the fleet forwards the rest.
	const records = 600
	emit(t, ingestA, records)
	waitUntil(t, 15*time.Second, "the fleet to process every record", func() bool {
		a, errA := statusz(httpA)
		b, errB := statusz(httpB)
		return errA == nil && errB == nil && a.Processed+b.Processed == records
	})
	// Cleanup stops a2, then a1: each leaves the fleet on its way out.
}
