package stream

import (
	"fmt"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/analyzer/analyzertest"
	"saad/internal/synopsis"
)

// TestServerDeliversToEngine runs the deployment shape the sharded engine
// was built for: one TCP client per host streams its synopses over its own
// connection into a server whose sink is the engine — no fan-in channel in
// between — and the engine must decide what the spec decides over the union
// of the streams. Each connection handler keeps its client's order and each
// (host, stage) group travels one connection, so the per-group order the
// verdicts depend on survives the network hop; the corpus keeps its times on
// the codec's microsecond grid, so every record arrives as it left.
func TestServerDeliversToEngine(t *testing.T) {
	model := analyzertest.Model(t)
	for seed := int64(1); seed <= 16; seed++ {
		stream := analyzertest.Stream(seed)
		analyzertest.Check(t, fmt.Sprintf("seed %d", seed), analyzertest.Want(model, stream), deliver(t, model, stream))
	}
}

// deliver sends each host's records over a connection of its own into a
// server feeding a 3-shard engine, and observes the engine.
func deliver(t *testing.T, model *analyzer.Model, stream []*synopsis.Synopsis) analyzertest.Outcome {
	eng := analyzer.NewEngine(model, analyzer.WithShards(3), analyzer.WithShardQueue(64))
	defer eng.Close()
	srv, err := Listen("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hosts := map[uint16][]*synopsis.Synopsis{}
	for _, s := range stream {
		hosts[s.Host] = append(hosts[s.Host], s)
	}
	errs := make(chan error, len(hosts))
	for _, part := range hosts {
		go func() {
			cli, err := Dial(srv.Addr(), 0)
			if err != nil {
				errs <- err
				return
			}
			for _, s := range part {
				cli.Emit(s)
			}
			errs <- cli.Close()
		}()
	}
	for range hosts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Server.Close cuts live connections: every record crosses first.
	waitUntil(t, 10*time.Second, "every synopsis to reach the engine", func() bool { return eng.Fed() == uint64(len(stream)) })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return analyzertest.FlushEngines(nil, eng)
}
