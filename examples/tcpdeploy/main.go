// Distributed deployment — the paper's Figure 5 topology over real TCP.
//
// Four "nodes" (one goroutine each) run instrumented stages and stream
// task synopses through TCP clients to one central analyzer server, which
// trains a model from the first phase of traffic and then detects a fault
// injected on node 3 — without ever seeing a log message.
//
// Run with: go run ./examples/tcpdeploy
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"saad"
)

const (
	hosts        = 4
	trainTasks   = 4000 // per host
	detectTasks  = 800  // per host
	pointRecv    = saad.LogPointID(1)
	pointCharge  = saad.LogPointID(2)
	pointConfirm = saad.LogPointID(3)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcpdeploy:", err)
		os.Exit(1)
	}
}

// node simulates one server process: a Checkout stage executing tasks at a
// deterministic virtual cadence, streaming synopses to addr. When faulty,
// tasks terminate prematurely after the first log point. The reconnecting
// client rides out analyzer restarts: a write that fails parks its batch,
// and everything emitted while the link is down, in a bounded in-memory
// ring that is replayed in order once the analyzer is back.
func node(host uint16, addr string, tasks int, start time.Time, faulty bool) error {
	client, err := saad.DialAnalyzer(addr, 0, saad.WithReconnect(saad.ReconnectConfig{
		SpillCapacity: 1 << 14,
	}))
	if err != nil {
		return err
	}
	tr := saad.NewTracker(host, client)
	at := start
	for i := 0; i < tasks; i++ {
		task := tr.Begin(1, at)
		task.Hit(pointRecv, at.Add(100*time.Microsecond))
		if !faulty {
			task.Hit(pointCharge, at.Add(2*time.Millisecond))
			task.Hit(pointConfirm, at.Add(3*time.Millisecond))
		}
		task.End(at.Add(3 * time.Millisecond))
		at = at.Add(10 * time.Millisecond)
	}
	return client.Close()
}

func run() error {
	epoch := time.Date(2026, 1, 1, 9, 0, 0, 0, time.UTC)

	// Central analyzer: a TCP server feeding a buffered channel.
	central := saad.NewChannelSink(1 << 18)
	srv, err := saad.ListenSynopses("127.0.0.1:0", central)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("central analyzer listening on %s\n", srv.Addr())

	runPhase := func(tasks int, start time.Time, faultyHost uint16) error {
		var wg sync.WaitGroup
		errs := make([]error, hosts)
		for h := uint16(1); h <= hosts; h++ {
			wg.Add(1)
			go func(h uint16) {
				defer wg.Done()
				errs[h-1] = node(h, srv.Addr(), tasks, start, h == faultyHost)
			}(h)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	collect := func(want int) []*saad.Synopsis {
		var out []*saad.Synopsis
		deadline := time.After(10 * time.Second)
		for len(out) < want {
			select {
			case s := <-central.C():
				out = append(out, s)
			case <-deadline:
				return out
			}
		}
		return out
	}

	// Phase 1: all four nodes healthy; train.
	fmt.Printf("phase 1: %d healthy tasks per node -> training\n", trainTasks)
	if err := runPhase(trainTasks, epoch, 0); err != nil {
		return err
	}
	trace := collect(hosts * trainTasks)
	cfg := saad.DefaultAnalyzerConfig()
	cfg.Window = 2 * time.Second
	model, err := saad.Train(cfg, trace)
	if err != nil {
		return err
	}
	fmt.Printf("model trained on %d synopses from %d nodes\n\n", model.TrainedOn, hosts)

	// Phase 2: node 3 turns faulty.
	fmt.Printf("phase 2: %d tasks per node, premature terminations on node 3\n", detectTasks)
	if err := runPhase(detectTasks, epoch.Add(time.Hour), 3); err != nil {
		return err
	}
	faultTrace := collect(hosts * detectTasks)

	det := saad.NewDetector(model)
	var anomalies []saad.Anomaly
	for _, s := range faultTrace {
		anomalies = append(anomalies, det.Feed(s)...)
	}
	anomalies = append(anomalies, det.Flush()...)

	perHost := map[uint16]int{}
	for _, a := range anomalies {
		perHost[a.Host]++
	}
	fmt.Printf("\ndetected %d anomalies; per node: %v (fault was on node 3)\n", len(anomalies), perHost)
	if perHost[3] == 0 {
		return fmt.Errorf("fault not localized to node 3")
	}
	for _, a := range anomalies {
		if a.Host == 3 && a.NewSignature {
			fmt.Printf("\n%v\n", a)
			break
		}
	}

	// A central deployment would normally append these to a file with the
	// analyzer's -events flag; here the JSONL goes to stdout.
	fmt.Println("\nanomaly event log (JSONL):")
	events := saad.NewEventWriter(os.Stdout, nil, cfg.Window)
	return events.WriteAll(anomalies)
}
