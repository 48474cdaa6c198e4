package saad_test

import (
	"testing"
	"time"

	"saad"
	"saad/internal/faults"
	"saad/internal/storage/cassandra"
	"saad/internal/workload"
)

// TestIntegrationCassandraOverTCP exercises the full deployment shape the
// paper describes: per-node task execution trackers stream synopses over
// TCP to a centralized analyzer, which trains and then detects an injected
// fault, end to end.
func TestIntegrationCassandraOverTCP(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Central analyzer side: a TCP server feeding a channel.
	central := saad.NewChannelSink(1 << 20)
	srv, err := saad.ListenSynopses("127.0.0.1:0", central)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// runCluster drives a simulated Cassandra cluster whose trackers emit
	// through a TCP client (as a node-local SAAD agent would).
	runCluster := func(seed uint64, inj *faults.Injector, horizon time.Duration) {
		t.Helper()
		client, err := saad.DialAnalyzer(srv.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cass, err := cassandra.New(cassandra.Config{
			Hosts: 4, Seed: seed, Sink: client, Epoch: epoch, Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(workload.Config{Records: 500, Seed: seed + 1, Mix: workload.WriteHeavy()})
		workload.NewClientPool(16, epoch, 40*time.Millisecond).Run(epoch.Add(horizon), func(_ int, at time.Time) time.Time {
			done, _ := cass.Execute(gen.Next(), at)
			return done
		})
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// collect drains the central channel until it has been quiet briefly.
	collect := func() []*saad.Synopsis {
		var out []*saad.Synopsis
		deadline := time.After(10 * time.Second)
		quiet := 0
		for quiet < 5 {
			select {
			case s := <-central.C():
				out = append(out, s)
				quiet = 0
			case <-time.After(50 * time.Millisecond):
				quiet++
			case <-deadline:
				t.Fatalf("collection timed out with %d synopses", len(out))
			}
		}
		return out
	}

	// Phase 1: healthy run -> training trace -> model.
	runCluster(11, nil, 30*time.Second)
	trainTrace := collect()
	if len(trainTrace) < 5000 {
		t.Fatalf("training trace = %d synopses", len(trainTrace))
	}
	cfg := saad.DefaultAnalyzerConfig()
	cfg.Window = 5 * time.Second
	model, err := saad.Train(cfg, trainTrace)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: faulted run -> detection.
	inj := faults.NewInjector(faults.Fault{
		Name: "error-WAL-high", Point: faults.PointWALAppend, Mode: faults.ModeError,
		Probability: 1, Host: 4, From: epoch.Add(10 * time.Second), To: epoch.Add(time.Hour),
	})
	runCluster(13, inj, 30*time.Second)
	faultTrace := collect()

	det := saad.NewDetector(model)
	var anomalies []saad.Anomaly
	for _, s := range faultTrace {
		anomalies = append(anomalies, det.Feed(s)...)
	}
	anomalies = append(anomalies, det.Flush()...)
	if len(anomalies) == 0 {
		t.Fatal("no anomalies detected end to end")
	}
	host4Flow := 0
	for _, a := range anomalies {
		if a.Host == 4 && a.Kind == saad.FlowAnomaly {
			host4Flow++
		}
	}
	if host4Flow == 0 {
		t.Fatalf("fault on host 4 not localized; anomalies: %d total", len(anomalies))
	}

	// The alarm filter must keep the fault burst while trimming the total.
	filt := saad.NewAlarmFilter(2, 3, cfg.Window)
	det2 := saad.NewDetector(model)
	var filtered []saad.Anomaly
	for _, s := range faultTrace {
		filtered = append(filtered, filt.Filter(det2.Feed(s))...)
	}
	filtered = append(filtered, filt.Filter(det2.Flush())...)
	if len(filtered) == 0 {
		t.Fatal("alarm filter suppressed a sustained fault burst")
	}
	if len(filtered) > len(anomalies) {
		t.Fatalf("filter grew the anomaly set: %d > %d", len(filtered), len(anomalies))
	}
}
