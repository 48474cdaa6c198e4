package saad_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"saad"
)

// fakeClock is a mutex-protected monotonically advancing clock for
// deterministic durations in tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(100 * time.Microsecond)
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// buildStage registers a stage with three log points and returns them.
func buildStage(t *testing.T, dict *saad.Dictionary, name string) (saad.StageID, []saad.LogPointID) {
	t.Helper()
	sid, err := dict.RegisterStage(name, saad.ProducerConsumer)
	if err != nil {
		t.Fatal(err)
	}
	var ids []saad.LogPointID
	for _, tpl := range []string{"request received", "slow path taken", "request done"} {
		id, err := dict.RegisterPoint(sid, saad.LevelDebug, tpl)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return sid, ids
}

func TestMonitorEndToEnd(t *testing.T) {
	cfg := saad.DefaultAnalyzerConfig()
	cfg.Window = time.Second
	cfg.MinTasksPerSignature = 10
	mon, err := saad.NewMonitor(saad.WithAnalyzerConfig(cfg), saad.WithHost(3))
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	_, pts := buildStage(t, mon.Dictionary(), "Handler")

	ex, err := mon.NewExecutor("Handler", 2, 16, clock.Now, func(ctx *saad.StageCtx, req any) {
		ctx.Log(pts[0])
		if req.(bool) { // rare slow path
			ctx.Log(pts[1])
		}
		ctx.Log(pts[2])
	})
	if err != nil {
		t.Fatal(err)
	}

	// Training: 2000 normal tasks, a handful of slow-path tasks.
	for i := 0; i < 2000; i++ {
		if err := ex.Submit(i%200 == 0); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if _, err := mon.PollTraining(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex.Close()

	if _, err := mon.Poll(); !errors.Is(err, saad.ErrNotDetecting) {
		t.Fatalf("Poll before Train err = %v", err)
	}
	model, err := mon.Train()
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || mon.Model() != model {
		t.Fatal("model accessor mismatch")
	}
	if _, err := mon.PollTraining(); !errors.Is(err, saad.ErrNotTraining) {
		t.Fatalf("PollTraining after Train err = %v", err)
	}

	// Detection: a stage suddenly taking the never-seen premature flow.
	ex2, err := mon.NewExecutor("Handler", 2, 16, clock.Now, func(ctx *saad.StageCtx, req any) {
		ctx.Log(pts[0]) // premature termination: only the first point
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second) // move into a fresh window
	for i := 0; i < 100; i++ {
		if err := ex2.Submit(false); err != nil {
			t.Fatal(err)
		}
	}
	ex2.Close()
	clock.Advance(5 * time.Second)

	if _, err := mon.Poll(); err != nil {
		t.Fatal(err)
	}
	anomalies, err := mon.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) == 0 {
		t.Fatal("premature flow not detected")
	}
	found := false
	for _, a := range anomalies {
		if a.Kind == saad.FlowAnomaly && a.NewSignature {
			found = true
			text := saad.FormatAnomaly(a, mon.Dictionary())
			if !strings.Contains(text, "Handler") || !strings.Contains(text, "request received") {
				t.Fatalf("report missing context:\n%s", text)
			}
		}
	}
	if !found {
		t.Fatalf("no new-signature flow anomaly among %d anomalies", len(anomalies))
	}
	if mon.Dropped() != 0 {
		t.Fatalf("dropped = %d", mon.Dropped())
	}
}

func TestMonitorSetModelAndSerialization(t *testing.T) {
	cfg := saad.DefaultAnalyzerConfig()
	cfg.MinTasksPerSignature = 5
	mon, err := saad.NewMonitor(saad.WithAnalyzerConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	_, pts := buildStage(t, mon.Dictionary(), "S")
	ex, err := mon.NewExecutor("S", 1, 8, clock.Now, func(ctx *saad.StageCtx, _ any) {
		ctx.Log(pts[0])
		ctx.Log(pts[2])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := ex.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	ex.Close()
	model, err := mon.Train()
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the model and the dictionary through their wire formats.
	var modelBuf, dictBuf bytes.Buffer
	if _, err := model.WriteTo(&modelBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Dictionary().WriteTo(&dictBuf); err != nil {
		t.Fatal(err)
	}
	loadedModel, err := saad.ReadModel(&modelBuf)
	if err != nil {
		t.Fatal(err)
	}
	loadedDict, err := saad.ReadDictionary(&dictBuf)
	if err != nil {
		t.Fatal(err)
	}
	if loadedDict.NumPoints() != mon.Dictionary().NumPoints() {
		t.Fatal("dictionary round trip lost points")
	}

	mon2, err := saad.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	mon2.SetModel(loadedModel)
	if _, err := mon2.Poll(); err != nil {
		t.Fatalf("Poll with installed model: %v", err)
	}
}

// TestMonitorEngineMode runs the end-to-end monitor flow through executors
// on a four-shard engine and checks the premature exit is reported, and that
// Flush after Close is safe. TestMonitorMatchesReferenceDetector holds the
// verdicts themselves to the analyzer's executable specification.
func TestMonitorEngineMode(t *testing.T) {
	cfg := saad.DefaultAnalyzerConfig()
	cfg.Window = time.Second
	cfg.MinTasksPerSignature = 10
	mon, err := saad.NewMonitor(saad.WithAnalyzerConfig(cfg), saad.WithHost(3), saad.WithEngineShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	clock := newFakeClock()
	_, pts := buildStage(t, mon.Dictionary(), "Handler")

	ex, err := mon.NewExecutor("Handler", 2, 16, clock.Now, func(ctx *saad.StageCtx, req any) {
		ctx.Log(pts[0])
		ctx.Log(pts[2])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := ex.Submit(i); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if _, err := mon.PollTraining(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex.Close()
	if _, err := mon.Train(); err != nil {
		t.Fatal(err)
	}

	// Detection: premature termination, a flow unseen in training.
	ex2, err := mon.NewExecutor("Handler", 2, 16, clock.Now, func(ctx *saad.StageCtx, req any) {
		ctx.Log(pts[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	for i := 0; i < 100; i++ {
		if err := ex2.Submit(false); err != nil {
			t.Fatal(err)
		}
	}
	ex2.Close()
	clock.Advance(5 * time.Second)

	if _, err := mon.Poll(); err != nil {
		t.Fatal(err)
	}
	anomalies, err := mon.Flush()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range anomalies {
		if a.Kind == saad.FlowAnomaly && a.NewSignature {
			found = true
		}
	}
	if !found {
		t.Fatalf("no new-signature flow anomaly among %d anomalies", len(anomalies))
	}
	// Flush after Close must not panic (the engine runs inline once closed).
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorOverTCPTransport(t *testing.T) {
	// Tracker on one side, analyzer sink on the other, over real TCP.
	got := saad.NewChannelSink(1 << 12)
	srv, err := saad.ListenSynopses("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := saad.DialAnalyzer(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := saad.NewTracker(9, cli)
	clock := newFakeClock()
	task := tr.Begin(1, clock.Now())
	task.Hit(1, clock.Now())
	task.End(clock.Now())
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	select {
	case s := <-got.C():
		if s.Host != 9 {
			t.Fatalf("host = %d", s.Host)
		}
	case <-deadline:
		t.Fatal("synopsis never arrived over TCP")
	}
}
