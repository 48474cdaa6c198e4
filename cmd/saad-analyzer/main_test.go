package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/lifecycle"
	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// emit streams n healthy synopses to addr.
func emit(t *testing.T, addr string, n int) {
	t.Helper()
	cli, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	healthyTasks(tracker.New(1, cli), n)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// healthyTasks runs n healthy {1,2} tasks of stage 1 through tr, 1 ms apart.
func healthyTasks(tr *tracker.Tracker, n int) {
	for i := 0; i < n; i++ {
		at := epoch.Add(time.Duration(i) * time.Millisecond)
		task := tr.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		task.Hit(2, at.Add(2*time.Millisecond))
		task.End(at.Add(2 * time.Millisecond))
	}
}

// waitUntil re-checks cond on a ticker until it holds, and fails the test
// with what once d has passed: the package's one way to wait for something
// the daemon does on its own goroutines.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for deadline := time.After(d); !cond(); {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// runDaemon starts detect mode on an ephemeral ingest port — every bound
// address is read back off the daemon — and runs its loop. stop ends it the
// way a signal would and fails the test on a shutdown error; it also runs at
// cleanup, where a second call does nothing.
func runDaemon(t *testing.T, opts detectOptions) (d *daemon, stop func()) {
	t.Helper()
	opts.listen = "127.0.0.1:0"
	d, err := start(logpoint.NewDictionary(), opts)
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan os.Signal)
	ran := make(chan struct{})
	go func() {
		d.run(interrupt)
		close(ran)
	}()
	stop = sync.OnceFunc(func() {
		close(interrupt)
		<-ran
		if err := d.close(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	t.Cleanup(stop)
	return d, stop
}

func TestTrainAndDetectOnFixedPort(t *testing.T) {
	addr := freePort(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	trainDone := make(chan error, 1)
	go func() {
		trainDone <- trainMode(addr, modelPath, "", 500, time.Minute)
	}()
	waitListening(t, addr)
	emit(t, addr, 600)
	model := awaitModel(t, trainDone, modelPath)
	if model.TrainedOn < 500 {
		t.Fatalf("TrainedOn = %d", model.TrainedOn)
	}
	sig := synopsis.Compute([]logpoint.ID{1, 2})
	if !model.Knows(1, sig) {
		t.Fatal("model missing the trained signature")
	}
}

// waitListening waits until the trainer accepts synopsis connections on addr.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	waitUntil(t, 5*time.Second, "the trainer to listen", func() bool {
		cli, err := stream.Dial(addr, 0)
		if err == nil {
			_ = cli.Close()
		}
		return err == nil
	})
}

// awaitModel waits for trainMode to return and reads the model it wrote.
func awaitModel(t *testing.T, trainDone <-chan error, modelPath string) *analyzer.Model {
	t.Helper()
	select {
	case err := <-trainDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("training never finished")
	}
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := analyzer.ReadModel(f)
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestTrainModeConcurrentTrackers trains from four trackers at once — the
// paper's deployment, one per Cassandra node. The server calls the sink
// from each connection's goroutine, so the trainer's maps and the done
// latch must be guarded: unguarded, this test is a -race report in
// Trainer.Add (and at worst "concurrent map writes" or a double close).
func TestTrainModeConcurrentTrackers(t *testing.T) {
	const clients, perClient, want = 4, 8000, 20000
	addr := freePort(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	trainDone := make(chan error, 1)
	go func() {
		trainDone <- trainMode(addr, modelPath, "", want, time.Minute)
	}()
	waitListening(t, addr)

	dialErrs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(host uint16) {
			cli, err := stream.Dial(addr, 0)
			if err != nil {
				dialErrs <- err
				return
			}
			dialErrs <- nil
			healthyTasks(tracker.New(host, cli), perClient)
			// The trainer hangs up once it has enough, so the slower
			// clients' last frames fail to send: not this test's concern.
			_ = cli.Close()
		}(uint16(c + 1))
	}
	for c := 0; c < clients; c++ {
		if err := <-dialErrs; err != nil {
			t.Fatal(err)
		}
	}
	if model := awaitModel(t, trainDone, modelPath); model.TrainedOn < want {
		t.Fatalf("TrainedOn = %d, want >= %d", model.TrainedOn, want)
	}
}

// TestTrainModeStoresChildOfServing: -train with -model-store stores the
// model as the child of the version serving, not of the newest one — here a
// retrain's candidate, stored after version 2 was promoted and never served.
func TestTrainModeStoresChildOfServing(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	storeDir := filepath.Join(dir, "models")
	trainModelFile(t, modelPath)
	model, err := readModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	store, err := lifecycle.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for parent := 0; parent < 3; parent++ {
		if _, err := store.Put(model, lifecycle.PutInfo{Parent: parent}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.MarkServing(2); err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	trainDone := make(chan error, 1)
	go func() {
		trainDone <- trainMode(addr, modelPath, storeDir, 500, time.Minute)
	}()
	waitListening(t, addr)
	emit(t, addr, 600)
	awaitModel(t, trainDone, modelPath)

	metas, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if got := metas[len(metas)-1]; got.Version != 4 || got.Parent != 2 {
		t.Fatalf("train mode stored version %d with parent %d, want 4 with parent 2 (the serving version)", got.Version, got.Parent)
	}
	if _, meta, err := store.LoadServing(); err != nil || meta.Version != 4 {
		t.Fatalf("a start after train mode would serve version %d (err %v), want 4", meta.Version, err)
	}
}

// freePort reserves an address by listening and closing: train mode prints
// the address it bound and returns nothing to read it from. Detect-mode
// tests bind port 0 and read the address off the daemon instead.
func freePort(t *testing.T) string {
	t.Helper()
	probe, err := stream.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// emitPhase streams healthy {1,2} flows plus premature {1}-only exits (a
// signature unseen in training) starting at base.
func emitPhase(t *testing.T, addr string, base time.Time, healthy, premature int) {
	t.Helper()
	cli, err := stream.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracker.New(1, cli)
	at := base
	for i := 0; i < healthy; i++ {
		task := tr.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		task.Hit(2, at.Add(2*time.Millisecond))
		task.End(at.Add(2 * time.Millisecond))
		at = at.Add(time.Millisecond)
	}
	for i := 0; i < premature; i++ {
		task := tr.Begin(1, at)
		task.Hit(1, at.Add(time.Millisecond))
		task.End(at.Add(time.Millisecond))
		at = at.Add(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectCheckpointRestart: detect mode checkpointed and stopped
// mid-stream resumes from the checkpoint — without the model file — and
// keeps detecting; anomalies from both runs land in the shared event log
// and the window history survives the restart.
func TestDetectCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	ckptPath := filepath.Join(dir, "analyzer.ckpt")
	eventsPath := filepath.Join(dir, "events.jsonl")

	trainModelFile(t, modelPath)

	runDetect := func(modelPath string) (*daemon, func()) {
		return runDaemon(t, detectOptions{
			modelPath:          modelPath,
			eventsPath:         eventsPath,
			checkpointPath:     ckptPath,
			checkpointInterval: 20 * time.Millisecond,
		})
	}
	// waitPending watches the periodic checkpoint until the detector has n
	// tasks pending in open windows — proof the emitted phase was consumed.
	waitPending := func(n int) {
		t.Helper()
		waitUntil(t, 10*time.Second, "the periodic checkpoint to hold the emitted phase", func() bool {
			det, err := analyzer.LoadCheckpointFile(ckptPath)
			return err == nil && det.PendingTasks() == n
		})
	}
	countEvents := func() int {
		t.Helper()
		raw, err := os.ReadFile(eventsPath)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
		return n
	}

	// Run 1: anomalies accumulate in an open window, then a graceful stop
	// flushes the window (reporting its anomaly) and checkpoints.
	d, stop := runDetect(modelPath)
	emitPhase(t, d.srv.Addr(), epoch, 100, 5)
	waitPending(105)
	stop()
	if got := countEvents(); got != 1 {
		t.Fatalf("events after run 1 = %d, want 1 new-signature anomaly", got)
	}

	// Run 2: restarts from the checkpoint alone — the model path is bogus,
	// so starting proves the state came from the checkpoint file.
	d, stop = runDetect(filepath.Join(dir, "bogus-model.json"))
	emitPhase(t, d.srv.Addr(), epoch.Add(2*time.Minute), 50, 5)
	waitPending(55)
	stop()
	if got := countEvents(); got != 2 {
		t.Fatalf("events after restart = %d, want 2 (one anomaly per run)", got)
	}

	// The final checkpoint carries the full cross-restart window history.
	det, err := analyzer.LoadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	hist := det.WindowHistory()
	if len(hist) != 2 {
		t.Fatalf("window history = %+v, want the windows of both runs", hist)
	}
	if hist[0].Tasks != 105 || hist[1].Tasks != 55 {
		t.Fatalf("history tasks = %d, %d, want 105, 55", hist[0].Tasks, hist[1].Tasks)
	}
}

func TestDetectModeRejectsMissingModel(t *testing.T) {
	opts := detectOptions{listen: "127.0.0.1:0", modelPath: filepath.Join(t.TempDir(), "nope.json")}
	if err := detectMode(logpoint.NewDictionary(), opts); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-dict", "/nonexistent.json", "-train", "1"}); err == nil {
		t.Fatal("missing dictionary accepted")
	}
}

// storeRuns starts detect mode, run after run, on one model store in dir —
// and on one checkpoint file when checkpoint is set.
type storeRuns struct {
	dir        string
	checkpoint bool
}

// start runs the daemon and returns its ingest and /model addresses and a
// stop function.
func (r storeRuns) start(t *testing.T) (addr, modelURL string, stop func()) {
	t.Helper()
	opts := detectOptions{
		modelPath: filepath.Join(r.dir, "model.json"),
		httpAddr:  "127.0.0.1:0",
		storeDir:  filepath.Join(r.dir, "models"),
	}
	if r.checkpoint {
		opts.checkpointPath = filepath.Join(r.dir, "analyzer.ckpt")
	}
	d, stop := runDaemon(t, opts)
	return d.srv.Addr(), "http://" + d.http.Addr() + "/model", stop
}

func modelStatus(t *testing.T, modelURL string) (st lifecycle.Status) {
	t.Helper()
	getJSON(t, modelURL, &st)
	return st
}

// retrain feeds enough for a retrain, waits for the manager to have buffered
// it, and returns the candidate the retrain stored.
func retrain(t *testing.T, addr, modelURL string) (meta lifecycle.Meta) {
	t.Helper()
	emit(t, addr, 2500)
	waitUntil(t, 10*time.Second, "the lifecycle manager to buffer the stream", func() bool {
		return modelStatus(t, modelURL).Buffered >= 2500
	})
	resp, err := http.PostForm(modelURL, url.Values{"action": {"retrain"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestCheckpointRestartKeepsModelLineage: a daemon run with both a
// checkpoint and a model store comes back from the checkpoint still knowing
// which store version it serves — /model reports it, and the next retrain
// records it as the parent rather than starting a new root.
func TestCheckpointRestartKeepsModelLineage(t *testing.T) {
	runs := storeRuns{dir: t.TempDir(), checkpoint: true}
	trainModelFile(t, filepath.Join(runs.dir, "model.json"))

	// Run 1 imports the model file as version 1, retrains version 2 from
	// the stream and promotes it; the shutdown checkpoint carries its model.
	addr, modelURL, stop := runs.start(t)
	cand := retrain(t, addr, modelURL)
	if cand.Version != 2 || cand.Parent != 1 {
		t.Fatalf("first retrain stored version %d with parent %d, want 2 and 1", cand.Version, cand.Parent)
	}
	resp, err := http.PostForm(modelURL, url.Values{"action": {"promote"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := modelStatus(t, modelURL).ServingVersion; got != 2 {
		t.Fatalf("serving version after promote = %d, want 2", got)
	}
	stop()

	// Run 2 restores the checkpoint: same serving version, same lineage.
	addr, modelURL, _ = runs.start(t)
	if got := modelStatus(t, modelURL).ServingVersion; got != 2 {
		t.Fatalf("serving version after restart = %d, want 2", got)
	}
	if cand := retrain(t, addr, modelURL); cand.Version != 3 || cand.Parent != 2 {
		t.Fatalf("retrain after restart stored version %d with parent %d, want 3 and 2", cand.Version, cand.Parent)
	}
}

// TestRestartNeverPromotes: a retrain stores its candidate before anything
// has judged it, so a daemon stopped while version 2 is still being shadowed
// must come back serving version 1 — from the store alone, or from the
// checkpoint with the store telling it which version that model is — with
// version 2 still in the lineage and the next retrain a child of 1.
func TestRestartNeverPromotes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{{"store", false}, {"store and checkpoint", true}} {
		t.Run(tc.name, func(t *testing.T) {
			runs := storeRuns{dir: t.TempDir(), checkpoint: tc.checkpoint}
			trainModelFile(t, filepath.Join(runs.dir, "model.json"))

			addr, modelURL, stop := runs.start(t)
			if cand := retrain(t, addr, modelURL); cand.Version != 2 || cand.Parent != 1 {
				t.Fatalf("retrain stored version %d with parent %d, want 2 and 1", cand.Version, cand.Parent)
			}
			if st := modelStatus(t, modelURL); st.ServingVersion != 1 || st.Candidate == nil {
				t.Fatalf("before the restart: serving %d, candidate %+v; want 1 and version 2 pending", st.ServingVersion, st.Candidate)
			}
			stop()

			addr, modelURL, _ = runs.start(t)
			st := modelStatus(t, modelURL)
			if st.ServingVersion != 1 {
				t.Fatalf("serving version after restart = %d, want 1: nothing promoted version 2", st.ServingVersion)
			}
			if len(st.Lineage) != 2 || st.Lineage[1].Version != 2 {
				t.Fatalf("lineage after restart = %+v, want versions 1 and 2", st.Lineage)
			}
			if cand := retrain(t, addr, modelURL); cand.Version != 3 || cand.Parent != 1 {
				t.Fatalf("retrain after restart stored version %d with parent %d, want 3 and 1", cand.Version, cand.Parent)
			}
		})
	}
}
