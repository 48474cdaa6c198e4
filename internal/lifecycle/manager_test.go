package lifecycle

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/metrics"
	"saad/internal/stream"
	"saad/internal/synopsis"
)

func managerTestConfig() ManagerConfig {
	return ManagerConfig{
		RetrainWindow: 6000,
		MinRetrain:    1000,
		VerdictEvery:  100,
		ShadowConfig:  ShadowConfig{MinWindows: 5, FalsePositiveBudget: 0.05},
	}
}

// The daemon mounts the manager as the ingest server's sink; a frame must
// reach it as a frame.
var _ stream.BatchSink = (*Manager)(nil)

// newServingStack trains a model, stores it as version 1, records it as
// serving (as the daemon's start does) and builds an engine + manager pair
// serving it. The engine releases what it is fed into
// a pool, as the daemon's does, which wipes the record: a manager that kept
// a fed record instead of a clone would retrain on blanks.
func newServingStack(t *testing.T, cfg ManagerConfig, opts ...ManagerOption) (*analyzer.Engine, *Manager, *Store, *metrics.LifecycleMetrics) {
	t.Helper()
	model := trainOn(t, traffic(6000, 30, epoch, nil))
	store := openStore(t)
	meta, err := store.Put(model, PutInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.MarkServing(meta.Version); err != nil {
		t.Fatal(err)
	}
	eng := analyzer.NewEngine(model, analyzer.WithSynopsisRelease(synopsis.NewPool(64).Put))
	t.Cleanup(func() { _ = eng.Close() })
	lm := metrics.NewLifecycleMetrics(metrics.NewRegistry())
	opts = append([]ManagerOption{WithServingVersion(meta), WithLifecycleMetrics(lm)}, opts...)
	return eng, NewManager(eng, store, cfg, opts...), store, lm
}

// TestManagerAutoPromote closes the whole loop: buffer live traffic,
// retrain, shadow the candidate against the serving model and hot-swap it
// into the engine when the verdict passes.
func TestManagerAutoPromote(t *testing.T) {
	eng, mgr, store, lm := newServingStack(t, managerTestConfig())
	// restartServes is the version a restart on this store would serve.
	restartServes := func() int {
		t.Helper()
		_, meta, err := store.LoadServing()
		if err != nil {
			t.Fatal(err)
		}
		return meta.Version
	}

	// The records are the manager's once emitted (its engine recycles them):
	// what the test needs of them is read first.
	live := traffic(3000, 31, epoch.Add(time.Hour), nil)
	first, last, next := live[0].Start, live[len(live)-1].Start, after(live)
	mgr.EmitBatch(live)
	eng.Drain() // every record is back in the engine's pool, wiped: the retrain reads clones or blanks

	meta, err := mgr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || meta.Parent != 1 {
		t.Fatalf("candidate meta = %+v", meta)
	}
	if meta.Synopses != 3000 {
		t.Fatalf("candidate trained on %d synopses, want the 3000 buffered", meta.Synopses)
	}
	if !meta.TrainedFrom.Equal(first) || !meta.TrainedTo.Equal(last) {
		t.Fatalf("trained window = %v..%v", meta.TrainedFrom, meta.TrainedTo)
	}
	st := mgr.Status()
	if !st.ShadowActive || st.Candidate == nil || st.Candidate.Version != 2 {
		t.Fatalf("status after retrain = %+v", st)
	}
	if mgr.ServingVersion() != 1 {
		t.Fatal("promoted before any shadow windows closed")
	}
	if got := restartServes(); got != 1 {
		t.Fatalf("a restart would serve version %d while the candidate is still being shadowed, want 1", got)
	}

	// More healthy traffic: the shadow accumulates windows, the verdict
	// passes and the manager swaps the engine over, all inside Observe.
	mgr.EmitBatch(traffic(3000, 32, next, nil))

	if got := mgr.ServingVersion(); got != 2 {
		t.Fatalf("serving version = %d, want auto-promotion to 2", got)
	}
	if got := eng.Model().TrainedOn; got != 3000 {
		t.Fatalf("engine model TrainedOn = %d, want the retrained 3000", got)
	}
	if got := restartServes(); got != 2 {
		t.Fatalf("a restart would serve version %d after the promotion, want 2", got)
	}
	v := mgr.LastVerdict()
	if v == nil || !v.Ready || !v.Promote {
		t.Fatalf("last verdict = %+v", v)
	}
	st = mgr.Status()
	if st.ShadowActive || st.Candidate != nil {
		t.Fatalf("shadow still active after promotion: %+v", st)
	}
	if st.Retrains != 1 || st.Swaps != 1 {
		t.Fatalf("retrains/swaps = %d/%d", st.Retrains, st.Swaps)
	}
	if got := lm.ModelVersion.Value(); got != 2 {
		t.Fatalf("model_version gauge = %v", got)
	}
	if got := lm.Swaps.Value(); got != 1 {
		t.Fatalf("swaps counter = %v", got)
	}
	if got := lm.Retrains.Value(); got != 1 {
		t.Fatalf("retrains counter = %v", got)
	}
}

// TestManagerRejectsPoisonedCandidate: a candidate retrained from a buffer
// recorded under fault injection alarms on clean traffic; the shadow gate
// drops it and the serving model stays.
func TestManagerRejectsPoisonedCandidate(t *testing.T) {
	eng, mgr, store, _ := newServingStack(t, managerTestConfig())

	inj := faults.NewInjector(netSendError())
	faulted := traffic(2000, 33, epoch.Add(time.Hour), inj)
	next := after(faulted)
	mgr.EmitBatch(faulted)

	meta, err := mgr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 {
		t.Fatalf("candidate version = %d", meta.Version)
	}

	// The fault clears; live traffic is healthy again.
	mgr.EmitBatch(traffic(3000, 34, next, nil))

	if got := mgr.ServingVersion(); got != 1 {
		t.Fatalf("poisoned candidate promoted to serving (version %d)", got)
	}
	if got := eng.Model().TrainedOn; got != 6000 {
		t.Fatalf("engine model TrainedOn = %d, want the original 6000", got)
	}
	v := mgr.LastVerdict()
	if v == nil || !v.Ready || v.Promote {
		t.Fatalf("last verdict = %+v, want a ready rejection", v)
	}
	st := mgr.Status()
	if st.ShadowActive || st.Candidate != nil || st.Swaps != 0 {
		t.Fatalf("status after rejection = %+v", st)
	}
	// The rejected version stays in the store for forensics — where a
	// restart does not pick it up.
	if len(st.Lineage) != 2 {
		t.Fatalf("lineage = %+v, want both versions kept", st.Lineage)
	}
	if _, meta, err := store.LoadServing(); err != nil || meta.Version != 1 {
		t.Fatalf("a restart would serve version %d (err %v), want 1: version 2 was rejected", meta.Version, err)
	}
}

// TestManagerPromotionLosesNoAnomaly: the windows a promotion closes under
// the old model report like any closed window — to the engine's sink, or to
// its next Drain or Flush. The manager used to drop what the swap returned,
// so over an engine without a sink those windows' anomalies, and every one
// buffered since the last Drain, were lost.
func TestManagerPromotionLosesNoAnomaly(t *testing.T) {
	eng, mgr, _, _ := newServingStack(t, managerTestConfig())
	faulted := traffic(2000, 43, epoch.Add(time.Hour), faults.NewInjector(netSendError()))
	// Read before the engine recycles the records: what the serving model
	// reports over the faulted traffic, examples aside.
	type verdict struct {
		kind      analyzer.AnomalyKind
		window    time.Time
		signature synopsis.Signature
		outliers  int
	}
	verdicts := func(as []analyzer.Anomaly) []verdict {
		analyzer.SortAnomalies(as)
		var out []verdict
		for _, a := range as {
			out = append(out, verdict{a.Kind, a.Window, a.Signature, a.Outliers})
		}
		return out
	}
	want := verdicts(detect(eng.Model(), faulted))
	if len(want) == 0 {
		t.Fatal("the serving model reports nothing over the faulted traffic: the test proves nothing")
	}
	mgr.EmitBatch(faulted)
	if _, err := mgr.Retrain(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := verdicts(eng.Flush()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the promotion the engine reports %d anomalies, want the serving model's %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
}

func TestManagerRetrainTooFew(t *testing.T) {
	_, mgr, _, _ := newServingStack(t, managerTestConfig())
	mgr.EmitBatch(traffic(10, 35, epoch.Add(time.Hour), nil))
	if _, err := mgr.Retrain(); !errors.Is(err, ErrRetrainTooFew) {
		t.Fatalf("Retrain on near-empty buffer: %v", err)
	}
}

func TestManagerPromoteForcesPendingCandidate(t *testing.T) {
	eng, mgr, _, _ := newServingStack(t, managerTestConfig())

	if _, err := mgr.Promote(); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("Promote with no candidate: %v", err)
	}
	mgr.EmitBatch(traffic(2000, 36, epoch.Add(time.Hour), nil))
	if _, err := mgr.Retrain(); err != nil {
		t.Fatal(err)
	}
	// No shadow windows yet — the operator overrides.
	meta, err := mgr.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || mgr.ServingVersion() != 2 {
		t.Fatalf("force-promote: meta %+v, serving %d", meta, mgr.ServingVersion())
	}
	if got := eng.Model().TrainedOn; got != 2000 {
		t.Fatalf("engine model TrainedOn = %d after force-promote", got)
	}
}

// TestManagerKeepVersionsBoundsStore: every candidate is shadowed — a
// retrain never promotes, and the next one replaces the pending candidate —
// and KeepVersions bounds the store to the newest versions plus the serving
// one.
func TestManagerKeepVersionsBoundsStore(t *testing.T) {
	cfg := managerTestConfig()
	cfg.KeepVersions = 2
	cfg.ShadowConfig.MinWindows = 1 << 20 // no shadow reaches a verdict
	_, mgr, store, _ := newServingStack(t, cfg)

	for i := 0; i < 3; i++ {
		mgr.EmitBatch(traffic(2000, 37+uint64(i), epoch.Add(time.Duration(i+1)*time.Hour), nil))
		meta, err := mgr.Retrain()
		if err != nil {
			t.Fatal(err)
		}
		st := mgr.Status()
		if st.ServingVersion != 1 || !st.ShadowActive || st.Candidate == nil || st.Candidate.Version != meta.Version {
			t.Fatalf("retrain %d: serving %d, shadow active %v, candidate %+v; want version 1 serving and version %d shadowed",
				i, st.ServingVersion, st.ShadowActive, st.Candidate, meta.Version)
		}
	}
	metas, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 || metas[0].Version != 1 || metas[1].Version != 3 || metas[2].Version != 4 {
		t.Fatalf("store holds %+v, want GC to keep versions 3 and 4 and the serving 1", metas)
	}
}

// TestManagerStaleVerdictNeverPromotes: a verdict passes one candidate, and
// a retrain puts a newer one in its place before that promotion's turn: the
// promotion does nothing, and the newer candidate stays pending under its
// own shadow until its verdict, or an operator, promotes it.
func TestManagerStaleVerdictNeverPromotes(t *testing.T) {
	eng, mgr, _, _ := newServingStack(t, managerTestConfig())
	mgr.EmitBatch(traffic(2000, 42, epoch.Add(time.Hour), nil))
	if _, err := mgr.Retrain(); err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	passed := mgr.candModel
	mgr.mu.Unlock()
	newer, err := mgr.Retrain()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mgr.promote(passed); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("promoting a replaced candidate: err %v, want ErrNoCandidate", err)
	}
	st := mgr.Status()
	if st.ServingVersion != 1 || st.Swaps != 0 || eng.Model().TrainedOn != 6000 {
		t.Fatalf("a replaced candidate was swapped in: serving %d, %d swaps, engine model over %d synopses",
			st.ServingVersion, st.Swaps, eng.Model().TrainedOn)
	}
	if !st.ShadowActive || st.Candidate == nil || st.Candidate.Version != newer.Version {
		t.Fatalf("status = %+v, want version %d pending under its shadow", st, newer.Version)
	}
	if meta, err := mgr.Promote(); err != nil || meta.Version != newer.Version || mgr.ServingVersion() != newer.Version {
		t.Fatalf("operator promote: meta %+v, err %v, serving %d; want version %d", meta, err, mgr.ServingVersion(), newer.Version)
	}
}

// TestManagerConcurrentRetrainSerialized: the retrain ticker and the HTTP
// handler can call Retrain at the same moment; the retrain mutex must
// serialize them so both land as distinct store versions (Store.Put is
// single-writer — unserialized, both would compute the same next version
// and one candidate would silently vanish under the other's rename).
func TestManagerConcurrentRetrainSerialized(t *testing.T) {
	_, mgr, store, _ := newServingStack(t, managerTestConfig())
	mgr.EmitBatch(traffic(2000, 41, epoch.Add(time.Hour), nil))

	metas := make([]Meta, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range metas {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			metas[i], errs[i] = mgr.Retrain()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("retrain %d: %v", i, err)
		}
	}
	if metas[0].Version == metas[1].Version {
		t.Fatalf("concurrent retrains were assigned the same version %d", metas[0].Version)
	}
	list, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("store holds %d versions, want 3 (base + both retrains)", len(list))
	}
}

// TestManagerPromotionsTakeTurns: three stream handlers feed the manager,
// and so fire auto-promotions, while retrains and operator promotions run
// beside them and beside each other. Promotions take turns, so at the end
// the engine serves the model of the version the manager reports, which is
// the version a restart would load, and every synopsis reached the engine.
func TestManagerPromotionsTakeTurns(t *testing.T) {
	eng, mgr, store, _ := newServingStack(t, managerTestConfig())
	const feeders, perFeeder, chunk, every = 3, 6000, 200, 15
	// One tick per chunk fed: the buffer holds every send, so no feeder
	// waits on the loop that reads them.
	ticks := make(chan struct{}, feeders*perFeeder/chunk)
	var feeding, control sync.WaitGroup
	for h := uint16(1); h <= feeders; h++ {
		recs := traffic(perFeeder, 50+uint64(h), epoch.Add(time.Hour), nil)
		for _, s := range recs {
			s.Host = h // one group per handler keeps each group in order
		}
		feeding.Add(1)
		go func() {
			defer feeding.Done()
			for len(recs) > 0 {
				n := min(chunk, len(recs))
				mgr.EmitBatch(recs[:n])
				recs = recs[n:]
				ticks <- struct{}{}
			}
		}()
	}
	promote := func() {
		if _, err := mgr.Promote(); err != nil && !errors.Is(err, ErrNoCandidate) {
			t.Error(err)
		}
	}
	retrains := 0
	for i := 1; i <= feeders*perFeeder/chunk; i++ {
		<-ticks
		if i%every != 0 {
			continue
		}
		retrains++
		control.Add(2)
		go func() {
			defer control.Done()
			if _, err := mgr.Retrain(); err != nil {
				t.Error(err)
			}
			promote()
		}()
		go func() {
			defer control.Done()
			promote()
		}()
	}
	feeding.Wait()
	control.Wait()

	st := mgr.Status()
	if st.Retrains != uint64(retrains) || st.Swaps == 0 || st.RecordError != "" {
		t.Fatalf("%d retrains, %d swaps, record error %q; want %d retrains, some swaps, no error", st.Retrains, st.Swaps, st.RecordError, retrains)
	}
	stored, meta, err := store.LoadServing()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != st.ServingVersion {
		t.Fatalf("the manager serves version %d, a restart would load %d", st.ServingVersion, meta.Version)
	}
	var served, want bytes.Buffer
	if _, err := eng.Model().WriteTo(&served); err != nil {
		t.Fatal(err)
	}
	if _, err := stored.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Fatalf("the engine serves a model other than version %d's", meta.Version)
	}
	if got := eng.Fed(); got != feeders*perFeeder {
		t.Fatalf("the engine was fed %d synopses, want %d", got, feeders*perFeeder)
	}
}

// TestManagerServeHTTP drives the /model admin endpoint end to end.
func TestManagerServeHTTP(t *testing.T) {
	_, mgr, _, _ := newServingStack(t, managerTestConfig())

	do := func(method, target string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		mgr.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		return rec
	}

	rec := do(http.MethodGet, "/model")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ServingVersion != 1 || len(st.Lineage) != 1 {
		t.Fatalf("GET status = %+v", st)
	}

	// Retrain with an empty buffer conflicts.
	if rec := do(http.MethodPost, "/model?action=retrain"); rec.Code != http.StatusConflict {
		t.Fatalf("retrain with empty buffer = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodPost, "/model?action=promote"); rec.Code != http.StatusConflict {
		t.Fatalf("promote with no candidate = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodPost, "/model?action=selfdestruct"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown action = %d", rec.Code)
	}
	if rec := do(http.MethodPut, "/model"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT = %d", rec.Code)
	}

	mgr.EmitBatch(traffic(2000, 39, epoch.Add(time.Hour), nil))
	rec = do(http.MethodPost, "/model?action=retrain")
	if rec.Code != http.StatusOK {
		t.Fatalf("retrain = %d: %s", rec.Code, rec.Body)
	}
	var meta Meta
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || meta.Parent != 1 {
		t.Fatalf("retrain meta = %+v", meta)
	}
	if rec := do(http.MethodPost, "/model?action=promote"); rec.Code != http.StatusOK {
		t.Fatalf("promote = %d: %s", rec.Code, rec.Body)
	}
	rec = do(http.MethodGet, "/model")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ServingVersion != 2 || st.Swaps != 1 || len(st.Lineage) != 2 {
		t.Fatalf("status after promote = %+v", st)
	}
}
