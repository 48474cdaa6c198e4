package saad_test

import (
	"testing"

	"saad"
	"saad/internal/lifecycle"
)

// TestMonitorModelStoreVersions: a monitor built WithModelStore records
// every Train as the next version of the store, parent-linked to the one
// before it and recorded as the one serving, and ModelVersion follows; the
// versions outlive the monitors that wrote them.
func TestMonitorModelStoreVersions(t *testing.T) {
	dir := t.TempDir()
	// trainOne runs one monitor over the store through a Train (a monitor
	// trains once: the second version comes from its successor).
	trainOne := func() (version int, model *saad.Model) {
		t.Helper()
		mon, err := saad.NewMonitor(saad.WithAnalyzerConfig(eqConfig()), saad.WithHost(eqHost), saad.WithModelStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		if mon.ModelStore() == nil {
			t.Fatal("WithModelStore left the monitor without a store")
		}
		if got := mon.ModelVersion(); got != 0 {
			t.Fatalf("ModelVersion before Train = %d, want 0", got)
		}
		for _, name := range []string{"A", "B", "C"} {
			buildStage(t, mon.Dictionary(), name)
		}
		eqTrain(mon.Tracker())
		model, err = mon.Train()
		if err != nil {
			t.Fatal(err)
		}
		return mon.ModelVersion(), model
	}
	if v, _ := trainOne(); v != 1 {
		t.Fatalf("first Train stored version %d, want 1", v)
	}
	v, model := trainOne()
	if v != 2 {
		t.Fatalf("second Train stored version %d, want 2", v)
	}

	store, err := saad.OpenModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Version != 1 || metas[0].Parent != 0 || metas[1].Version != 2 || metas[1].Parent != 1 {
		t.Fatalf("reopened store lists %+v, want version 1 (a root) and version 2 (its child)", metas)
	}
	// Train recorded version 2 as serving: a version that is only stored
	// afterwards — a retrain's candidate — is not what the next start loads.
	if _, err := store.Put(model, lifecycle.PutInfo{Parent: 2}); err != nil {
		t.Fatal(err)
	}
	serving, meta, err := store.LoadServing()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || meta.Synopses != model.TrainedOn || serving.TrainedOn != model.TrainedOn {
		t.Fatalf("serving = version %d over %d synopses (model says %d), want version 2 over %d",
			meta.Version, meta.Synopses, serving.TrainedOn, model.TrainedOn)
	}
	// The next Train replaces version 2, the one serving: version 3 was only
	// ever a candidate, so it is not the new version's parent.
	if v, _ := trainOne(); v != 4 {
		t.Fatalf("third Train stored version %d, want 4", v)
	}
	if metas, err = store.List(); err != nil {
		t.Fatal(err)
	}
	if got := metas[len(metas)-1]; got.Version != 4 || got.Parent != 2 {
		t.Fatalf("third Train stored version %d with parent %d, want 4 with parent 2 (the serving version)", got.Version, got.Parent)
	}
	if _, meta, err := store.LoadServing(); err != nil || meta.Version != 4 {
		t.Fatalf("after the third Train a restart would serve version %d (err %v), want 4", meta.Version, err)
	}
}

// TestMonitorSetModelIsNoStoreVersion: a model set with SetModel went
// through no store, so once it serves ModelVersion is 0 — not the version
// the Train before it stored — and the store is left as it was.
func TestMonitorSetModelIsNoStoreVersion(t *testing.T) {
	dir := t.TempDir()
	mon, err := saad.NewMonitor(saad.WithAnalyzerConfig(eqConfig()), saad.WithHost(eqHost), saad.WithModelStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, name := range []string{"A", "B", "C"} {
		buildStage(t, mon.Dictionary(), name)
	}
	eqTrain(mon.Tracker())
	model, err := mon.Train()
	if err != nil {
		t.Fatal(err)
	}
	if got, gauge := mon.ModelVersion(), mon.MetricsSnapshot().Gauge("saad_lifecycle_model_version"); got != 1 || gauge != 1 {
		t.Fatalf("ModelVersion after Train = %d (gauge %v), want 1", got, gauge)
	}
	mon.SetModel(model.Clone())
	if got := mon.ModelVersion(); got != 0 {
		t.Fatalf("ModelVersion after SetModel = %d, want 0: the set model is no store version", got)
	}
	if got := mon.MetricsSnapshot().Gauge("saad_lifecycle_model_version"); got != 0 {
		t.Fatalf("model_version gauge after SetModel = %v, want 0", got)
	}
	if metas, err := mon.ModelStore().List(); err != nil || len(metas) != 1 {
		t.Fatalf("store lists %+v (err %v) after SetModel, want the one trained version", metas, err)
	}
}
