package lifecycle

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreEmpty(t *testing.T) {
	s := openStore(t)
	if _, err := s.Latest(); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("Latest on empty store: %v", err)
	}
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("LoadLatest on empty store: %v", err)
	}
	if _, _, err := s.Load(3); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Load(3) on empty store: %v", err)
	}
	if metas, err := s.List(); err != nil || len(metas) != 0 {
		t.Fatalf("List on empty store = %v, %v", metas, err)
	}
}

// TestStoreRoundTrip proves a stored model detects identically to the one
// that went in: same anomalies on the same mixed stream.
func TestStoreRoundTrip(t *testing.T) {
	train := traffic(6000, 1, epoch, nil)
	model := trainOn(t, train)

	s := openStore(t)
	s.now = func() time.Time { return epoch.Add(time.Hour) }
	meta, err := s.Put(model, PutInfo{TrainedFrom: train[0].Start, TrainedTo: train[len(train)-1].Start})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 || meta.Parent != 0 {
		t.Fatalf("meta = %+v, want version 1 parent 0", meta)
	}
	if meta.Synopses != model.TrainedOn {
		t.Fatalf("Synopses = %d, want %d", meta.Synopses, model.TrainedOn)
	}
	if meta.ConfigHash != ConfigHash(model.Config) {
		t.Fatalf("ConfigHash = %q, want %q", meta.ConfigHash, ConfigHash(model.Config))
	}
	if !meta.CreatedAt.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("CreatedAt = %v", meta.CreatedAt)
	}
	if !meta.TrainedFrom.Equal(train[0].Start) || !meta.TrainedTo.Equal(train[len(train)-1].Start) {
		t.Fatalf("trained window = %v..%v", meta.TrainedFrom, meta.TrainedTo)
	}

	loaded, gotMeta, err := s.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Version != 1 || gotMeta.Synopses != meta.Synopses {
		t.Fatalf("loaded meta = %+v", gotMeta)
	}
	// Detection equivalence on a stream with a novel-signature burst.
	live := traffic(2500, 2, after(train), nil)
	for i := 1200; i < 1300; i++ {
		live[i] = makeSyn(1, 1, live[i].Start, live[i].Duration, 1, 2, 8)
	}
	want := detect(model, live)
	got := detect(loaded, live)
	if len(want) == 0 {
		t.Fatal("baseline produced no anomalies; round-trip check is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded model detects differently:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestStoreVersioningAndLineage(t *testing.T) {
	s := openStore(t)
	trace := traffic(4000, 3, epoch, nil)
	model := trainOn(t, trace)

	m1, err := s.Put(model, PutInfo{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Put(model, PutInfo{Parent: m1.Version})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := s.Put(model, PutInfo{Parent: m2.Version})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 || m2.Version != 2 || m3.Version != 3 {
		t.Fatalf("versions = %d, %d, %d", m1.Version, m2.Version, m3.Version)
	}
	metas, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 || metas[0].Version != 1 || metas[2].Version != 3 {
		t.Fatalf("List = %+v", metas)
	}
	if metas[1].Parent != 1 || metas[2].Parent != 2 {
		t.Fatalf("lineage broken: %+v", metas)
	}
	latest, err := s.Latest()
	if err != nil || latest.Version != 3 {
		t.Fatalf("Latest = %+v, %v", latest, err)
	}

	// GC keeps the newest versions; the next Put stays monotonic.
	removed, err := s.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(removed, []int{1, 2}) {
		t.Fatalf("GC removed %v, want [1 2]", removed)
	}
	if _, _, err := s.Load(1); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Load(1) after GC: %v", err)
	}
	m4, err := s.Put(model, PutInfo{Parent: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m4.Version != 4 {
		t.Fatalf("post-GC version = %d, want 4", m4.Version)
	}

	// GC(keep < 1) never deletes the newest version.
	if removed, err := s.GC(0); err != nil || !reflect.DeepEqual(removed, []int{3}) {
		t.Fatalf("GC(0) = %v, %v, want [3]", removed, err)
	}
	if latest, err := s.Latest(); err != nil || latest.Version != 4 {
		t.Fatalf("Latest after GC(0) = %+v, %v", latest, err)
	}
}

// TestStoreServingRecord: a store with no record serves its newest version;
// once a version is recorded as serving, newer versions are candidates — a
// start does not load them and GC does not trade the serving one for them.
func TestStoreServingRecord(t *testing.T) {
	s := openStore(t)
	model := trainOn(t, traffic(4000, 6, epoch, nil))
	serves := func() int {
		t.Helper()
		_, meta, err := s.LoadServing()
		if err != nil {
			t.Fatal(err)
		}
		return meta.Version
	}
	if _, _, err := s.LoadServing(); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("LoadServing on empty store: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Put(model, PutInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := serves(); got != 2 {
		t.Fatalf("store without a record serves version %d, want the newest, 2", got)
	}
	if err := s.MarkServing(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // candidates 3, 4, 5: none promoted
		if _, err := s.Put(model, PutInfo{Parent: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := serves(); got != 1 {
		t.Fatalf("store serves version %d, want the recorded 1", got)
	}
	if removed, err := s.GC(2); err != nil || !reflect.DeepEqual(removed, []int{2, 3}) {
		t.Fatalf("GC(2) = %v, %v, want [2 3]: the serving version stays", removed, err)
	}
	if got := serves(); got != 1 {
		t.Fatalf("after GC the store serves version %d, want 1", got)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), servingFile), []byte("latest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadServing(); err == nil || !strings.Contains(err.Error(), "serving record") {
		t.Fatalf("LoadServing with a garbled record: %v", err)
	}
}

// TestStoreNoTempLeftovers: atomic writes leave only complete version files
// behind.
func TestStoreNoTempLeftovers(t *testing.T) {
	s := openStore(t)
	model := trainOn(t, traffic(4000, 4, epoch, nil))
	for i := 0; i < 3; i++ {
		if _, err := s.Put(model, PutInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.GC(2); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
		if parseVersion(e.Name()) <= 0 {
			t.Fatalf("unexpected file in store: %s", e.Name())
		}
	}
	if len(names) != 2 {
		t.Fatalf("store holds %v, want exactly the 2 kept versions", names)
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	s := openStore(t)
	model := trainOn(t, traffic(4000, 5, epoch, nil))
	if _, err := s.Put(model, PutInfo{}); err != nil {
		t.Fatal(err)
	}

	// Garbage in a version file is an error, not a silent skip.
	if err := os.WriteFile(filepath.Join(s.Dir(), "model-000002.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(2); err == nil {
		t.Fatal("corrupt version loaded")
	}

	// A renamed file claiming another version is rejected too.
	raw, err := os.ReadFile(versionPath(s.Dir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(versionPath(s.Dir(), 9), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(9); err == nil || !strings.Contains(err.Error(), "claims version") {
		t.Fatalf("mismatched version file: %v", err)
	}
}

func TestConfigHash(t *testing.T) {
	a := testConfig()
	b := testConfig()
	if ConfigHash(a) != ConfigHash(b) {
		t.Fatal("identical configs hash differently")
	}
	b.Alpha = 0.01
	if ConfigHash(a) == ConfigHash(b) {
		t.Fatal("different configs collide")
	}
	if n := len(ConfigHash(a)); n != 16 {
		t.Fatalf("hash length = %d, want 16 hex chars", n)
	}
}
