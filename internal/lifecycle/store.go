// Package lifecycle closes the train → serve → retrain loop around the
// analyzer: a versioned on-disk model store, a shadow evaluator that runs a
// candidate model side-by-side with the serving one, and a manager that
// buffers the live synopsis stream for retraining and hot-swaps promoted
// candidates into the serving engine at a window boundary.
package lifecycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"saad/internal/analyzer"
)

// ErrEmptyStore is returned by Latest/LoadLatest when no version exists.
var ErrEmptyStore = errors.New("lifecycle: model store is empty")

// ErrNoVersion is returned by Load when the requested version is absent.
var ErrNoVersion = errors.New("lifecycle: model version not found")

// Meta describes one stored model version.
type Meta struct {
	// Version is the store-assigned, monotonically increasing version
	// number (1-based).
	Version int `json:"version"`
	// Parent is the version the model was retrained from; 0 for roots.
	Parent int `json:"parent"`
	// CreatedAt is when the version was written to the store.
	CreatedAt time.Time `json:"created_at"`
	// TrainedFrom/TrainedTo bound the synopsis window the model was
	// trained on (zero when unknown, e.g. offline-trained imports).
	TrainedFrom time.Time `json:"trained_from"`
	TrainedTo   time.Time `json:"trained_to"`
	// Synopses is the number of synopses in the training trace.
	Synopses int `json:"synopses"`
	// ConfigHash fingerprints the analyzer configuration the model was
	// trained with; two versions with different hashes are not comparable.
	ConfigHash string `json:"config_hash"`
}

// PutInfo carries the caller-supplied metadata for Store.Put.
type PutInfo struct {
	Parent      int
	TrainedFrom time.Time
	TrainedTo   time.Time
}

// storedModel is the on-disk wire format: metadata wrapping the model's own
// serialized form.
type storedModel struct {
	Meta  Meta            `json:"meta"`
	Model json.RawMessage `json:"model"`
}

// Store is a directory of immutable, versioned model files
// (model-NNNNNN.json) plus the record of which one is serving. Writes are
// atomic (temp + fsync + rename), versions only ever increase, and
// concurrent readers always see a complete file.
// Store methods are safe for one writer with any number of readers; guard
// multi-writer use externally.
type Store struct {
	dir string
	now func() time.Time
}

// Open opens (creating if needed) a model store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: open store: %w", err)
	}
	return &Store{dir: dir, now: time.Now}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func versionPath(dir string, version int) string {
	return filepath.Join(dir, fmt.Sprintf("model-%06d.json", version))
}

// parseVersion extracts the version from a store filename, or -1.
func parseVersion(name string) int {
	if !strings.HasPrefix(name, "model-") || !strings.HasSuffix(name, ".json") {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "model-"), ".json"))
	if err != nil || n <= 0 {
		return -1
	}
	return n
}

// versions lists the store's version numbers in ascending order.
func (s *Store) versions() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: list store: %w", err)
	}
	var out []int
	for _, e := range entries {
		if v := parseVersion(e.Name()); v > 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// List returns the metadata of every stored version, ascending by version.
func (s *Store) List() ([]Meta, error) {
	vs, err := s.versions()
	if err != nil {
		return nil, err
	}
	out := make([]Meta, 0, len(vs))
	for _, v := range vs {
		_, meta, err := s.read(v, false)
		if err != nil {
			return nil, err
		}
		out = append(out, meta)
	}
	return out, nil
}

// Latest returns the newest version's metadata, or ErrEmptyStore.
func (s *Store) Latest() (Meta, error) {
	vs, err := s.versions()
	if err != nil {
		return Meta{}, err
	}
	if len(vs) == 0 {
		return Meta{}, ErrEmptyStore
	}
	_, meta, err := s.read(vs[len(vs)-1], false)
	return meta, err
}

// Load returns the model and metadata of one version.
func (s *Store) Load(version int) (*analyzer.Model, Meta, error) {
	return s.read(version, true)
}

// LoadLatest returns the newest stored model, or ErrEmptyStore.
func (s *Store) LoadLatest() (*analyzer.Model, Meta, error) {
	vs, err := s.versions()
	if err != nil {
		return nil, Meta{}, err
	}
	if len(vs) == 0 {
		return nil, Meta{}, ErrEmptyStore
	}
	return s.read(vs[len(vs)-1], true)
}

func (s *Store) read(version int, withModel bool) (*analyzer.Model, Meta, error) {
	raw, err := os.ReadFile(versionPath(s.dir, version))
	if errors.Is(err, os.ErrNotExist) {
		return nil, Meta{}, fmt.Errorf("%w: %d", ErrNoVersion, version)
	}
	if err != nil {
		return nil, Meta{}, fmt.Errorf("lifecycle: read version %d: %w", version, err)
	}
	var stored storedModel
	if err := json.Unmarshal(raw, &stored); err != nil {
		return nil, Meta{}, fmt.Errorf("lifecycle: decode version %d: %w", version, err)
	}
	if stored.Meta.Version != version {
		return nil, Meta{}, fmt.Errorf("lifecycle: version %d file claims version %d", version, stored.Meta.Version)
	}
	if !withModel {
		return nil, stored.Meta, nil
	}
	model, err := analyzer.ReadModel(bytes.NewReader(stored.Model))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("lifecycle: decode version %d model: %w", version, err)
	}
	return model, stored.Meta, nil
}

// Put writes a new version holding model, assigns it the next version
// number and returns its metadata. The write is atomic: a crash leaves
// either the complete new version or nothing.
func (s *Store) Put(model *analyzer.Model, info PutInfo) (Meta, error) {
	vs, err := s.versions()
	if err != nil {
		return Meta{}, err
	}
	next := 1
	if len(vs) > 0 {
		next = vs[len(vs)-1] + 1
	}
	var modelBuf strings.Builder
	if _, err := model.WriteTo(&modelBuf); err != nil {
		return Meta{}, fmt.Errorf("lifecycle: serialize model: %w", err)
	}
	meta := Meta{
		Version:     next,
		Parent:      info.Parent,
		CreatedAt:   s.now().UTC(),
		TrainedFrom: info.TrainedFrom,
		TrainedTo:   info.TrainedTo,
		Synopses:    model.TrainedOn,
		ConfigHash:  ConfigHash(model.Config),
	}
	payload, err := json.MarshalIndent(storedModel{Meta: meta, Model: json.RawMessage(modelBuf.String())}, "", "\t")
	if err != nil {
		return Meta{}, fmt.Errorf("lifecycle: encode version %d: %w", next, err)
	}
	// Stored models are plain artifacts: world-readable.
	err = analyzer.WriteFileAtomic(versionPath(s.dir, next), 0o644, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return Meta{}, fmt.Errorf("lifecycle: store version %d: %w", next, err)
	}
	return meta, nil
}

// servingFile is the one file in the store directory that is not a version:
// it records, as a decimal number, which version is being served.
const servingFile = "serving"

// MarkServing records version as the one being served — a promotion, or
// the first model a store is given. It is the version LoadServing returns
// after a restart and the one GC never removes: a candidate that was only
// Put has been judged by nothing yet.
func (s *Store) MarkServing(version int) error {
	err := analyzer.WriteFileAtomic(filepath.Join(s.dir, servingFile), 0o644, func(w io.Writer) error {
		_, err := fmt.Fprintln(w, version)
		return err
	})
	if err != nil {
		return fmt.Errorf("lifecycle: record serving version %d: %w", version, err)
	}
	return nil
}

// recorded returns the version MarkServing last recorded, 0 when the store
// has no record.
func (s *Store) recorded() (int, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, servingFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("lifecycle: read serving record: %w", err)
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("lifecycle: serving record holds %q, want a version number", raw)
	}
	return v, nil
}

// serving is LoadServing's choice of version without the load: 0 for an
// empty store.
func (s *Store) serving() (int, error) {
	v, err := s.recorded()
	if err != nil || v != 0 {
		return v, err
	}
	vs, err := s.versions()
	if err != nil || len(vs) == 0 {
		return 0, err
	}
	return vs[len(vs)-1], nil
}

// LoadServing returns the model a start serves: the recorded version, or —
// only for a store that has no record, one no daemon has served from yet —
// the newest. ErrEmptyStore when there is none.
func (s *Store) LoadServing() (*analyzer.Model, Meta, error) {
	v, err := s.serving()
	if err != nil {
		return nil, Meta{}, err
	}
	if v == 0 {
		return nil, Meta{}, ErrEmptyStore
	}
	return s.read(v, true)
}

// PutServing stores model as the version that replaces the one serving —
// its parent is the version LoadServing returns, 0 for an empty store — and
// records it as serving. It is an operator choosing a model: train mode and
// Monitor.Train. A candidate stored after the serving version is not the
// parent; it was never served.
func (s *Store) PutServing(model *analyzer.Model) (Meta, error) {
	parent, err := s.serving()
	if err != nil {
		return Meta{}, err
	}
	meta, err := s.Put(model, PutInfo{Parent: parent})
	if err != nil {
		return Meta{}, err
	}
	if err := s.MarkServing(meta.Version); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// GC removes all but the newest keep versions and returns the versions it
// deleted. keep < 1 is treated as 1 — the store never deletes its newest
// version — and the version recorded as serving stays however old it is: a
// run of rejected candidates must not age out the model they lost to.
func (s *Store) GC(keep int) ([]int, error) {
	if keep < 1 {
		keep = 1
	}
	vs, err := s.versions()
	if err != nil {
		return nil, err
	}
	if len(vs) <= keep {
		return nil, nil
	}
	serving, err := s.recorded()
	if err != nil {
		return nil, err
	}
	doomed := vs[:len(vs)-keep]
	removed := make([]int, 0, len(doomed))
	for _, v := range doomed {
		if v == serving {
			continue
		}
		if err := os.Remove(versionPath(s.dir, v)); err != nil {
			return removed, fmt.Errorf("lifecycle: gc version %d: %w", v, err)
		}
		removed = append(removed, v)
	}
	return removed, nil
}

// ConfigHash fingerprints an analyzer configuration: a short hex digest of
// its canonical JSON form. Models trained under different hashes are not
// comparable.
func ConfigHash(cfg analyzer.Config) string {
	raw, err := json.Marshal(cfg)
	if err != nil {
		// Config is a flat struct of scalars; Marshal cannot fail.
		return "unhashable"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}
