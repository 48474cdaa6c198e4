package lifecycle

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"saad/internal/analyzer"
	"saad/internal/metrics"
	"saad/internal/synopsis"
)

// ErrRetrainTooFew is returned when the retrain buffer holds fewer
// synopses than ManagerConfig.MinRetrain.
var ErrRetrainTooFew = errors.New("lifecycle: not enough buffered synopses to retrain")

// ErrNoCandidate is returned by Promote when no candidate is pending.
var ErrNoCandidate = errors.New("lifecycle: no candidate model pending")

// ManagerConfig tunes the lifecycle manager.
type ManagerConfig struct {
	// RetrainWindow is the capacity of the ring buffer of recent synopses
	// a retrain trains on. Default 50000.
	RetrainWindow int
	// MinRetrain is the minimum ring occupancy before Retrain succeeds.
	// Default 2000.
	MinRetrain int
	// Shadow gates promotion behind a shadow evaluation: a freshly
	// trained candidate runs side-by-side with the serving model and is
	// only promoted when its verdict passes. When false, Retrain promotes
	// immediately. Default true (set DisableShadow to turn off).
	DisableShadow bool
	// VerdictEvery is how often (in observed synopses) an active shadow
	// evaluation is polled for a verdict. Default 256.
	VerdictEvery int
	// KeepVersions bounds the store via GC after every Put; 0 disables
	// collection entirely — unbounded retention, which under periodic
	// retraining grows the store (and the /model lineage listing) without
	// limit. Long-running deployments should set a small positive number
	// (the saad-analyzer CLI defaults to 16 via -model-keep).
	KeepVersions int
	// ShadowConfig tunes the shadow evaluation.
	ShadowConfig ShadowConfig
}

func (c *ManagerConfig) applyDefaults() {
	if c.RetrainWindow <= 0 {
		c.RetrainWindow = 50000
	}
	if c.MinRetrain <= 0 {
		c.MinRetrain = 2000
	}
	if c.VerdictEvery <= 0 {
		c.VerdictEvery = 256
	}
}

// Status is the manager's introspectable state, served on /model.
type Status struct {
	ServingVersion int      `json:"serving_version"`
	Serving        *Meta    `json:"serving,omitempty"`
	Candidate      *Meta    `json:"candidate,omitempty"`
	ShadowActive   bool     `json:"shadow_active"`
	LastVerdict    *Verdict `json:"last_verdict,omitempty"`
	Buffered       int      `json:"buffered"`
	Retrains       uint64   `json:"retrains"`
	Swaps          uint64   `json:"swaps"`
	Lineage        []Meta   `json:"lineage,omitempty"`
	// RecordError is why the last promotion could not be recorded in the
	// store: until one is, a restart serves the version promoted before it.
	RecordError string `json:"record_error,omitempty"`
}

// Manager owns the adaptive model lifecycle around a serving engine: it
// buffers recent synopses for retraining, shadow-evaluates candidates and
// hot-swaps promoted models into the engine. All methods are safe for
// concurrent use; the engine swap itself happens outside the manager's lock
// (it has its own quiesce protocol).
type Manager struct {
	eng   *analyzer.Engine
	store *Store
	cfg   ManagerConfig
	lm    *metrics.LifecycleMetrics

	// retrainMu serializes Retrain end-to-end (the retrain ticker and the
	// POST /model?action=retrain handler can fire together), which is what
	// upholds the store's single-writer contract. It is separate from mu so
	// frames keep flowing while a retrain trains and stores.
	retrainMu sync.Mutex

	mu          sync.Mutex
	serving     Meta
	hasServing  bool
	ring        []*synopsis.Synopsis
	ringNext    int
	ringCount   int
	shadow      *Shadow
	candidate   Meta
	candModel   *analyzer.Model
	lastVerdict *Verdict
	retrains    uint64
	swaps       uint64
	recordErr   error // the last promotion's Store.MarkServing result
	swapping    bool
	// pendingPromote records a promotion request that landed while a swap
	// was in flight; the goroutine finishing the swap applies it.
	pendingPromote bool
}

// ManagerOption customizes a Manager.
type ManagerOption func(*Manager)

// WithLifecycleMetrics attaches the lifecycle metric bundle.
func WithLifecycleMetrics(lm *metrics.LifecycleMetrics) ManagerOption {
	return func(m *Manager) { m.lm = lm }
}

// WithServingVersion records which store version the engine is serving.
func WithServingVersion(meta Meta) ManagerOption {
	return func(m *Manager) {
		m.serving = meta
		m.hasServing = true
	}
}

// NewManager builds a manager around a serving engine and a store. The
// engine must already be serving.
func NewManager(eng *analyzer.Engine, store *Store, cfg ManagerConfig, opts ...ManagerOption) *Manager {
	cfg.applyDefaults()
	m := &Manager{
		eng:   eng,
		store: store,
		cfg:   cfg,
		ring:  make([]*synopsis.Synopsis, cfg.RetrainWindow),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.lm != nil && m.hasServing {
		m.lm.ModelVersion.Set(float64(m.serving.Version))
	}
	return m
}

// ServingVersion returns the store version currently serving (0 when the
// serving model never came from the store).
func (m *Manager) ServingVersion() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.serving.Version
}

// LastVerdict returns the most recent shadow verdict (nil before one is
// computed).
func (m *Manager) LastVerdict() *Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastVerdict
}

// Emit implements tracker.Sink: the one-record case of EmitBatch.
func (m *Manager) Emit(s *synopsis.Synopsis) {
	one := [1]*synopsis.Synopsis{s}
	m.EmitBatch(one[:])
}

// EmitBatch implements stream.BatchSink: the manager stands in front of its
// engine as the server's sink. The engine is fed first (FIFO into its
// queue, the frame still a frame) and the lifecycle observes after — but on
// clones cut before the feed: the retrain ring keeps what it is handed,
// while the engine may release a record to its pool, to be overwritten by
// the next frame, as soon as its worker has observed it. The borrowed slice is
// read and passed on to FeedBatch, which copies out of it.
func (m *Manager) EmitBatch(batch []*synopsis.Synopsis) {
	clones := make([]*synopsis.Synopsis, len(batch))
	for i, s := range batch {
		clones[i] = s.Clone()
	}
	m.eng.FeedBatch(batch)
	m.observe(clones)
}

// observe hands records the manager owns to the retrain ring and any active
// shadow evaluation, under one acquisition of mu per frame. A passing shadow
// verdict promotes here: the frame is cut at that record, the swap runs
// outside the lock, and the rest of the frame is observed after it.
func (m *Manager) observe(recs []*synopsis.Synopsis) {
	for len(recs) > 0 {
		n, promote := 0, false
		m.mu.Lock()
		for n < len(recs) && !promote {
			promote = m.observeLocked(recs[n])
			n++
		}
		m.mu.Unlock()
		if promote {
			m.promote()
		}
		recs = recs[n:]
	}
}

// observeLocked is observe for one record, with mu held. It reports whether
// the caller must now run promote (m.swapping is then already set).
func (m *Manager) observeLocked(s *synopsis.Synopsis) (promote bool) {
	m.ring[m.ringNext] = s
	m.ringNext = (m.ringNext + 1) % len(m.ring)
	if m.ringCount < len(m.ring) {
		m.ringCount++
	}
	if m.shadow == nil {
		return false
	}
	m.shadow.Observe(s)
	if m.shadow.Fed()%m.cfg.VerdictEvery != 0 {
		return false
	}
	v := m.shadow.Verdict()
	if !v.Ready {
		return false
	}
	m.lastVerdict = &v
	if m.lm != nil {
		m.lm.ShadowDivergence.Set(v.Divergence)
	}
	if !v.Promote {
		// Rejected: drop the candidate, keep its store version for
		// forensics (the store's serving record is what keeps a restart
		// from loading it). The divergence gauge resets with the shadow —
		// a dead evaluation must not keep exporting its last reading as
		// if it were current.
		m.shadow = nil
		m.candModel = nil
		if m.lm != nil {
			m.lm.ShadowDivergence.Set(0)
		}
		return false
	}
	if m.swapping {
		return false
	}
	m.swapping = true
	return true
}

// snapshotRing copies the buffered synopses in arrival order.
func (m *Manager) snapshotRing() []*synopsis.Synopsis {
	out := make([]*synopsis.Synopsis, 0, m.ringCount)
	start := 0
	if m.ringCount == len(m.ring) {
		start = m.ringNext
	}
	for i := 0; i < m.ringCount; i++ {
		out = append(out, m.ring[(start+i)%len(m.ring)])
	}
	return out
}

// Retrain trains a candidate on the buffered recent synopses, stores it as
// a new version (parent = serving version; stored, not yet serving) and —
// unless shadow evaluation is disabled — starts shadowing it against the
// serving model. With shadow disabled the candidate is promoted immediately
// (or, when a swap is already in flight, as soon as that swap completes). It
// returns the new version's metadata. Concurrent Retrain calls serialize.
func (m *Manager) Retrain() (Meta, error) {
	m.retrainMu.Lock()
	defer m.retrainMu.Unlock()
	m.mu.Lock()
	if m.ringCount < m.cfg.MinRetrain {
		n := m.ringCount
		m.mu.Unlock()
		return Meta{}, fmt.Errorf("%w: %d < %d", ErrRetrainTooFew, n, m.cfg.MinRetrain)
	}
	trace := m.snapshotRing()
	parent := m.serving.Version
	m.mu.Unlock()

	// Train outside the lock: training is O(trace) and must not stall the
	// sink.
	cfg := m.eng.Model().Config
	model, err := analyzer.Train(cfg, trace)
	if err != nil {
		return Meta{}, fmt.Errorf("lifecycle: retrain: %w", err)
	}
	meta, err := m.store.Put(model, PutInfo{
		Parent:      parent,
		TrainedFrom: trace[0].Start,
		TrainedTo:   trace[len(trace)-1].Start,
	})
	if err != nil {
		return Meta{}, err
	}
	if m.cfg.KeepVersions > 0 {
		if _, err := m.store.GC(m.cfg.KeepVersions); err != nil {
			return Meta{}, err
		}
	}

	m.mu.Lock()
	m.retrains++
	if m.lm != nil {
		m.lm.Retrains.Inc()
	}
	m.candidate = meta
	m.candModel = model
	if m.cfg.DisableShadow {
		immediate := !m.swapping
		if immediate {
			m.swapping = true
		} else {
			// A swap is in flight: the goroutine running it promotes this
			// candidate as soon as it finishes.
			m.pendingPromote = true
		}
		m.mu.Unlock()
		if immediate {
			m.promote()
		}
		return meta, nil
	}
	m.shadow = NewShadow(m.eng.Model(), model.Clone(), m.cfg.ShadowConfig)
	m.lastVerdict = nil
	m.mu.Unlock()
	return meta, nil
}

// Promote forces promotion of the pending candidate regardless of the
// shadow verdict (operator override). It returns the promoted version's
// metadata. When a swap is already in flight the promotion is deferred:
// the goroutine finishing that swap applies it immediately after.
func (m *Manager) Promote() (Meta, error) {
	m.mu.Lock()
	if m.candModel == nil {
		m.mu.Unlock()
		return Meta{}, ErrNoCandidate
	}
	meta := m.candidate
	if m.swapping {
		m.pendingPromote = true
		m.mu.Unlock()
		return meta, nil
	}
	m.swapping = true
	m.mu.Unlock()
	m.promote()
	return meta, nil
}

// promote performs the hot swap. The engine swap runs outside the
// manager's lock: SwapModel has its own quiesce protocol and concurrent
// frames must keep flowing while the engine cuts over. m.swapping (set
// by the caller) excludes concurrent promotions; a promotion requested
// while the swap was in flight is recorded in pendingPromote and applied
// here before swapping is released, so a deferred candidate never waits
// for a manual nudge.
func (m *Manager) promote() {
	for {
		m.mu.Lock()
		model := m.candModel
		meta := m.candidate
		if model == nil {
			m.swapping = false
			m.pendingPromote = false
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()

		m.eng.SwapModel(model)
		// The promotion is what a restart must serve: Retrain's Put only
		// stored a candidate.
		recordErr := m.store.MarkServing(meta.Version)

		m.mu.Lock()
		m.recordErr = recordErr
		m.serving = meta
		m.hasServing = true
		m.swaps++
		if m.candModel == model {
			m.candModel = nil
			m.shadow = nil
		}
		// A retrain that landed mid-swap may have replaced the candidate;
		// that newer candidate (and its shadow, when one started) stays
		// pending, and the branch below promotes it when asked to.
		if m.lm != nil {
			m.lm.Swaps.Inc()
			m.lm.ModelVersion.Set(float64(meta.Version))
			if m.shadow == nil {
				// The promoted candidate's shadow is over; its divergence
				// reading is history, not state.
				m.lm.ShadowDivergence.Set(0)
			}
		}
		again := m.pendingPromote && m.candModel != nil
		m.pendingPromote = false
		if !again {
			m.swapping = false
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
	}
}

// Status reports the manager's current state, including the store lineage.
func (m *Manager) Status() Status {
	lineage, _ := m.store.List()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		ServingVersion: m.serving.Version,
		ShadowActive:   m.shadow != nil,
		LastVerdict:    m.lastVerdict,
		Buffered:       m.ringCount,
		Retrains:       m.retrains,
		Swaps:          m.swaps,
		Lineage:        lineage,
	}
	if m.hasServing {
		serving := m.serving
		st.Serving = &serving
	}
	if m.candModel != nil {
		cand := m.candidate
		st.Candidate = &cand
	}
	if m.recordErr != nil {
		st.RecordError = m.recordErr.Error()
	}
	return st
}

// ServeHTTP implements the /model admin endpoint:
//
//	GET  /model                  → Status JSON (version, lineage, verdict)
//	POST /model?action=retrain   → train + store a candidate from the buffer
//	POST /model?action=promote   → force-promote the pending candidate
func (m *Manager) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, m.Status())
	case http.MethodPost:
		switch action := r.FormValue("action"); action {
		case "retrain":
			meta, err := m.Retrain()
			if err != nil {
				status := http.StatusInternalServerError
				if errors.Is(err, ErrRetrainTooFew) {
					status = http.StatusConflict
				}
				writeJSON(w, status, map[string]string{"error": err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, meta)
		case "promote":
			meta, err := m.Promote()
			if err != nil {
				status := http.StatusInternalServerError
				if errors.Is(err, ErrNoCandidate) {
					status = http.StatusConflict
				}
				writeJSON(w, status, map[string]string{"error": err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, meta)
		default:
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "unknown action " + strconv.Quote(action) + " (want retrain or promote)",
			})
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(v)
}
