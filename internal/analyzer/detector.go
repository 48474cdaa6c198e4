package analyzer

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/stats"
	"saad/internal/synopsis"
	"saad/internal/trace"
)

// AnomalyKind distinguishes the two anomaly classes of Section 3.3.3.
type AnomalyKind int

// Anomaly kinds.
const (
	FlowAnomaly AnomalyKind = iota + 1
	PerformanceAnomaly
)

// String implements fmt.Stringer.
func (k AnomalyKind) String() string {
	switch k {
	case FlowAnomaly:
		return "flow"
	case PerformanceAnomaly:
		return "performance"
	default:
		return fmt.Sprintf("AnomalyKind(%d)", int(k))
	}
}

// Anomaly is one detected anomaly: a statistically significant increase of
// outlier tasks in one stage on one host during one window.
type Anomaly struct {
	// Kind is flow or performance.
	Kind AnomalyKind
	// Stage and Host locate the anomaly.
	Stage logpoint.StageID
	Host  uint16
	// Window is the start of the detection window.
	Window time.Time
	// Signature is the offending signature for performance anomalies and
	// for new-signature flow anomalies; empty for proportion-driven flow
	// anomalies spanning several rare signatures.
	Signature synopsis.Signature
	// NewSignature marks flow anomalies triggered by a signature never seen
	// in training (condition (ii) of Section 3.3.3).
	NewSignature bool
	// Test carries the proportion-test outcome that triggered the anomaly
	// (zero-valued for new-signature anomalies, which need no test).
	Test stats.ProportionTestResult
	// Outliers and Tasks are the window's outlier and total task counts for
	// the tested group.
	Outliers, Tasks int
	// Examples holds up to Config.MaxExamples sample outlier synopses for
	// root-cause inspection.
	Examples []*synopsis.Synopsis
}

// String implements fmt.Stringer with a single-line report.
func (a Anomaly) String() string {
	tag := ""
	if a.NewSignature {
		tag = " NEW-SIGNATURE"
	}
	return fmt.Sprintf("[%s] stage=%d host=%d window=%s outliers=%d/%d%s",
		a.Kind, a.Stage, a.Host, a.Window.Format("15:04:05"), a.Outliers, a.Tasks, tag)
}

// WindowStats summarizes one closed (host, stage) window regardless of
// whether it was anomalous; the report renderer uses it for timelines.
type WindowStats struct {
	Stage        logpoint.StageID
	Host         uint16
	Window       time.Time
	Tasks        int
	FlowOutliers int
	PerfOutliers int
}

// windowEntry is one closed window as the history keeps it: 24 bytes, no
// padding and no pointer, so the history — one entry per (host, stage) window
// for the life of the process — is never scanned by the GC. WindowStats is
// built from it only when someone reads the history.
type windowEntry struct {
	start                             int64 // window start, Unix ns
	tasks, flowOutliers, perfOutliers uint32
	stage                             logpoint.StageID
	host                              uint16
}

// packWindow packs one closed window. A count above MaxUint32 saturates; one
// group would need more than 4.29 G tasks in one window to reach it.
func packWindow(host uint16, stage logpoint.StageID, startNs int64, tasks, flowOutliers, perfOutliers int) windowEntry {
	return windowEntry{
		start:        startNs,
		tasks:        sat32(tasks),
		flowOutliers: sat32(flowOutliers),
		perfOutliers: sat32(perfOutliers),
		stage:        stage,
		host:         host,
	}
}

func sat32(n int) uint32 { return uint32(min(int64(n), math.MaxUint32)) }

// unpack rebuilds the window's WindowStats, its start in UTC as a checkpoint
// restores it.
func (e windowEntry) unpack() WindowStats {
	return WindowStats{
		Stage:        e.stage,
		Host:         e.host,
		Window:       time.Unix(0, e.start).UTC(),
		Tasks:        int(e.tasks),
		FlowOutliers: int(e.flowOutliers),
		PerfOutliers: int(e.perfOutliers),
	}
}

func unpackHistory(entries []windowEntry) []WindowStats {
	out := make([]WindowStats, len(entries))
	for i, e := range entries {
		out[i] = e.unpack()
	}
	return out
}

// Detector consumes a time-ordered stream of synopses and emits anomalies
// at window boundaries. It is the runtime half of the analyzer: per task it
// performs only hash-map lookups and floating point comparisons; the
// proportion tests run once per stage per window (paper Section 4.2).
// Detector is not safe for concurrent use; feed it from one goroutine.
type Detector struct {
	model *Model
	cfg   Config

	open map[groupKey]*windowState
	// pending is the number of tasks in open windows, kept as a running count
	// so that reading it walks nothing: it moves where a task is observed and
	// where a window enters or leaves open (adopt, evict).
	pending int
	// free holds the storage of closed windows for Feed to open the next
	// window in; it never outgrows the most windows open at once.
	free []*windowState
	// stats is the closed-window history in close order, packed.
	stats []windowEntry
	// late counts synopses dropped because their Start preceded the open
	// window of their group (out-of-order arrivals past a window boundary).
	late uint64
	// scratch holds the packed signature bytes of the synopsis being
	// observed, reused across Feed calls so the interned-id lookup does not
	// allocate.
	scratch []byte
	// retainCopy makes the detector deep-copy any synopsis it keeps as an
	// anomaly example. Off by default (callers own their synopses for the
	// process lifetime); the engine turns it on when a release hook recycles
	// synopses after observation.
	retainCopy bool

	metrics *metrics.AnalyzerMetrics
	flight  *trace.FlightRing
}

type groupKey struct {
	host  uint16
	stage logpoint.StageID
}

type windowState struct {
	start time.Time
	// sm is the model of the window's stage, nil for a stage that never
	// appeared in training (every task there is a new signature).
	sm           *StageModel
	tasks        int
	flowOutliers int
	// newSigs is nil until a signature unknown to the model appears.
	newSigs      map[synopsis.Signature]*sigEvidence
	flowExamples []*synopsis.Synopsis
	// perSig is indexed by the model's interned signature id (dense per
	// stage, see StageModel.buildIndex) and sized to the stage; touched
	// lists the ids whose entry has tasks > 0. Only signatures known to the
	// model land here; unknown ones go to newSigs, keyed by the signature.
	perSig  []sigWindow
	touched []int32
}

type sigEvidence struct {
	count    int
	examples []*synopsis.Synopsis
}

type sigWindow struct {
	tasks        int
	perfOutliers int
	examples     []*synopsis.Synopsis
}

// NewDetector returns a detector for the trained model. The model's
// configuration governs windows and significance. The model must not be
// mutated afterwards: its signature interning index is built here and
// shared read-only (including with every other detector on the model).
func NewDetector(model *Model) *Detector {
	model.ensureIndex()
	return &Detector{
		model: model,
		cfg:   model.Config,
		open:  make(map[groupKey]*windowState),
	}
}

// SetMetrics attaches a metrics bundle (nil disables): synopses fed,
// windows closed, window-close latency and per-stage anomaly counts.
func (d *Detector) SetMetrics(m *metrics.AnalyzerMetrics) { d.metrics = m }

// SetFlight attaches a flight-recorder ring (nil disables): window opens
// and closes and late drops are recorded as pipeline events. Recording is a
// few atomic stores, so the detector's per-task cost is unchanged.
func (d *Detector) SetFlight(r *trace.FlightRing) { d.flight = r }

// SetRetainCopy controls example retention: when on, every synopsis kept in
// an anomaly report is deep-copied at retention time, so the caller may
// recycle (or mutate) the fed synopsis as soon as Feed returns. Required
// whenever the feeder pools synopses (see analyzer.WithSynopsisRelease).
func (d *Detector) SetRetainCopy(on bool) { d.retainCopy = on }

// Model returns a deep copy of the trained model the detector judges
// against. A detector restored from a checkpoint carries its model with
// it, so callers need no separate model file. The copy is defensive:
// lifecycle code (retraining, stores, admin endpoints) can inspect or even
// mutate the returned model without perturbing the serving state, whose
// interning index is shared read-only with every detector on the model.
func (d *Detector) Model() *Model { return d.model.Clone() }

// PendingTasks returns the number of tasks observed in still-open windows —
// the live evidence a checkpoint would carry across a restart.
func (d *Detector) PendingTasks() int { return d.pending }

// adopt puts w, with whatever tasks it already carries (none when Feed
// opens it; a restored or handed-over window's own), into d.open.
func (d *Detector) adopt(key groupKey, w *windowState) {
	d.open[key] = w
	d.pending += w.tasks
}

// evict takes w out of d.open, before recycle empties it.
func (d *Detector) evict(key groupKey, w *windowState) {
	delete(d.open, key)
	d.pending -= w.tasks
}

// Feed processes one synopsis and returns the anomalies from any window the
// synopsis's timestamp closed. Synopses should arrive in roughly increasing
// Start order per (host, stage); SAAD's single analyzer consuming per-node
// FIFO streams guarantees that in practice. A synopsis whose Start precedes
// the group's open window is late — its window already closed and its tests
// already ran — so it is dropped with accounting (LateSynopses and the
// late_synopses_total metric) rather than silently misattributed to the
// current window.
func (d *Detector) Feed(s *synopsis.Synopsis) []Anomaly {
	if m := d.metrics; m != nil {
		m.SynopsesFed.Inc()
	}
	key := groupKey{host: s.Host, stage: s.Stage}
	w := d.open[key]
	var out []Anomaly
	if w != nil && s.Start.Before(w.start) {
		d.late++
		if m := d.metrics; m != nil {
			m.LateSynopses.Inc()
		}
		d.flight.Record(trace.EventLateDrop, uint16(s.Stage), s.Host, s.TaskID, 0)
		return nil
	}
	if w != nil && !s.Start.Before(w.start.Add(d.cfg.Window)) {
		out = d.closeWindow(key, w)
		w = nil
	}
	if w == nil {
		w = d.newWindow(key.stage, s.Start.Truncate(d.cfg.Window))
		d.adopt(key, w)
		d.flight.Record(trace.EventWindowOpen, uint16(key.stage), key.host, uint64(w.start.UnixNano()), 0)
	}
	d.observe(w, s)
	return out
}

// newWindow returns an empty window of stage beginning at start, in a closed
// window's storage when the free list has one.
func (d *Detector) newWindow(stage logpoint.StageID, start time.Time) *windowState {
	var w *windowState
	if n := len(d.free); n > 0 {
		w, d.free = d.free[n-1], d.free[:n-1]
	} else {
		w = new(windowState)
	}
	w.start = start
	w.setStage(d.model.Stage(stage))
	return w
}

// setStage points an empty window at its stage's model (nil if untrained)
// and sizes the per-signature block to it. A recycled block only needs
// re-slicing: recycle left every entry within its capacity zero.
func (w *windowState) setStage(sm *StageModel) {
	w.sm = sm
	n := 0
	if sm != nil {
		n = len(sm.sigByID)
	}
	if cap(w.perSig) < n {
		w.perSig = make([]sigWindow, n)
	}
	w.perSig = w.perSig[:n]
}

// recycle puts a window that left d.open on the free list. The counts and
// the per-signature block are reused; example slices and the new-signature
// map are dropped, not pooled, because the anomalies the window produced
// alias them.
func (d *Detector) recycle(w *windowState) {
	for _, id := range w.touched {
		w.perSig[id] = sigWindow{}
	}
	*w = windowState{perSig: w.perSig[:0], touched: w.touched[:0]}
	d.free = append(d.free, w)
}

// LateSynopses returns how many synopses were dropped as late arrivals.
func (d *Detector) LateSynopses() uint64 { return d.late }

// sigKey packs the synopsis's signature bytes into buf's storage and returns
// them (no allocation once buf has grown). A synopsis in canonical form
// (Normalize) has its points sorted and distinct, so the packed bytes equal
// s.Signature(); a malformed one falls back to the allocating,
// canonicalizing path. The detector and the trainer each pass a scratch
// buffer they reuse.
func sigKey(buf []byte, s *synopsis.Synopsis) []byte {
	buf = buf[:0]
	var prev logpoint.ID
	for i, pc := range s.Points {
		if i > 0 && pc.Point <= prev {
			return append(buf[:0], s.Signature()...)
		}
		buf = append(buf, byte(pc.Point>>8), byte(pc.Point))
		prev = pc.Point
	}
	return buf
}

// retain returns the synopsis to keep as an anomaly example: the synopsis
// itself normally, a deep copy under SetRetainCopy (the fed synopsis may be
// recycled the moment Feed returns). At most one retention site fires per
// observe, so the clone cost is bounded by MaxExamples per window.
func (d *Detector) retain(s *synopsis.Synopsis) *synopsis.Synopsis {
	if d.retainCopy {
		return s.Clone()
	}
	return s
}

// observe classifies one synopsis against the model inside window w.
func (d *Detector) observe(w *windowState, s *synopsis.Synopsis) {
	w.tasks++
	d.pending++
	sm := w.sm
	d.scratch = sigKey(d.scratch, s)
	buf := d.scratch
	var (
		id int32
		ok bool
	)
	if sm != nil {
		// string(buf) in the map index compiles to an allocation-free
		// lookup; buf itself is the detector's reusable scratch buffer.
		id, ok = sm.sigIDs[string(buf)]
	}
	if !ok {
		// Never seen in training: a new execution flow. Materialize the
		// signature (cold path — only unknown flows allocate).
		sig := synopsis.Signature(buf)
		if w.newSigs == nil {
			w.newSigs = make(map[synopsis.Signature]*sigEvidence)
		}
		ev := w.newSigs[sig]
		if ev == nil {
			ev = &sigEvidence{}
			w.newSigs[sig] = ev
		}
		ev.count++
		if len(ev.examples) < cap1(d.cfg.MaxExamples) {
			ev.examples = append(ev.examples, d.retain(s))
		}
		w.flowOutliers++
		return
	}
	sigModel := sm.sigByID[id]
	if sigModel.FlowOutlier {
		w.flowOutliers++
		if len(w.flowExamples) < d.cfg.MaxExamples {
			w.flowExamples = append(w.flowExamples, d.retain(s))
		}
		return
	}
	// Normal flow: eligible for performance-outlier classification.
	sw := &w.perSig[id]
	if sw.tasks == 0 {
		w.touched = append(w.touched, id)
	}
	sw.tasks++
	if sigModel.PerfEligible && s.Duration > sigModel.DurationThreshold {
		sw.perfOutliers++
		if len(sw.examples) < d.cfg.MaxExamples {
			sw.examples = append(sw.examples, d.retain(s))
		}
	}
}

// cap1 returns at least 1 so new-signature evidence is retained even with
// MaxExamples = 0 disabled example collection elsewhere.
func cap1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Flush closes all open windows and returns their anomalies. Call at end of
// stream.
func (d *Detector) Flush() []Anomaly {
	var out []Anomaly
	for _, k := range d.openKeys() {
		out = append(out, d.closeWindow(k, d.open[k])...)
	}
	return out
}

// WindowHistory returns per-window statistics for all closed windows in
// close order.
func (d *Detector) WindowHistory() []WindowStats { return unpackHistory(d.stats) }

// ClosedWindows returns how many windows the detector has closed: the length
// of WindowHistory, without building it.
func (d *Detector) ClosedWindows() int { return len(d.stats) }

func (d *Detector) closeWindow(key groupKey, w *windowState) []Anomaly {
	if m := d.metrics; m != nil {
		// Wall-clock (not virtual-time) latency: how long the proportion
		// tests take is what tells an operator the analyzer keeps up.
		start := time.Now()
		defer func() {
			m.WindowsClosed.Inc()
			m.WindowCloseLatency.Observe(time.Since(start).Seconds())
		}()
	}
	d.evict(key, w)
	perf := 0
	var anomalies []Anomaly

	// Flow condition (ii): any signature unseen in training.
	newSigs := sortedSignatures(w.newSigs)
	for _, sig := range newSigs {
		ev := w.newSigs[sig]
		anomalies = append(anomalies, Anomaly{
			Kind:         FlowAnomaly,
			Stage:        key.stage,
			Host:         key.host,
			Window:       w.start,
			Signature:    sig,
			NewSignature: true,
			Outliers:     ev.count,
			Tasks:        w.tasks,
			// cap1, matching observe: even with MaxExamples = 0 the one
			// retained example — the only record of the unseen flow — is
			// kept on the anomaly.
			Examples: clipExamples(ev.examples, cap1(d.cfg.MaxExamples)),
		})
	}

	// Flow condition (i): proportion test against the training share.
	if w.sm != nil && w.tasks > 0 {
		res, err := d.propTest(w.flowOutliers, w.tasks, w.sm.FlowOutlierShare)
		if err == nil && res.Reject && len(newSigs) == 0 {
			// Known-but-rare signatures spiked. (When new signatures are
			// present they already produced anomalies above; avoid double
			// reporting the same evidence.)
			anomalies = append(anomalies, Anomaly{
				Kind:     FlowAnomaly,
				Stage:    key.stage,
				Host:     key.host,
				Window:   w.start,
				Test:     res,
				Outliers: w.flowOutliers,
				Tasks:    w.tasks,
				Examples: clipExamples(w.flowExamples, d.cfg.MaxExamples),
			})
		}
	}

	// Performance anomalies: per signature group (Section 3.3.3). Interned
	// ids were assigned in lexicographic signature order, so numeric id
	// order reproduces the historical signature sort. A touched id implies
	// a model-known signature, hence w.sm != nil here.
	slices.Sort(w.touched)
	for _, id := range w.touched {
		sw := &w.perSig[id]
		perf += sw.perfOutliers
		sigModel := w.sm.sigByID[id]
		if !sigModel.PerfEligible {
			continue
		}
		sig := sigModel.Signature
		// Training traces with duration ties at the percentile can report a
		// near-zero empirical outlier share, which would make any single
		// slow task "significant"; the baseline is floored at half the
		// nominal share.
		p0 := sigModel.PerfTrainShare
		if floor := d.cfg.nominalPerfOutlierShare() / 2; p0 < floor {
			p0 = floor
		}
		res, err := d.propTest(sw.perfOutliers, sw.tasks, p0)
		if err != nil || !res.Reject {
			continue
		}
		anomalies = append(anomalies, Anomaly{
			Kind:      PerformanceAnomaly,
			Stage:     key.stage,
			Host:      key.host,
			Window:    w.start,
			Signature: sig,
			Test:      res,
			Outliers:  sw.perfOutliers,
			Tasks:     sw.tasks,
			Examples:  clipExamples(sw.examples, d.cfg.MaxExamples),
		})
	}

	d.stats = append(d.stats, packWindow(key.host, key.stage, w.start.UnixNano(), w.tasks, w.flowOutliers, perf))
	d.flight.Record(trace.EventWindowClose, uint16(key.stage), key.host, uint64(w.tasks), uint64(len(anomalies)))
	d.recycle(w)
	if m := d.metrics; m != nil {
		for _, a := range anomalies {
			m.Anomalies.With(a.Kind.String(), strconv.Itoa(int(a.Stage))).Inc()
		}
	}
	return anomalies
}

func (d *Detector) propTest(successes, n int, p0 float64) (stats.ProportionTestResult, error) {
	var (
		res stats.ProportionTestResult
		err error
	)
	if d.cfg.UseTTest {
		res, err = stats.ProportionTTest(successes, n, p0, d.cfg.Alpha)
	} else {
		res, err = stats.ProportionZTest(successes, n, p0, d.cfg.Alpha)
	}
	if err != nil {
		return res, err
	}
	// Gate on practical significance too: a rejection whose observed
	// increase is under MinEffect is statistical noise at these window
	// sizes.
	if res.Reject && res.PHat < p0+d.cfg.MinEffect {
		res.Reject = false
	}
	return res, nil
}

func clipExamples(in []*synopsis.Synopsis, max int) []*synopsis.Synopsis {
	if len(in) <= max {
		return in
	}
	return in[:max]
}
