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
	// root-cause inspection. The slice is the anomaly's own, never the
	// window's storage. Under Detector.SetRetainCopy so is every synopsis in
	// it; otherwise they are the records the caller fed.
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

// WindowStats summarizes closed (host, stage) windows regardless of whether
// they were anomalous: one window in full, or the aggregate a group's history
// folds its older windows into.
type WindowStats struct {
	Stage logpoint.StageID
	Host  uint16
	// Window is the window's start; an aggregate's is its first window's.
	Window time.Time
	// Windows is how many closed windows the entry sums: 1 for a window in
	// full, more only for an aggregate.
	Windows      int
	Tasks        int
	FlowOutliers int
	PerfOutliers int
}

// HistoryDepth is how many of a group's closed windows the history keeps in
// full, the most recent ones. Older windows fold into one aggregate per
// group, so the history grows with the groups, not with uptime.
const HistoryDepth = 64

// windowEntry is one closed window as the history keeps it: 24 bytes, no
// padding and no pointer, so the GC never scans a group's recent windows.
// WindowStats is built from it only when someone reads the history.
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
		Windows:      1,
		Tasks:        int(e.tasks),
		FlowOutliers: int(e.flowOutliers),
		PerfOutliers: int(e.perfOutliers),
	}
}

// windowAggregate is the exact sum of the closed windows a group's history
// no longer keeps in full; zero windows means none has folded yet.
type windowAggregate struct {
	start                                      int64 // the first folded window's start, Unix ns
	windows, tasks, flowOutliers, perfOutliers uint64
}

func (a *windowAggregate) fold(e windowEntry) {
	if a.windows == 0 {
		a.start = e.start
	}
	a.windows++
	a.tasks += uint64(e.tasks)
	a.flowOutliers += uint64(e.flowOutliers)
	a.perfOutliers += uint64(e.perfOutliers)
}

func (a *windowAggregate) unpack(k groupKey) WindowStats {
	return WindowStats{
		Stage:        k.stage,
		Host:         k.host,
		Window:       time.Unix(0, a.start).UTC(),
		Windows:      int(a.windows),
		Tasks:        int(a.tasks),
		FlowOutliers: int(a.flowOutliers),
		PerfOutliers: int(a.perfOutliers),
	}
}

// groupHistory is one group's closed windows: the last HistoryDepth in full,
// in a ring whose oldest entry sits at next once it is full, and every older
// one folded into agg in the order the group closed them.
type groupHistory struct {
	agg    windowAggregate
	recent []windowEntry
	next   int
}

func (g *groupHistory) add(e windowEntry) {
	if len(g.recent) < HistoryDepth {
		g.recent = append(g.recent, e)
		return
	}
	g.agg.fold(g.recent[g.next])
	g.recent[g.next] = e
	g.next = (g.next + 1) % HistoryDepth
}

// history is the closed-window history, bounded per group: it holds at most
// HistoryDepth entries and one aggregate for each group that ever closed a
// window, and counts every window closed.
type history struct {
	groups map[groupKey]*groupHistory
	closed int
}

// group returns k's history, creating it on first use with room for all
// HistoryDepth entries, so it never reallocates.
func (h *history) group(k groupKey) *groupHistory {
	g := h.groups[k]
	if g == nil {
		if h.groups == nil {
			h.groups = make(map[groupKey]*groupHistory)
		}
		g = &groupHistory{recent: make([]windowEntry, 0, HistoryDepth)}
		h.groups[k] = g
	}
	return g
}

func (h *history) add(e windowEntry) {
	h.group(groupKey{host: e.host, stage: e.stage}).add(e)
	h.closed++
}

// stats lists the history group by group, by host then stage: the group's
// aggregate, if any window has folded, then its recent windows oldest first.
func (h *history) stats() []WindowStats {
	var out []WindowStats
	for _, k := range sortedGroups(h.groups) {
		g := h.groups[k]
		if g.agg.windows > 0 {
			out = append(out, g.agg.unpack(k))
		}
		for _, e := range g.recent[g.next:] {
			out = append(out, e.unpack())
		}
		for _, e := range g.recent[:g.next] {
			out = append(out, e.unpack())
		}
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
	// spare holds the copies closed windows kept as examples under
	// SetRetainCopy, for retain to copy the next examples into; it never
	// outgrows the most examples the open windows have held at once.
	spare []*synopsis.Synopsis
	// hist is the closed-window history, packed and bounded per group.
	hist history
	// late counts synopses dropped because their Start preceded the open
	// window of their group (out-of-order arrivals past a window boundary).
	late uint64
	// scratch holds the packed signature bytes of the synopsis being
	// observed, reused across Feed calls so the interned-id lookup does not
	// allocate.
	scratch []byte
	// retainCopy makes the detector keep its own copy of any synopsis it
	// keeps as an anomaly example. Off by default (callers own their
	// synopses for the process lifetime); the engine turns it on when a
	// release hook recycles synopses after observation.
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
	// flowExamples counts the examples kept of the known rare flows.
	flowExamples int
	// newSigs is nil until a signature unknown to the model appears.
	newSigs map[synopsis.Signature]*sigEvidence
	// perSig is indexed by the model's interned signature id (dense per
	// stage, see StageModel.buildIndex) and sized to the stage; touched
	// lists the ids whose entry has tasks > 0. Only signatures known to the
	// model land here; unknown ones go to newSigs, keyed by the signature.
	perSig  []sigWindow
	touched []int32
	// examples is every example the window keeps, in arrival order; the
	// counts above say how many each site holds.
	examples []example
}

// example is one outlier synopsis a window keeps for its anomaly reports.
// Its site says whose evidence it is: flowSite for the known rare flows, a
// performance signature's interned id (>= 0), or newSigSite(i) for the
// window's i-th new signature.
type example struct {
	site int32
	s    *synopsis.Synopsis
}

// flowSite is the site of the examples of a window's known rare flows.
const flowSite int32 = -1

// newSigSite is the site of the examples of a window's i-th new signature.
func newSigSite(i int) int32 { return -2 - int32(i) }

type sigEvidence struct {
	count    int
	examples int
	site     int32
}

type sigWindow struct {
	tasks        int
	perfOutliers int
	examples     int
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

// SetRetainCopy controls example retention. When on, the detector copies
// every synopsis it keeps as an example into storage of its own, so the
// caller may recycle (or mutate) the fed synopsis as soon as Feed returns;
// a closed window's copies are reused for later examples, and each anomaly
// gets fresh copies of its own. Turning it on copies the examples the open
// windows already hold, which are the caller's records. Required whenever
// the feeder pools synopses (see analyzer.WithSynopsisRelease).
func (d *Detector) SetRetainCopy(on bool) {
	if on && !d.retainCopy {
		for _, w := range d.open {
			for i := range w.examples {
				w.examples[i].s = w.examples[i].s.Clone()
			}
		}
	}
	d.retainCopy = on
}

// Model returns a deep copy of the trained model the detector judges
// against. A detector restored from a checkpoint carries its model with
// it, so callers need no separate model file. The copy is defensive:
// lifecycle code (retraining, stores, admin endpoints) can inspect or even
// mutate the returned model without perturbing the serving state, whose
// interning index is shared read-only with every detector on the model.
func (d *Detector) Model() *Model { return d.model.Clone() }

// SwapModel makes model the one the detector judges by and returns the
// anomalies of the windows it closed to get there. The cutover is at a
// window boundary: every open window is closed and tested against the old
// model first — evidence gathered under one model is never judged by
// another — and the next Feed opens its window under the new one.
// Everything else the detector holds carries over: the closed-window
// history, the late count, metrics, the flight ring, example retention and
// the storage of closed windows and of their examples. The swap is recorded
// in the flight ring right after the last old-model window closes. The
// model must not be mutated afterwards (its interning index becomes shared
// read-only).
func (d *Detector) SwapModel(model *Model) []Anomaly {
	out := d.Flush()
	model.ensureIndex()
	d.model, d.cfg = model, model.Config
	d.flight.Record(trace.EventModelSwap, 0, 0, 0, 0)
	return out
}

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

// recycle puts a window that left d.open on the free list. The counts, the
// per-signature block and the example list are reused: closeWindow gave
// every anomaly examples of its own. Under SetRetainCopy the window's
// copies go to d.spare, their Trace cleared so that no spare keeps a span
// alive. The new-signature map is dropped; only a window that saw an
// unknown flow has one.
func (d *Detector) recycle(w *windowState) {
	for _, id := range w.touched {
		w.perSig[id] = sigWindow{}
	}
	if d.retainCopy {
		for _, e := range w.examples {
			e.s.Trace = nil
			d.spare = append(d.spare, e.s)
		}
	}
	clear(w.examples)
	*w = windowState{perSig: w.perSig[:0], touched: w.touched[:0], examples: w.examples[:0]}
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

// retain keeps s as an example of w at site: the synopsis itself normally;
// under SetRetainCopy a copy (the fed synopsis may be recycled the moment
// Feed returns), made in a spare copy's storage when there is one. At most
// one retention site fires per observe, and each site — a window's rare
// flows, each of its slow signatures, each of its new signatures — keeps at
// most MaxExamples (a new signature at least one), so a warm detector's
// windows keep their examples in storage they already have.
func (d *Detector) retain(w *windowState, site int32, s *synopsis.Synopsis) {
	if d.retainCopy {
		if n := len(d.spare); n > 0 {
			c := d.spare[n-1]
			d.spare = d.spare[:n-1]
			pts := append(c.Points[:0], s.Points...)
			*c = *s
			c.Points = pts
			s = c
		} else {
			s = s.Clone()
		}
	}
	w.examples = append(w.examples, example{site: site, s: s})
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
			ev = &sigEvidence{site: newSigSite(len(w.newSigs))}
			w.newSigs[sig] = ev
		}
		ev.count++
		if ev.examples < cap1(d.cfg.MaxExamples) {
			ev.examples++
			d.retain(w, ev.site, s)
		}
		w.flowOutliers++
		return
	}
	sigModel := sm.sigByID[id]
	if sigModel.FlowOutlier {
		w.flowOutliers++
		if w.flowExamples < d.cfg.MaxExamples {
			w.flowExamples++
			d.retain(w, flowSite, s)
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
		if sw.examples < d.cfg.MaxExamples {
			sw.examples++
			d.retain(w, id, s)
		}
	}
}

// cap1 returns at least 1 so new-signature evidence is retained even with
// MaxExamples = 0 disabled example collection elsewhere: the one retained
// example is the only record of the unseen flow.
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
	for _, k := range sortedGroups(d.open) {
		out = append(out, d.closeWindow(k, d.open[k])...)
	}
	return out
}

// WindowHistory returns the closed-window history group by group, by host
// then stage: each group's aggregate of the windows older than its last
// HistoryDepth, if any, then those windows in close order. The Tasks (and
// outliers) of all entries sum to every closed window's.
func (d *Detector) WindowHistory() []WindowStats { return d.hist.stats() }

// ClosedWindows returns how many windows the detector has closed: the sum of
// WindowHistory's Windows, without building it.
func (d *Detector) ClosedWindows() int { return d.hist.closed }

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
			Examples:     d.examplesOf(w, ev.site, ev.examples),
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
				Examples: d.examplesOf(w, flowSite, w.flowExamples),
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
			Examples:  d.examplesOf(w, id, sw.examples),
		})
	}

	d.hist.add(packWindow(key.host, key.stage, w.start.UnixNano(), w.tasks, w.flowOutliers, perf))
	d.flight.Record(trace.EventWindowClose, uint16(key.stage), key.host, uint64(w.tasks), uint64(len(anomalies)))
	d.recycle(w)
	if m := d.metrics; m != nil {
		for _, a := range anomalies {
			m.Anomalies.With(a.Kind.String(), strconv.Itoa(int(a.Stage))).Inc()
		}
	}
	return anomalies
}

// examplesOf returns the n examples w keeps at site, in arrival order, in a
// slice of the anomaly's own, since recycle reuses w's list. Under
// SetRetainCopy each is a fresh copy as well, since recycle reuses w's
// copies. Observe and the checkpoint reader hold a site to MaxExamples (a
// new signature to cap1 of it), so n needs no clipping.
func (d *Detector) examplesOf(w *windowState, site int32, n int) []*synopsis.Synopsis {
	if n == 0 {
		return nil
	}
	out := make([]*synopsis.Synopsis, 0, n)
	for _, e := range w.examples {
		if e.site != site {
			continue
		}
		s := e.s
		if d.retainCopy {
			s = s.Clone()
		}
		if out = append(out, s); len(out) == n {
			break
		}
	}
	return out
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
