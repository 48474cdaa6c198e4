// Package analyzertest is the one reference every assembly of the analyzer
// is tested against: Spec, the paper's runtime analyzer written the plain
// way; a seeded corpus of detection streams and the models that judge them;
// and one comparator, Observe, under Want and Check. A change of verdict is
// made in Spec and in analyzer.Detector together, and every equivalence
// proof — the in-process table, its fuzz target, the TCP, fleet and Monitor
// tests — follows from that one edit.
package analyzertest

import (
	"time"

	"saad/internal/analyzer"
	"saad/internal/stats"
	"saad/internal/synopsis"
)

// Spec is the runtime analyzer of PAPER §3.3 written the plain way: maps
// keyed by (host, stage) and by signature, a fresh window for every open,
// no interned ids, no free list, no scratch buffer.
//
// Per task: a synopsis that starts before its group's open window is late
// and counted, nothing else; one that starts at or past the window's end
// closes it first. A task whose signature the stage's model has never seen —
// or whose stage it has never seen — is a flow outlier and evidence of a
// new flow; one whose signature training marked rare is a flow outlier; any
// other is a normal flow, and a performance outlier when its signature is
// eligible and it ran longer than the signature's threshold.
//
// Per closed window: one flow anomaly for each new signature; failing any,
// one for the stage if the flow-outlier proportion is significantly above
// its training share; one performance anomaly for each eligible signature
// whose slow proportion is significantly above its training share, floored
// at half the nominal share.
//
// Examples: each kind of evidence — one new signature, the rare flows, the
// slow tasks of one signature — keeps its first MaxExamples tasks, and a new
// signature keeps at least one, the only record of the unseen flow.
//
// History: each group keeps its last HistoryDepth closed windows in full and
// sums every older one, in the order the group closed them, into one
// aggregate.
type Spec struct {
	// Model judges every task; set it between a Flush and the next Feed to
	// hand the spec a new model, as Detector.SwapModel does.
	Model *analyzer.Model

	open map[analyzer.GroupKey]*window
	hist history
	late uint64
}

// history is a closed-window history: per group, the aggregate (Windows 0
// until a window folds) and the windows after it, oldest first.
type history map[analyzer.GroupKey]*past

type past struct {
	agg    analyzer.WindowStats
	recent []analyzer.WindowStats
}

// add appends w to its group's history and folds the oldest entries into the
// aggregate while more than HistoryDepth remain. w may itself be an
// aggregate: histories read one after another fold as one.
func (h history) add(w analyzer.WindowStats) {
	key := analyzer.GroupKey{Host: w.Host, Stage: w.Stage}
	if h[key] == nil {
		h[key] = &past{}
	}
	p := h[key]
	p.recent = append(p.recent, w)
	for len(p.recent) > analyzer.HistoryDepth {
		old := p.recent[0]
		p.recent = p.recent[1:]
		if p.agg.Windows == 0 {
			p.agg = old
			continue
		}
		p.agg.Windows += old.Windows
		p.agg.Tasks += old.Tasks
		p.agg.FlowOutliers += old.FlowOutliers
		p.agg.PerfOutliers += old.PerfOutliers
	}
}

// all lists every group's aggregate, if any, and its windows.
func (h history) all() []analyzer.WindowStats {
	var out []analyzer.WindowStats
	for _, p := range h {
		if p.agg.Windows > 0 {
			out = append(out, p.agg)
		}
		out = append(out, p.recent...)
	}
	return out
}

type window struct {
	start          time.Time
	tasks, flowOut int
	rare           []*synopsis.Synopsis             // examples of the rare known flows
	newSigs        map[synopsis.Signature]*evidence // per never-trained signature
	normal         map[synopsis.Signature]*evidence // per normal-flow signature
}

// evidence is one signature's tasks in a window, its slow ones, and the
// examples it keeps.
type evidence struct {
	tasks, slow int
	examples    []*synopsis.Synopsis
}

// NewSpec returns a spec with no window open.
func NewSpec(model *analyzer.Model) *Spec {
	return &Spec{Model: model, open: map[analyzer.GroupKey]*window{}, hist: history{}}
}

// Feed judges one task and returns the anomalies of the window it closed.
func (d *Spec) Feed(s *synopsis.Synopsis) []analyzer.Anomaly {
	cfg := d.Model.Config
	key := analyzer.GroupKey{Host: s.Host, Stage: s.Stage}
	w := d.open[key]
	if w != nil && s.Start.Before(w.start) {
		d.late++
		return nil
	}
	var out []analyzer.Anomaly
	if w != nil && !s.Start.Before(w.start.Add(cfg.Window)) {
		out = d.close(key)
		w = nil
	}
	if w == nil {
		w = &window{
			start:   s.Start.Truncate(cfg.Window),
			newSigs: map[synopsis.Signature]*evidence{},
			normal:  map[synopsis.Signature]*evidence{},
		}
		d.open[key] = w
	}
	w.tasks++
	sig := s.Signature()
	var sm *analyzer.SignatureModel
	if stage := d.Model.Stages[s.Stage]; stage != nil {
		sm = stage.Signatures[sig]
	}
	switch {
	case sm == nil:
		w.flowOut++
		e := of(w.newSigs, sig)
		e.tasks++
		e.examples = keep(e.examples, s, max(1, cfg.MaxExamples))
	case sm.FlowOutlier:
		w.flowOut++
		w.rare = keep(w.rare, s, cfg.MaxExamples)
	default:
		e := of(w.normal, sig)
		e.tasks++
		if sm.PerfEligible && s.Duration > sm.DurationThreshold {
			e.slow++
			e.examples = keep(e.examples, s, cfg.MaxExamples)
		}
	}
	return out
}

// of returns sig's evidence in m, adding it on first sight.
func of(m map[synopsis.Signature]*evidence, sig synopsis.Signature) *evidence {
	if m[sig] == nil {
		m[sig] = &evidence{}
	}
	return m[sig]
}

// keep appends s to examples while they number fewer than n.
func keep(examples []*synopsis.Synopsis, s *synopsis.Synopsis, n int) []*synopsis.Synopsis {
	if len(examples) < n {
		examples = append(examples, s)
	}
	return examples
}

// significant runs the configured proportion test with its practical-
// significance gate: a rejection counts only MinEffect above the baseline.
func (d *Spec) significant(k, n int, p0 float64) (stats.ProportionTestResult, bool) {
	cfg := d.Model.Config
	test := stats.ProportionZTest
	if cfg.UseTTest {
		test = stats.ProportionTTest
	}
	res, err := test(k, n, p0, cfg.Alpha)
	return res, err == nil && res.Reject && res.PHat >= p0+cfg.MinEffect
}

func (d *Spec) close(key analyzer.GroupKey) []analyzer.Anomaly {
	w := d.open[key]
	delete(d.open, key)
	at := analyzer.Anomaly{Stage: key.Stage, Host: key.Host, Window: w.start, Tasks: w.tasks}
	var out []analyzer.Anomaly
	for sig, e := range w.newSigs {
		a := at
		a.Kind, a.Signature, a.NewSignature, a.Outliers, a.Examples = analyzer.FlowAnomaly, sig, true, e.tasks, e.examples
		out = append(out, a)
	}
	stage := d.Model.Stages[key.Stage]
	if stage != nil && len(w.newSigs) == 0 {
		if res, ok := d.significant(w.flowOut, w.tasks, stage.FlowOutlierShare); ok {
			a := at
			a.Kind, a.Test, a.Outliers, a.Examples = analyzer.FlowAnomaly, res, w.flowOut, w.rare
			out = append(out, a)
		}
	}
	slow := 0
	for sig, e := range w.normal {
		slow += e.slow
		sm := stage.Signatures[sig]
		if !sm.PerfEligible {
			continue
		}
		p0 := max(sm.PerfTrainShare, (100-d.Model.Config.DurationPercentile)/100/2)
		if res, ok := d.significant(e.slow, e.tasks, p0); ok {
			a := at
			a.Kind, a.Signature, a.Test, a.Outliers, a.Tasks, a.Examples = analyzer.PerformanceAnomaly, sig, res, e.slow, e.tasks, e.examples
			out = append(out, a)
		}
	}
	d.hist.add(analyzer.WindowStats{
		Stage: key.Stage, Host: key.Host, Window: w.start, Windows: 1,
		Tasks: w.tasks, FlowOutliers: w.flowOut, PerfOutliers: slow,
	})
	return out
}

// Flush closes every open window and returns their anomalies.
func (d *Spec) Flush() []analyzer.Anomaly {
	var out []analyzer.Anomaly
	for key := range d.open {
		out = append(out, d.close(key)...)
	}
	return out
}

// Run feeds every synopsis of stream in order and returns the anomalies of
// the windows it closed; the last windows stay open.
func (d *Spec) Run(stream []*synopsis.Synopsis) []analyzer.Anomaly {
	var out []analyzer.Anomaly
	for _, s := range stream {
		out = append(out, d.Feed(s)...)
	}
	return out
}

// Observe is Observe over the spec's window history and late count.
func (d *Spec) Observe(anomalies []analyzer.Anomaly) Outcome {
	return Observe(anomalies, d.hist.all(), d.late)
}

// Want is what the paper's analyzer decides over stream: the spec fed every
// synopsis in order, then flushed.
func Want(model *analyzer.Model, stream []*synopsis.Synopsis) Outcome {
	spec := NewSpec(model)
	return spec.Observe(append(spec.Run(stream), spec.Flush()...))
}
