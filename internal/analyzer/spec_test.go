package analyzer

import (
	"slices"
	"time"

	"saad/internal/stats"
	"saad/internal/synopsis"
)

// specDetector is the runtime analyzer of PAPER §3.3 written the plain way:
// maps keyed by (host, stage) and by signature string, a fresh window for
// every open, no interned ids, no free list, no scratch buffer, no example
// retention. It is the executable specification Detector is held to
// (TestDetectorRobustnessProperty) — and through Detector, everything held
// to it: Engine, Monitor, the fleet, the benchmark oracle. A change of
// verdict is made here and in Detector together.
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
type specDetector struct {
	model *Model
	open  map[groupKey]*specWindow
	hist  []WindowStats
	late  uint64
}

type specWindow struct {
	start          time.Time
	tasks, flowOut int
	newSigs        map[synopsis.Signature]int       // tasks per never-trained signature
	normal         map[synopsis.Signature]*specFlow // per normal-flow signature
}

type specFlow struct{ tasks, slow int }

func newSpecDetector(model *Model) *specDetector {
	return &specDetector{model: model, open: map[groupKey]*specWindow{}}
}

func (d *specDetector) feed(s *synopsis.Synopsis) []Anomaly {
	window := d.model.Config.Window
	key := groupKey{host: s.Host, stage: s.Stage}
	w := d.open[key]
	if w != nil && s.Start.Before(w.start) {
		d.late++
		return nil
	}
	var out []Anomaly
	if w != nil && !s.Start.Before(w.start.Add(window)) {
		out = d.close(key)
		w = nil
	}
	if w == nil {
		w = &specWindow{
			start:   s.Start.Truncate(window),
			newSigs: map[synopsis.Signature]int{},
			normal:  map[synopsis.Signature]*specFlow{},
		}
		d.open[key] = w
	}
	w.tasks++
	sig := s.Signature()
	var sm *SignatureModel
	if stage := d.model.Stages[s.Stage]; stage != nil {
		sm = stage.Signatures[sig]
	}
	switch {
	case sm == nil:
		w.newSigs[sig]++
		w.flowOut++
	case sm.FlowOutlier:
		w.flowOut++
	default:
		if w.normal[sig] == nil {
			w.normal[sig] = &specFlow{}
		}
		w.normal[sig].tasks++
		if sm.PerfEligible && s.Duration > sm.DurationThreshold {
			w.normal[sig].slow++
		}
	}
	return out
}

// significant runs the configured proportion test with its practical-
// significance gate: a rejection counts only MinEffect above the baseline.
func (d *specDetector) significant(k, n int, p0 float64) (stats.ProportionTestResult, bool) {
	cfg := d.model.Config
	test := stats.ProportionZTest
	if cfg.UseTTest {
		test = stats.ProportionTTest
	}
	res, err := test(k, n, p0, cfg.Alpha)
	return res, err == nil && res.Reject && res.PHat >= p0+cfg.MinEffect
}

func (d *specDetector) close(key groupKey) []Anomaly {
	w := d.open[key]
	delete(d.open, key)
	at := Anomaly{Stage: key.stage, Host: key.host, Window: w.start}
	var out []Anomaly
	for sig, n := range w.newSigs {
		a := at
		a.Kind, a.Signature, a.NewSignature, a.Outliers, a.Tasks = FlowAnomaly, sig, true, n, w.tasks
		out = append(out, a)
	}
	stage := d.model.Stages[key.stage]
	if stage != nil && len(w.newSigs) == 0 {
		if res, ok := d.significant(w.flowOut, w.tasks, stage.FlowOutlierShare); ok {
			a := at
			a.Kind, a.Test, a.Outliers, a.Tasks = FlowAnomaly, res, w.flowOut, w.tasks
			out = append(out, a)
		}
	}
	slow := 0
	for sig, f := range w.normal {
		slow += f.slow
		sm := stage.Signatures[sig]
		if !sm.PerfEligible {
			continue
		}
		p0 := max(sm.PerfTrainShare, d.model.Config.nominalPerfOutlierShare()/2)
		if res, ok := d.significant(f.slow, f.tasks, p0); ok {
			a := at
			a.Kind, a.Signature, a.Test, a.Outliers, a.Tasks = PerformanceAnomaly, sig, res, f.slow, f.tasks
			out = append(out, a)
		}
	}
	d.hist = append(d.hist, WindowStats{
		Stage: key.stage, Host: key.host, Window: w.start,
		Tasks: w.tasks, FlowOutliers: w.flowOut, PerfOutliers: slow,
	})
	return out
}

// flush closes every open window, group by group in (host, stage) order.
func (d *specDetector) flush() []Anomaly {
	keys := make([]groupKey, 0, len(d.open))
	for k := range d.open {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b groupKey) int { return cmpGroup(a.host, a.stage, b.host, b.stage) })
	var out []Anomaly
	for _, k := range keys {
		out = append(out, d.close(k)...)
	}
	return out
}
