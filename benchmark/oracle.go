package main

import (
	"fmt"
	"io"

	"saad/internal/analyzer"
	"saad/internal/synopsis"
)

// verdict is the oracle's finding on one run.
type verdict struct {
	offered uint64
	// failed counts synopses that are not accounted for: offered but not
	// fed, fed but neither observed nor late, or lost on the way.
	failed uint64
	// problems lists every broken invariant; empty means correct.
	problems []string
}

func (v verdict) correct() bool { return len(v.problems) == 0 }

func (v *verdict) failf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// report writes the verdict for a reader.
func (v verdict) report(w io.Writer) {
	if v.correct() {
		fmt.Fprintf(w, "oracle: ok — %d synopses offered, all accounted for, anomalies equal the reference detector's\n", v.offered)
		return
	}
	for _, p := range v.problems {
		fmt.Fprintf(w, "oracle: FAIL — %s\n", p)
	}
}

// reference feeds laps laps of the shifted stream to one analyzer.Detector
// and returns its anomalies in canonical order with its late count.
func reference(in *inputs, laps int) ([]analyzer.Anomaly, uint64) {
	det := analyzer.NewDetector(in.model)
	// The fed synopsis is reused, so examples must be copies.
	det.SetRetainCopy(true)
	var out []analyzer.Anomaly
	in.lap.shifted(laps, func(s *synopsis.Synopsis) {
		out = append(out, det.Feed(s)...)
	})
	out = append(out, det.Flush()...)
	analyzer.SortAnomalies(out)
	return out, det.LateSynopses()
}

// sameAnomaly compares everything about two anomalies except the retained
// examples, whose choice within a window depends on arrival order across
// links.
func sameAnomaly(a, b analyzer.Anomaly) bool {
	return a.Host == b.Host && a.Stage == b.Stage && a.Window.Equal(b.Window) &&
		a.Kind == b.Kind && a.Signature == b.Signature && a.NewSignature == b.NewSignature &&
		a.Outliers == b.Outliers && a.Tasks == b.Tasks && a.Test == b.Test
}

// check holds a finished run against conservation and against a single
// reference detector fed the same shifted stream.
func check(in *inputs, laps int, offered uint64, t totals) verdict {
	v := verdict{offered: offered}
	want, wantLate := reference(in, laps)

	if t.fed != offered {
		v.failf("engines fed %d synopses, trackers offered %d", t.fed, offered)
		v.failed += absDiff(offered, t.fed)
	}
	if t.observed+t.late != t.fed {
		v.failf("fed %d != observed %d + late %d", t.fed, t.observed, t.late)
		v.failed += absDiff(t.fed, t.observed+t.late)
	}
	if t.late != wantLate {
		v.failf("late %d, reference detector dropped %d", t.late, wantLate)
		v.failed += absDiff(t.late, wantLate)
	}
	if t.lost != 0 {
		v.failf("%d synopses dropped, shed or forwarded (client drops + errors + ring drops + sheds + forwards)", t.lost)
		v.failed += t.lost
	}

	got := append([]analyzer.Anomaly(nil), t.anomalies...)
	analyzer.SortAnomalies(got)
	if len(got) != len(want) {
		v.failf("%d anomalies, reference detector found %d", len(got), len(want))
	} else {
		for i := range got {
			if !sameAnomaly(got[i], want[i]) {
				v.failf("anomaly %d is %v (sig %x), reference has %v (sig %x)",
					i, got[i], got[i].Signature, want[i], want[i].Signature)
				break
			}
		}
	}
	return v
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
