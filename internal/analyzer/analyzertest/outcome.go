package analyzertest

import (
	"cmp"
	"slices"
	"strconv"
	"testing"

	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/stats"
	"saad/internal/synopsis"
)

// Outcome is what an assembly decided over a stream, in the one form any
// two assemblies compare in: verdicts and closed windows sorted, instants as
// Unix nanoseconds (a codec round trip keeps the instant, not the time.Time
// representation), examples as task ids.
type Outcome struct {
	Verdicts []Verdict
	Windows  []Window
	Late     uint64
}

// Verdict is one anomaly as compared.
type Verdict struct {
	Host            uint16
	Stage           logpoint.StageID
	Window          int64
	Kind            analyzer.AnomalyKind
	NewSignature    bool
	Signature       synopsis.Signature
	Outliers, Tasks int
	Test            stats.ProportionTestResult
	Examples        string // task ids in retention order, space-separated
}

// Window is one closed window as compared.
type Window struct {
	Host                                       uint16
	Stage                                      logpoint.StageID
	Start                                      int64
	Windows, Tasks, FlowOutliers, PerfOutliers int
}

// Observe puts what an assembly reported — its anomalies, its closed-window
// history and its late-drop count — in comparable form.
func Observe(anomalies []analyzer.Anomaly, history []analyzer.WindowStats, late uint64) Outcome {
	o := Outcome{Verdicts: make([]Verdict, len(anomalies)), Windows: make([]Window, len(history)), Late: late}
	var ids []byte
	for i, a := range anomalies {
		ids = ids[:0]
		for j, ex := range a.Examples {
			if j > 0 {
				ids = append(ids, ' ')
			}
			ids = strconv.AppendUint(ids, ex.TaskID, 10)
		}
		o.Verdicts[i] = Verdict{
			Host: a.Host, Stage: a.Stage, Window: a.Window.UnixNano(),
			Kind: a.Kind, NewSignature: a.NewSignature, Signature: a.Signature,
			Outliers: a.Outliers, Tasks: a.Tasks, Test: a.Test, Examples: string(ids),
		}
	}
	for i, w := range history {
		o.Windows[i] = Window{
			Host: w.Host, Stage: w.Stage, Start: w.Window.UnixNano(), Windows: w.Windows,
			Tasks: w.Tasks, FlowOutliers: w.FlowOutliers, PerfOutliers: w.PerfOutliers,
		}
	}
	// Total orders: after a model swap one window start can close twice.
	slices.SortFunc(o.Verdicts, func(a, b Verdict) int {
		return cmp.Or(
			cmp.Compare(a.Host, b.Host), cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Window, b.Window),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Signature, b.Signature),
			cmp.Compare(flag(a.NewSignature), flag(b.NewSignature)),
			cmp.Compare(a.Outliers, b.Outliers), cmp.Compare(a.Tasks, b.Tasks),
			cmp.Compare(a.Test.P0, b.Test.P0), cmp.Compare(a.Examples, b.Examples),
		)
	})
	slices.SortFunc(o.Windows, func(a, b Window) int {
		return cmp.Or(
			cmp.Compare(a.Host, b.Host), cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.Windows, b.Windows), cmp.Compare(a.Tasks, b.Tasks), cmp.Compare(a.FlowOutliers, b.FlowOutliers),
			cmp.Compare(a.PerfOutliers, b.PerfOutliers),
		)
	})
	return o
}

func flag(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FlushEngines flushes every engine and observes them as one analyzer: the
// anomalies reported earlier (before a restart, by a swap) and the flushed
// ones, every engine's window history, the late drops summed.
//
// The histories fold as one detector's would: read one engine after another,
// a group's entries past its last HistoryDepth windows join its aggregate. A
// group whose windows closed on two engines — handed from one to the next —
// therefore compares exactly, aggregate included, when the engines are passed
// in the order they held it. Where no group closes more than HistoryDepth
// windows in all (any Stream), nothing folds and the order does not matter.
func FlushEngines(earlier []analyzer.Anomaly, engines ...*analyzer.Engine) Outcome {
	hist := history{}
	var late uint64
	for _, e := range engines {
		earlier = append(earlier, e.Flush()...)
		for _, w := range e.WindowHistory() {
			hist.add(w)
		}
		late += e.LateSynopses()
	}
	return Observe(earlier, hist.all(), late)
}

// Check fails tb at the first difference between what an assembly decided
// and what the spec wants; what names the run (a seed, a script).
func Check(tb testing.TB, what string, want, got Outcome) {
	tb.Helper()
	if i := mismatch(want.Verdicts, got.Verdicts); i >= 0 {
		tb.Fatalf("%s: %d verdicts, the spec's %d; #%d is\n  %+v\nthe spec's\n  %+v",
			what, len(got.Verdicts), len(want.Verdicts), i, at(got.Verdicts, i), at(want.Verdicts, i))
	}
	if i := mismatch(want.Windows, got.Windows); i >= 0 {
		tb.Fatalf("%s: %d closed windows, the spec's %d; #%d is\n  %+v\nthe spec's\n  %+v",
			what, len(got.Windows), len(want.Windows), i, at(got.Windows, i), at(want.Windows, i))
	}
	if got.Late != want.Late {
		tb.Fatalf("%s: %d late drops, the spec's %d", what, got.Late, want.Late)
	}
}

// mismatch is the index of the first element a and b differ in, -1 if none.
func mismatch[T comparable](a, b []T) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "nothing"
}
