package experiments

import (
	"fmt"
	"strings"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/logpoint"
	"saad/internal/report"
	"saad/internal/storage/cassandra"
)

// Fig9Variant selects one subfigure of Figure 9.
type Fig9Variant string

// The four Cassandra fault-injection experiments of Section 5.4.
const (
	Fig9ErrorWAL   Fig9Variant = "fig9a-error-wal"
	Fig9ErrorFlush Fig9Variant = "fig9b-error-memtable-flush"
	Fig9DelayWAL   Fig9Variant = "fig9c-delay-wal"
	Fig9DelayFlush Fig9Variant = "fig9d-delay-memtable-flush"
)

// Fig9Result is one reproduced Cassandra fault timeline.
type Fig9Result struct {
	Variant Fig9Variant
	// Anomalies is everything the analyzer flagged over the 50 minutes.
	Anomalies []analyzer.Anomaly
	// Timeline is the rendered per-stage grid (the figure's left axis).
	Timeline string
	// Throughput is completed client ops per paper minute (right axis).
	Throughput []int
	// ErrorLogCount is how many ERROR messages conventional log monitoring
	// would have seen, with their minutes.
	ErrorLogCount   int
	ErrorLogMinutes []int
	// Host4CrashedMinute is the crash minute (-1 when no crash), expected
	// ≈ 44 for the error-WAL experiment.
	Host4CrashedMinute int
	// FlowCount / PerfCount split the anomalies by kind.
	FlowCount, PerfCount int
}

// String renders the timeline and summary.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 (%s): anomalies per stage, fault on host 4 (low min 10-20, high min 30-40)\n", r.Variant)
	b.WriteString(r.Timeline)
	fmt.Fprintf(&b, "  anomalies: %d flow, %d performance; error log messages: %d",
		r.FlowCount, r.PerfCount, r.ErrorLogCount)
	if len(r.ErrorLogMinutes) > 0 {
		fmt.Fprintf(&b, " (first at minute %d)", r.ErrorLogMinutes[0])
	}
	b.WriteByte('\n')
	if r.Host4CrashedMinute >= 0 {
		fmt.Fprintf(&b, "  host 4 crashed at minute %d\n", r.Host4CrashedMinute)
	}
	b.WriteString("  throughput (ops/min):")
	for i, tp := range r.Throughput {
		if i%5 == 0 {
			fmt.Fprintf(&b, " m%d=%d", i, tp)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// CountAnomalies tallies anomalies for one stage name and host (host 0 =
// any host) using the given dictionary.
func (r Fig9Result) CountAnomalies(dict *logpoint.Dictionary, stageName string, host uint16, kind analyzer.AnomalyKind) int {
	return countAnomalies(r.Anomalies, dict, stageName, host, kind)
}

// countAnomalies is CountAnomalies of Figures 9 and 10.
func countAnomalies(anomalies []analyzer.Anomaly, dict *logpoint.Dictionary, stageName string, host uint16, kind analyzer.AnomalyKind) int {
	n := 0
	for _, a := range anomalies {
		if a.Kind == kind && (host == 0 || a.Host == host) && dict.StageName(a.Stage) == stageName {
			n++
		}
	}
	return n
}

// stageSet resolves stage names to their ids in dict.
func stageSet(dict *logpoint.Dictionary, names []string) map[logpoint.StageID]bool {
	set := make(map[logpoint.StageID]bool, len(names))
	for _, n := range names {
		if id, ok := dict.StageByName(n); ok {
			set[id] = true
		}
	}
	return set
}

// timeline renders a run's per-stage grid: the anomalies and the hosts'
// ERROR log messages ('E' marks) over the throughput, restricted to the
// stages in only when it is non-nil.
func (c Config) timeline(res runResult, minutes int, anomalies []analyzer.Anomaly, only map[logpoint.StageID]bool) string {
	tl := report.NewTimeline(res.dict, Epoch, c.Minute(float64(minutes)), c.MinuteScale)
	tl.SetThroughput(res.throughput)
	var anoms []analyzer.Anomaly
	for _, a := range anomalies {
		if only == nil || only[a.Stage] {
			anoms = append(anoms, a)
		}
	}
	tl.AddAnomalies(anoms)
	var events []report.Event
	for _, e := range res.errors {
		if only == nil || only[e.Stage] {
			events = append(events, report.Event{Host: e.Host, Stage: e.Stage, At: e.At, Mark: 'E'})
		}
	}
	tl.AddEvents(events)
	return tl.Render()
}

// Fig9 runs one variant: train on a 30-minute fault-free trace, then run
// the 50-minute faulted timeline and detect. The returned dictionary
// resolves stage names in the anomalies.
func Fig9(cfg Config, variant Fig9Variant) (Fig9Result, *logpoint.Dictionary, error) {
	cfg.applyDefaults()
	out := Fig9Result{Variant: variant, Host4CrashedMinute: -1}

	// Training trace (the paper trains on a 2-hour fault-free trace; the
	// compressed equivalent is 30 paper-minutes of the same workload).
	train, _, err := cfg.cassandraRun(run{minutes: 30, seed: 901, cassandra: fig9Tuning(cfg)})
	if err != nil {
		return out, nil, err
	}
	model, err := cfg.trainModel(train.syns)
	if err != nil {
		return out, nil, err
	}

	res, cass, err := cfg.cassandraRun(run{minutes: 50, seed: 905,
		scenarioFaults: scenarioFaults{inj: fig9Injector(cfg, variant)}, cassandra: fig9Tuning(cfg)})
	if err != nil {
		return out, nil, err
	}
	if h4 := cass.Cluster().Host(4); h4.Crashed() {
		out.Host4CrashedMinute = cfg.windowIndex(h4.CrashedAt())
	}
	out.Throughput = res.throughput
	out.Anomalies, _ = detect(model, res.syns)
	out.FlowCount, out.PerfCount = report.CountByKind(out.Anomalies)

	out.ErrorLogCount = len(res.errors)
	for _, e := range res.errors {
		out.ErrorLogMinutes = append(out.ErrorLogMinutes, cfg.windowIndex(e.At))
	}
	out.Timeline = cfg.timeline(res, 50, out.Anomalies, nil)
	return out, res.dict, nil
}

// fig9Tuning matches the crash dynamics to the compressed timeline: heap
// accumulates from failed writes at roughly clients/(think) * 0.9 * 0.75 *
// ~110 bytes per second, and the paper's host dies ~14 minutes after the
// high-intensity WAL fault begins.
func fig9Tuning(cfg Config) func(*cassandra.Config) {
	opsPerSec := float64(cfg.Clients) / (cfg.Think.Seconds() + 0.005)
	heapPerSec := opsPerSec * 0.9 * 0.75 * 110
	crashAfter := 14 * cfg.MinuteScale.Seconds()
	return func(cc *cassandra.Config) {
		cc.CrashHeapBytes = int(heapPerSec * crashAfter)
		cc.GCPressureBytes = cc.CrashHeapBytes / 8
		cc.FreezeRecovery = cfg.MinuteScale // low-intensity freezes last ~1 paper-minute
		cc.GCEvery = cfg.MinuteScale / 2
		cc.HintReplayEvery = cfg.MinuteScale
		// Size the memtable so each host flushes ~4 times per paper minute:
		// the per-window flush-task population the proportion tests need.
		cc.FlushBytes = int(heapPerSec * cfg.MinuteScale.Seconds() / 4)
		if cc.FlushBytes < 8<<10 {
			cc.FlushBytes = 8 << 10
		}
	}
}

// fig9Injector builds the low (1%, minutes 10-20) + high (100%, minutes
// 30-40) fault pair on host 4 for the variant.
func fig9Injector(cfg Config, variant Fig9Variant) *faults.Injector {
	point := faults.PointWALAppend
	mode := faults.ModeError
	switch variant {
	case Fig9ErrorFlush:
		point = faults.PointMemtableFlush
	case Fig9DelayWAL:
		mode = faults.ModeDelay
	case Fig9DelayFlush:
		point = faults.PointMemtableFlush
		mode = faults.ModeDelay
	}
	return faults.NewInjector(
		faults.Fault{
			Name: string(variant) + "-low", Point: point, Mode: mode,
			Probability: 0.01, Delay: 100 * time.Millisecond, Host: 4,
			From: cfg.Minute(10), To: cfg.Minute(20),
		},
		faults.Fault{
			Name: string(variant) + "-high", Point: point, Mode: mode,
			Probability: 1, Delay: 100 * time.Millisecond, Host: 4,
			From: cfg.Minute(30), To: cfg.Minute(40),
		},
	)
}
