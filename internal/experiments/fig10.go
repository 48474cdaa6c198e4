package experiments

import (
	"fmt"
	"strings"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/logpoint"
	"saad/internal/report"
	"saad/internal/storage/hbase"
)

// Table2Windows is the disk-hog schedule of Table 2 (paper minutes and
// `dd` process counts).
var Table2Windows = []struct {
	Name     string
	From, To int
	Procs    int
}{
	{Name: "Low-intensity", From: 8, To: 16, Procs: 1},
	{Name: "Medium-intensity", From: 28, To: 44, Procs: 2},
	{Name: "High-intensity-1", From: 56, To: 64, Procs: 4},
	{Name: "High-intensity-2", From: 116, To: 130, Procs: 4},
}

// Table2String renders Table 2.
func Table2String() string {
	var b strings.Builder
	b.WriteString("Table 2: injected disk-hog faults on all 4 hosts\n")
	b.WriteString("  Fault              Span      #dd processes\n")
	for _, w := range Table2Windows {
		fmt.Fprintf(&b, "  %-18s %3d-%-3d   %d\n", w.Name, w.From, w.To, w.Procs)
	}
	return b.String()
}

// Fig10Result reproduces Figure 10: the 3-hour HBase/HDFS run under the
// Table 2 disk-hog schedule, including the RegionServer-3 crash from the
// premature-recovery-termination bug during high-intensity fault 1, the
// muted write anomalies under the YCSB put-batching misconfiguration during
// high-intensity fault 2, and the major-compaction false positive around
// minute 150.
type Fig10Result struct {
	// Anomalies over the full 180 minutes.
	Anomalies []analyzer.Anomaly
	// RSTimeline / DNTimeline split the grid like Figures 10(a) and (b).
	RSTimeline string
	DNTimeline string
	// RS3CrashMinute is when RegionServer 3 aborted (-1 if it did not).
	RS3CrashMinute int
	// ErrorLogCount is the error-message total for the grep baseline.
	ErrorLogCount int
	// FlowCount/PerfCount split anomalies by kind.
	FlowCount, PerfCount int
	// Throughput is completed ops per paper minute.
	Throughput []int
}

// String renders both grids and the summary.
func (r Fig10Result) String() string {
	var b strings.Builder
	b.WriteString(Table2String())
	b.WriteString("\nFigure 10(a): HBase RegionServers\n")
	b.WriteString(r.RSTimeline)
	b.WriteString("\nFigure 10(b): HDFS DataNodes\n")
	b.WriteString(r.DNTimeline)
	fmt.Fprintf(&b, "\n  anomalies: %d flow, %d performance; error log messages: %d\n",
		r.FlowCount, r.PerfCount, r.ErrorLogCount)
	if r.RS3CrashMinute >= 0 {
		fmt.Fprintf(&b, "  RegionServer 3 crashed at minute %d (premature recovery termination bug)\n", r.RS3CrashMinute)
	}
	return b.String()
}

// CountAnomalies tallies anomalies per stage/host/kind (host 0 = any).
func (r Fig10Result) CountAnomalies(dict *logpoint.Dictionary, stageName string, host uint16, kind analyzer.AnomalyKind) int {
	return countAnomalies(r.Anomalies, dict, stageName, host, kind)
}

// CountAnomaliesBetween tallies anomalies in the given paper-minute window.
func (r Fig10Result) CountAnomaliesBetween(cfg Config, fromMin, toMin int) int {
	n := 0
	from, to := cfg.Minute(float64(fromMin)), cfg.Minute(float64(toMin))
	for _, a := range r.Anomalies {
		if !a.Window.Before(from) && a.Window.Before(to) {
			n++
		}
	}
	return n
}

// rsStageNames are the RegionServer-side stages of Figures 6(b) and 10(a).
var rsStageNames = []string{
	"RSListener", "Connection", "Call", "RSHandler", "DataStreamer",
	"ResponseProcessor", "LogRoller", "CompactionChecker",
	"CompactionRequest", "SplitLogWorker", "OpenRegionHandler",
	"PostOpenDeployTasksThread",
}

// dnStageNames are the DataNode-side stages of Figure 10(b).
var dnStageNames = []string{
	"DataXceiver", "PacketResponder", "RecoverBlocks", "DataTransfer",
	"Handler", "Listener", "Reader",
}

// Fig10 trains on a fault-free 30-minute run and executes the 180-minute
// faulted timeline with the YCSB batching misconfiguration enabled
// throughout (the paper discovered it was hard-coded in YCSB 0.1.4).
func Fig10(cfg Config) (Fig10Result, *logpoint.Dictionary, error) {
	cfg.applyDefaults()
	out := Fig10Result{RS3CrashMinute: -1}

	const batchSize = 8

	// Training: fault-free, same batching (the misconfiguration is part of
	// the harness, not the fault), no major compaction (the paper's model
	// missed it, producing the false positive).
	train, _, err := cfg.hbaseRun(run{minutes: 30, seed: 1101, batch: batchSize})
	if err != nil {
		return out, nil, err
	}
	model, err := cfg.trainModel(train.syns)
	if err != nil {
		return out, nil, err
	}

	var windows []faults.HogWindow
	for _, w := range Table2Windows {
		windows = append(windows, faults.HogWindow{
			From: cfg.Minute(float64(w.From)), To: cfg.Minute(float64(w.To)),
			Procs: w.Procs, Host: faults.AllHosts,
		})
	}
	tune := func(hc *hbase.Config) {
		hc.RecoveryBugHost = 3
		// The trigger sits between the medium hog's sync EMA (~11-12 ms at
		// 2 dd processes) and the high hog's (~19-20 ms at 4), so the bug
		// fires during high-intensity fault 1 as in the paper.
		hc.RecoveryTriggerLatency = 17 * time.Millisecond
		hc.MaxRecoveryRetries = 12
		hc.RecoveryRetryEvery = cfg.MinuteScale / 4
		hc.MajorCompactAt = cfg.Minute(150)
		hc.CompactionCheckEvery = cfg.MinuteScale
		hc.LogRollEvery = 2 * cfg.MinuteScale
		hc.SplitCheckEvery = 2 * cfg.MinuteScale
	}
	res, hb, err := cfg.hbaseRun(run{minutes: 180, seed: 1105, batch: batchSize, hbase: tune,
		scenarioFaults: scenarioFaults{hogs: faults.NewHogSchedule(windows...)}})
	if err != nil {
		return out, nil, err
	}
	out.Throughput = res.throughput
	if hb.RSCrashed(3) {
		for _, e := range res.errors {
			if e.Host == 3 {
				out.RS3CrashMinute = cfg.windowIndex(e.At)
			}
		}
	}
	out.Anomalies, _ = detect(model, res.syns)
	out.FlowCount, out.PerfCount = report.CountByKind(out.Anomalies)
	out.ErrorLogCount = len(res.errors)

	out.RSTimeline = cfg.timeline(res, 180, out.Anomalies, stageSet(res.dict, rsStageNames))
	out.DNTimeline = cfg.timeline(res, 180, out.Anomalies, stageSet(res.dict, dnStageNames))
	return out, res.dict, nil
}
