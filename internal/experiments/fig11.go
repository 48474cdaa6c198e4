package experiments

import (
	"fmt"
	"strings"
	"time"

	"saad/internal/faults"
	"saad/internal/report"
	"saad/internal/storage/cassandra"
)

// Table3Fault describes one of the seven fault experiments of Table 3.
type Table3Fault struct {
	Name      string
	Point     faults.Point
	Mode      faults.Mode
	Intensity float64
	Desc      string
}

// Table3Faults is the paper's Table 3.
var Table3Faults = []Table3Fault{
	{Name: "error-WAL-low", Point: faults.PointWALAppend, Mode: faults.ModeError, Intensity: 0.01,
		Desc: "Error on 1% of write operations to WAL"},
	{Name: "error-WAL-high", Point: faults.PointWALAppend, Mode: faults.ModeError, Intensity: 1,
		Desc: "Error on 100% of write operations to WAL"},
	{Name: "error-MemTable-low", Point: faults.PointMemtableFlush, Mode: faults.ModeError, Intensity: 0.01,
		Desc: "Error on 1% of writes when flushing MemTable to disk"},
	{Name: "error-MemTable-high", Point: faults.PointMemtableFlush, Mode: faults.ModeError, Intensity: 1,
		Desc: "Error on 100% of writes when flushing MemTable to disk"},
	{Name: "delay-WAL-low", Point: faults.PointWALAppend, Mode: faults.ModeDelay, Intensity: 0.01,
		Desc: "Delay on 1% of write operations to WAL"},
	{Name: "delay-WAL-high", Point: faults.PointWALAppend, Mode: faults.ModeDelay, Intensity: 1,
		Desc: "Delay on 100% of write operations to WAL"},
	{Name: "delay-MemTable-low", Point: faults.PointMemtableFlush, Mode: faults.ModeDelay, Intensity: 0.01,
		Desc: "Delay on 1% of writes when flushing MemTable to disk"},
}

// Table3String renders Table 3.
func Table3String() string {
	var b strings.Builder
	b.WriteString("Table 3: the 7 injected faults on the write path of a Cassandra node\n")
	b.WriteString("  Name                 I/O Activity  Mode   Intensity  Description\n")
	for _, f := range Table3Faults {
		act := "WAL"
		if f.Point == faults.PointMemtableFlush {
			act = "MemTable"
		}
		fmt.Fprintf(&b, "  %-20s %-13s %-6s %-10.2f %s\n", f.Name, act, f.Mode, f.Intensity, f.Desc)
	}
	return b.String()
}

// Fig11Row is one bar pair of Figure 11.
type Fig11Row struct {
	Fault string
	// BeforeFlow/DuringFlow are the mean flow-anomaly counts in the clean
	// and faulted 30-minute windows, averaged over runs.
	BeforeFlow, DuringFlow float64
	// BeforePerf/DuringPerf are the performance-anomaly counterparts.
	BeforePerf, DuringPerf float64
}

// Fig11Result reproduces Figure 11 (false-positive analysis): mean detected
// anomalies before vs during each of the Table 3 faults. The paper's
// findings: error faults raise flow anomalies 10-60x; WAL-delay-high and
// MemTable-delay-low raise performance anomalies 3-8x; delay-WAL-low stays
// flat.
type Fig11Result struct {
	Rows []Fig11Row
	Runs int
	// TotalFalseFlow is the summed before-fault flow anomalies across all
	// runs (the paper's 54-in-70-runs statistic).
	TotalFalseFlow int
	// TotalFalsePerf is the performance counterpart.
	TotalFalsePerf int
}

// String renders both panels.
func (r Fig11Result) String() string {
	var b strings.Builder
	b.WriteString(Table3String())
	fmt.Fprintf(&b, "\nFigure 11 (averages over %d runs):\n", r.Runs)
	b.WriteString("  (a) flow anomalies            before   during\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "      %-24s %7.1f  %7.1f\n", row.Fault, row.BeforeFlow, row.DuringFlow)
	}
	b.WriteString("  (b) performance anomalies     before   during\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "      %-24s %7.1f  %7.1f\n", row.Fault, row.BeforePerf, row.DuringPerf)
	}
	fmt.Fprintf(&b, "  total false positives across runs: %d flow, %d performance\n",
		r.TotalFalseFlow, r.TotalFalsePerf)
	return b.String()
}

// Row returns the row for a named fault (zero row when missing).
func (r Fig11Result) Row(name string) Fig11Row {
	for _, row := range r.Rows {
		if row.Fault == name {
			return row
		}
	}
	return Fig11Row{}
}

// Fig11 runs the empirical false-positive validation: for each Table 3
// fault and each run, a warm-up, a clean 30-minute window (anomalies here
// are false positives) and a faulted 30-minute window, detected against a
// model trained on a separate fault-free trace.
func Fig11(cfg Config) (Fig11Result, error) {
	cfg.applyDefaults()
	out := Fig11Result{Runs: cfg.Runs}

	const (
		warmupMin = 10
		cleanMin  = 40 // clean window spans minutes 10-40
		faultMin  = 70 // fault window spans minutes 40-70
	)

	// One shared model from fault-free traces. Two independent runs feed
	// training so the per-signature duration thresholds absorb run-to-run
	// variability (the paper trains on a 2-hour trace for the same
	// reason).
	trainA, _, err := cfg.cassandraRun(run{minutes: 30, seed: 1301, cassandra: fig11Tuning(cfg)})
	if err != nil {
		return out, err
	}
	trainB, _, err := cfg.cassandraRun(run{minutes: 30, seed: 1999, cassandra: fig11Tuning(cfg)})
	if err != nil {
		return out, err
	}
	model, err := cfg.trainModel(append(trainA.syns, trainB.syns...))
	if err != nil {
		return out, err
	}

	for i, fault := range Table3Faults {
		row := Fig11Row{Fault: fault.Name}
		for rep := 0; rep < cfg.Runs; rep++ {
			inj := faults.NewInjector(faults.Fault{
				Name:        fault.Name,
				Point:       fault.Point,
				Mode:        fault.Mode,
				Probability: fault.Intensity,
				Delay:       100 * time.Millisecond,
				Host:        4,
				From:        cfg.Minute(cleanMin),
				To:          cfg.Minute(faultMin),
			})
			res, _, err := cfg.cassandraRun(run{minutes: faultMin, seed: fig11Seed(i, rep),
				scenarioFaults: scenarioFaults{inj: inj}, cassandra: fig11Tuning(cfg)})
			if err != nil {
				return out, err
			}
			anoms, _ := detect(model, res.syns)
			before := report.FilterWindow(anoms, cfg.Minute(warmupMin), cfg.Minute(cleanMin))
			during := report.FilterWindow(anoms, cfg.Minute(cleanMin), cfg.Minute(faultMin))
			bf, bp := report.CountByKind(before)
			df, dp := report.CountByKind(during)
			row.BeforeFlow += float64(bf)
			row.BeforePerf += float64(bp)
			row.DuringFlow += float64(df)
			row.DuringPerf += float64(dp)
			out.TotalFalseFlow += bf
			out.TotalFalsePerf += bp
		}
		n := float64(cfg.Runs)
		row.BeforeFlow /= n
		row.BeforePerf /= n
		row.DuringFlow /= n
		row.DuringPerf /= n
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// fig11Seed is the seed offset of repetition rep of the fault-th Table 3
// fault. It is injective, generator seeds (+1) included, for any number of
// repetitions (13*6 < 97-1), so every clean window behind the
// false-positive totals is an independent run.
func fig11Seed(fault, rep int) uint64 { return 1400 + uint64(rep)*97 + uint64(fault)*13 }

// fig11Tuning mirrors fig9Tuning but with a high crash threshold so the
// 30-minute fault window completes without losing the node (the paper's
// runs are 30 minutes, shorter than the crash horizon).
func fig11Tuning(cfg Config) func(*cassandra.Config) {
	base := fig9Tuning(cfg)
	return func(cc *cassandra.Config) {
		base(cc)
		cc.CrashHeapBytes = 1 << 30
	}
}
