// Command saad-bench regenerates the paper's tables and figures.
//
//	saad-bench [flags] <experiment>
//
// Run it without arguments for the experiment names: they come from the one
// table below that also dispatches them. "all" runs the paper's measured
// artifacts (Figs. 6-11, Table 1, Sec. 5.3.3) in order. Two names are not
// paper artifacts: "scenarios" runs the gray-failure taxonomy matrix (each
// cell pairs one gray fault with a taxonomy class and is scored for
// detection and localization), "model" trains on a fault-free Cassandra run
// and prints the learned per-stage signature tables.
//
// Each experiment prints the rows/series the paper reports; timelines
// render as per-stage ASCII grids with one column per paper minute. With
// -json <file> each experiment also appends one machine-readable JSON
// record (experiment, seed, elapsed_ms, result), "scenarios" one per cell
// (experiment "scenario:<name>"). The performance of this repo's own
// pipeline is measured by `bash benchmark/run.sh`, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"saad/internal/analyzer"
	"saad/internal/experiments"
	"saad/internal/logpoint"
	"saad/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "saad-bench:", err)
		os.Exit(1)
	}
}

// experiment is one row of the dispatch table. The usage text, "all" and
// runOne all read experimentTable, so a name cannot be in one and missing
// from another.
type experiment struct {
	name string
	// all marks the paper's measured artifacts, which "all" runs in table
	// order; the static tables and the two non-paper experiments are not.
	all bool
	run runFunc
}

// runFunc runs one experiment; a non-empty csvPrefix asks the timeline
// experiments to also write <csvPrefix>-{throughput,anomalies}.csv.
type runFunc func(cfg experiments.Config, csvPrefix string) (fmt.Stringer, error)

var experimentTable = []experiment{
	{"fig6", true, measured(experiments.Fig6)},
	{"fig7", true, measured(experiments.Fig7)},
	{"fig8", true, measured(experiments.Fig8)},
	{"sec533", true, measured(experiments.Sec533)},
	{"table1", true, measured(experiments.Table1)},
	{"table2", false, static(experiments.Table2String)},
	{"table3", false, static(experiments.Table3String)},
	{"fig9a", true, fig9(experiments.Fig9ErrorWAL)},
	{"fig9b", true, fig9(experiments.Fig9ErrorFlush)},
	{"fig9c", true, fig9(experiments.Fig9DelayWAL)},
	{"fig9d", true, fig9(experiments.Fig9DelayFlush)},
	{"fig10", true, fig10},
	{"fig11", true, measured(experiments.Fig11)},
	{"scenarios", false, func(cfg experiments.Config, _ string) (fmt.Stringer, error) {
		return experiments.ScenarioMatrix(cfg)
	}},
	{"model", false, func(cfg experiments.Config, _ string) (fmt.Stringer, error) {
		text, err := experiments.ModelSummary(cfg)
		return staticText(text), err
	}},
}

// staticText is an experiment result that is only its text (the static
// tables and the model dump): printed as is, recorded as a JSON string.
type staticText string

func (t staticText) String() string { return string(t) }

func measured[R fmt.Stringer](f func(experiments.Config) (R, error)) runFunc {
	return func(cfg experiments.Config, _ string) (fmt.Stringer, error) { return f(cfg) }
}

func static(f func() string) runFunc {
	return func(experiments.Config, string) (fmt.Stringer, error) { return staticText(f()), nil }
}

func fig9(variant experiments.Fig9Variant) runFunc {
	return func(cfg experiments.Config, csvPrefix string) (fmt.Stringer, error) {
		res, dict, err := experiments.Fig9(cfg, variant)
		if err == nil && csvPrefix != "" {
			err = writeCSVs(csvPrefix, cfg, res.Throughput, res.Anomalies, dict)
		}
		return res, err
	}
}

func fig10(cfg experiments.Config, csvPrefix string) (fmt.Stringer, error) {
	res, dict, err := experiments.Fig10(cfg)
	if err == nil && csvPrefix != "" {
		err = writeCSVs(csvPrefix, cfg, res.Throughput, res.Anomalies, dict)
	}
	return res, err
}

// lookup returns the table row for name.
func lookup(name string) (experiment, bool) {
	for _, exp := range experimentTable {
		if exp.name == name {
			return exp, true
		}
	}
	return experiment{}, false
}

// usageNames is the experiment list of the usage error.
func usageNames() string {
	names := make([]string, 0, len(experimentTable)+1)
	for _, exp := range experimentTable {
		names = append(names, exp.name)
	}
	return strings.Join(append(names, "all"), " ")
}

func run(args []string) error {
	fs := flag.NewFlagSet("saad-bench", flag.ContinueOnError)
	var (
		cfg             experiments.Config
		csvDir, jsonOut string
	)
	fs.DurationVar(&cfg.MinuteScale, "scale", 5*time.Second, "virtual duration of one paper minute")
	fs.IntVar(&cfg.Clients, "clients", 40, "emulated YCSB clients")
	fs.DurationVar(&cfg.Think, "think", 150*time.Millisecond, "client think time")
	fs.Uint64Var(&cfg.Seed, "seed", 20141208, "random seed")
	fs.IntVar(&cfg.Runs, "runs", 5, "repetitions for fig11")
	fs.StringVar(&csvDir, "csv", "", "directory to write throughput/anomaly CSVs for fig9*/fig10 (optional)")
	fs.StringVar(&jsonOut, "json", "", `file to append one JSON record per experiment ("-" for stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one experiment, got %d args (%s)", fs.NArg(), usageNames())
	}

	name := fs.Arg(0)
	if name == "all" {
		for _, exp := range experimentTable {
			if !exp.all {
				continue
			}
			if err := runOne(cfg, exp.name, csvDir, jsonOut); err != nil {
				return fmt.Errorf("%s: %w", exp.name, err)
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(cfg, name, csvDir, jsonOut)
}

// benchRecord is the machine-readable form of one experiment run, appended
// as one JSON line per experiment when -json is set.
type benchRecord struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	ElapsedMS  int64  `json:"elapsed_ms"`
	// Result is the experiment's native result struct (tables, series,
	// anomaly lists); static tables and the model dump carry their text.
	Result any `json:"result"`
}

// writeJSONRecord appends rec to path as one JSON line ("-" = stdout).
func writeJSONRecord(path string, rec benchRecord) error {
	encode := func(w io.Writer) error { return json.NewEncoder(w).Encode(rec) }
	var err error
	if path == "-" {
		err = encode(os.Stdout)
	} else {
		err = writeFile(path, os.O_APPEND, encode)
	}
	if err != nil {
		return fmt.Errorf("write -json record: %w", err)
	}
	return nil
}

func runOne(cfg experiments.Config, name, csvDir, jsonOut string) error {
	exp, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (%s)", name, usageNames())
	}
	csvPrefix := ""
	if csvDir != "" {
		csvPrefix = filepath.Join(csvDir, name)
	}
	started := time.Now()
	out, err := exp.run(cfg, csvPrefix)
	if err != nil {
		return err
	}
	fmt.Print(out.String())
	if _, text := out.(staticText); !text {
		fmt.Printf("[%s completed in %v]\n", name, time.Since(started).Round(time.Millisecond))
	}
	if jsonOut == "" {
		return nil
	}
	elapsed := time.Since(started).Milliseconds()
	matrix, ok := out.(experiments.ScenarioMatrixResult)
	if !ok {
		return writeJSONRecord(jsonOut, benchRecord{name, cfg.Seed, elapsed, out})
	}
	// The scenario matrix is recorded one cell per record, so each cell is
	// tracked as its own experiment.
	for _, cell := range matrix.Cells {
		rec := benchRecord{"scenario:" + cell.Name, cfg.Seed, elapsed / int64(len(matrix.Cells)), cell}
		if err := writeJSONRecord(jsonOut, rec); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVs emits <prefix>-throughput.csv and <prefix>-anomalies.csv.
func writeCSVs(prefix string, cfg experiments.Config, throughput []int, anomalies []analyzer.Anomaly, dict *logpoint.Dictionary) error {
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return err
	}
	err := writeFile(prefix+"-throughput.csv", os.O_TRUNC, func(w io.Writer) error {
		return report.SeriesCSV(w, []string{"ops"}, throughput)
	})
	if err != nil {
		return err
	}
	return writeFile(prefix+"-anomalies.csv", os.O_TRUNC, func(w io.Writer) error {
		return report.AnomaliesCSV(w, anomalies, dict, experiments.Epoch, cfg.MinuteScale)
	})
}

// writeFile creates path (mode os.O_TRUNC) or extends it (os.O_APPEND)
// with what write produces.
func writeFile(path string, mode int, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, mode|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
