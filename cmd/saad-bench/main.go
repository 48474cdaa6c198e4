// Command saad-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	saad-bench [flags] <experiment>
//	saad-bench compare -baseline <file> -current <file>
//
// Experiments: fig6 fig7 fig8 sec533 table1 table2 table3 fig9a fig9b
// fig9c fig9d fig10 fig11 scenarios wirepath fleet all
//
// "wirepath" benchmarks this repo's own synopsis wire path (one link over a
// TCP loopback into the engine, plus a multi-link saturation leg recorded
// as "wirepath-saturation"); "fleet" plays a faulted trace through
// a 3-peer federated analyzer tier with a graceful mid-stream leave and
// verifies the merged anomaly union against a single engine; "compare"
// diffs the synopses-per-second series of two -json record files and fails
// on a >20% regression (CI's perf gate).
//
// "scenarios" runs the gray-failure taxonomy matrix (not a paper artifact):
// each cell pairs one gray fault with a taxonomy class and is scored for
// detection and localization. With -json it appends one record per cell
// (experiment "scenario:<name>") so regressions track cells individually.
//
// Each experiment prints the rows/series the paper reports; timelines
// render as per-stage ASCII grids with one column per paper minute. With
// -json <file> each experiment also appends one machine-readable JSON
// record (experiment, seed, elapsed_ms, result) for regression tracking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	fs := flag.NewFlagSet("saad-bench", flag.ContinueOnError)
	var (
		scale   = fs.Duration("scale", 5*time.Second, "virtual duration of one paper minute")
		clients = fs.Int("clients", 40, "emulated YCSB clients")
		think   = fs.Duration("think", 150*time.Millisecond, "client think time")
		seed    = fs.Uint64("seed", 20141208, "random seed")
		runs    = fs.Int("runs", 5, "repetitions for fig11")
		csvDir  = fs.String("csv", "", "directory to write throughput/anomaly CSVs for fig9*/fig10 (optional)")
		jsonOut = fs.String("json", "", `file to append one JSON record per experiment ("-" for stdout)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one experiment, got %d args (fig6 fig7 fig8 sec533 table1 table2 table3 fig9a fig9b fig9c fig9d fig10 fig11 scenarios wirepath fleet model all)", fs.NArg())
	}
	cfg := experiments.Config{
		MinuteScale: *scale,
		Clients:     *clients,
		Think:       *think,
		Seed:        *seed,
		Runs:        *runs,
	}

	name := fs.Arg(0)
	if name == "all" {
		for _, exp := range []string{"fig6", "fig7", "fig8", "sec533", "table1", "fig9a", "fig9b", "fig9c", "fig9d", "fig10", "fig11", "wirepath", "fleet"} {
			if err := runOne(cfg, exp, *csvDir, *jsonOut); err != nil {
				return fmt.Errorf("%s: %w", exp, err)
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(cfg, name, *csvDir, *jsonOut)
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
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(raw)
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func runOne(cfg experiments.Config, name, csvDir, jsonOut string) error {
	if name == "scenarios" {
		return runScenarios(cfg, jsonOut)
	}
	started := time.Now()
	var out fmt.Stringer
	var text string
	var err error
	switch name {
	case "fig6":
		out, err = experiments.Fig6(cfg)
	case "fig7":
		out, err = experiments.Fig7(cfg)
	case "fig8":
		out, err = experiments.Fig8(cfg)
	case "sec533":
		out, err = experiments.Sec533(cfg)
	case "table1":
		out, err = experiments.Table1(cfg)
	case "table2":
		text = experiments.Table2String()
	case "table3":
		text = experiments.Table3String()
	case "fig9a", "fig9b", "fig9c", "fig9d":
		variant := map[string]experiments.Fig9Variant{
			"fig9a": experiments.Fig9ErrorWAL,
			"fig9b": experiments.Fig9ErrorFlush,
			"fig9c": experiments.Fig9DelayWAL,
			"fig9d": experiments.Fig9DelayFlush,
		}[name]
		var res experiments.Fig9Result
		var dict *logpoint.Dictionary
		res, dict, err = experiments.Fig9(cfg, variant)
		out = res
		if err == nil && csvDir != "" {
			err = writeCSVs(csvDir, name, cfg, res.Throughput, res.Anomalies, dict)
		}
	case "fig10":
		var res experiments.Fig10Result
		var dict *logpoint.Dictionary
		res, dict, err = experiments.Fig10(cfg)
		out = res
		if err == nil && csvDir != "" {
			err = writeCSVs(csvDir, name, cfg, res.Throughput, res.Anomalies, dict)
		}
	case "fig11":
		out, err = experiments.Fig11(cfg)
	case "wirepath":
		// Not a paper artifact: this repo's own wire-path throughput
		// trajectory, gated in CI via `saad-bench compare`.
		out, err = experiments.Wirepath(cfg)
	case "fleet":
		// Not a paper artifact: the federated analyzer tier end to end —
		// ring routing, graceful leave with checkpoint handoff, and the
		// anomaly-union equivalence verdict against a single engine.
		out, err = experiments.Fleet(cfg)
	case "model":
		// Not a paper artifact: train on a fault-free Cassandra run and
		// print the learned per-stage signature tables for inspection.
		text, err = experiments.ModelSummary(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return err
	}
	var result any
	if out != nil {
		result = out
		fmt.Print(out.String())
		fmt.Printf("[%s completed in %v]\n", name, time.Since(started).Round(time.Millisecond))
	} else {
		result = text
		fmt.Print(text)
	}
	if jsonOut != "" {
		rec := benchRecord{
			Experiment: name,
			Seed:       cfg.Seed,
			ElapsedMS:  time.Since(started).Milliseconds(),
			Result:     result,
		}
		if err := writeJSONRecord(jsonOut, rec); err != nil {
			return fmt.Errorf("write -json record: %w", err)
		}
		// The saturation leg is its own gated series: the aggregate
		// multi-link rate can regress independently of the single-link one.
		if wr, ok := result.(experiments.WirepathResult); ok && wr.Saturation.Links > 0 {
			sat := benchRecord{
				Experiment: "wirepath-saturation",
				Seed:       cfg.Seed,
				ElapsedMS:  rec.ElapsedMS,
				Result:     wr.Saturation,
			}
			if err := writeJSONRecord(jsonOut, sat); err != nil {
				return fmt.Errorf("write -json record: %w", err)
			}
		}
	}
	return nil
}

// runScenarios runs the gray-failure taxonomy matrix and appends one JSON
// record per cell, so each cell is tracked as its own experiment.
func runScenarios(cfg experiments.Config, jsonOut string) error {
	started := time.Now()
	res, err := experiments.ScenarioMatrix(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Printf("[scenarios completed in %v]\n", time.Since(started).Round(time.Millisecond))
	if jsonOut == "" {
		return nil
	}
	elapsed := time.Since(started).Milliseconds()
	for _, cell := range res.Cells {
		rec := benchRecord{
			Experiment: "scenario:" + cell.Name,
			Seed:       cfg.Seed,
			ElapsedMS:  elapsed / int64(len(res.Cells)),
			Result:     cell,
		}
		if err := writeJSONRecord(jsonOut, rec); err != nil {
			return fmt.Errorf("write -json record: %w", err)
		}
	}
	return nil
}

// writeCSVs emits <dir>/<exp>-throughput.csv and <dir>/<exp>-anomalies.csv.
func writeCSVs(dir, exp string, cfg experiments.Config, throughput []int, anomalies []analyzer.Anomaly, dict *logpoint.Dictionary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, exp+"-throughput.csv"))
	if err != nil {
		return err
	}
	if err := report.SeriesCSV(tf, []string{"ops"}, throughput); err != nil {
		_ = tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	af, err := os.Create(filepath.Join(dir, exp+"-anomalies.csv"))
	if err != nil {
		return err
	}
	if err := report.AnomaliesCSV(af, anomalies, dict, experiments.Epoch, cfg.MinuteScale); err != nil {
		_ = af.Close()
		return err
	}
	return af.Close()
}
