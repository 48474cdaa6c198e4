// Command benchmark is this repository's benchmark: it generates a Cassandra
// trace from a seed, trains a model, and drives the real pipeline —
// tracker → stream client → loopback → stream server + pool → engine →
// detector, assembled only from the packages' public functions — on five
// named workloads, printing every metric by name with its unit and failing
// if an output is wrong. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md here explains them.
//
//	go run ./benchmark --workload wire-1link --seed 7 --seconds 12 --trace 0
//	go run ./benchmark -quick            # every workload, both modes, seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// w is where every figure is printed by name as it is reported.
	w io.Writer
}

func newResult(w io.Writer, v verdict) *result {
	r := &result{Correct: true, Metrics: make(map[string]metricValue), w: w}
	r.merge(v)
	return r
}

// merge folds one pipeline run's verdict into the result.
func (r *result) merge(v verdict) {
	r.Correct = r.Correct && v.correct()
	r.Attempted += v.offered
	r.Failed += v.failed
}

// problem fails the result for a reason outside a verdict.
func (r *result) problem(what string) {
	r.Correct = false
	fmt.Fprintf(r.w, "oracle: FAIL — %s\n", what)
}

// reporter is how a figure reaches the output: result.add or result.note.
type reporter func(name string, value float64, unit, note string)

// add records a metric and prints it by name with its unit.
func (r *result) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.problem(fmt.Sprintf("metric %s has no value (%v)", name, value))
		value = 0
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit}
	fmt.Fprintf(r.w, "%-36s %16.4f %-6s %s\n", name, value, unit, note)
}

// note prints a figure for the reader without reporting it as a metric.
func (r *result) note(name string, value float64, unit, note string) {
	fmt.Fprintf(r.w, "%-36s %16.4f %-6s (not reported) %s\n", name, value, unit, note)
}

// runOne runs one workload in one mode and prints its result line.
func runOne(s spec, o options, w io.Writer) (bool, error) {
	o.workload = s.name
	mode := endToEnd
	if o.trace {
		mode = perLayer
	}
	res, err := mode(s, o, w)
	if err != nil {
		return false, fmt.Errorf("%s: %w", s.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("%s: encode result: %w", s.name, err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}

// parse turns the command line into options; ok is false on a usage error.
func parse(args []string, stderr io.Writer) (o options, ok bool) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: one of BENCHMARK.json's, or all")
	fs.Uint64Var(&o.seed, "seed", 20141208, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 12, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (isolated legs and a traced run)")
	fs.BoolVar(&o.quick, "quick", false, "a three-minute lap, one lap per leg, one leg, one set-up; with -workload all, both modes of every workload")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the traced run's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return o, false
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: want --workload NAME --seed N --seconds S --trace 0|1")
		return o, false
	}
	o.trace = trace == 1
	return o, true
}

// barrierTimeout is how long a run waits for the engines to catch up before
// it fails.
const barrierTimeout = time.Minute

// execute runs what o asks for and returns the exit code: 0 only when every
// run finished and every output was correct.
func execute(o options, stdout, stderr io.Writer) int {
	if o.barrierTimeout == 0 {
		o.barrierTimeout = barrierTimeout
	}
	run := specs
	if o.workload != "all" {
		s, ok := findSpec(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		run = []spec{s}
	}
	modes := []bool{o.trace}
	if o.quick && o.workload == "all" {
		modes = []bool{false, true}
	}
	if o.quick {
		o.seconds = 0
	}
	ok := true
	for _, s := range run {
		if o.quick {
			s.lapsPerLeg = 1
		}
		for _, o.trace = range modes {
			correct, err := runOne(s, o, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			ok = ok && correct
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func main() {
	o, ok := parse(os.Args[1:], os.Stderr)
	if !ok {
		os.Exit(2)
	}
	os.Exit(execute(o, os.Stdout, os.Stderr))
}
