package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saad/internal/experiments"
)

func fastConfig() experiments.Config {
	return experiments.Config{
		MinuteScale: time.Second,
		Clients:     8,
		Think:       80 * time.Millisecond,
		Seed:        1,
		Runs:        1,
	}
}

func TestRunArgErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("no experiment accepted")
	}
	if err := run([]string{"fig6", "fig7"}); err == nil {
		t.Fatal("two experiments accepted")
	}
	if err := run([]string{"-scale", "1s", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-bogusflag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// The retired bench stack is gone from the dispatch, not just from "all".
	for _, args := range [][]string{
		{"wirepath"},
		{"fleet"},
		{"compare", "-baseline", "x", "-current", "y"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("retired subcommand accepted: %v", args)
		}
	}
}

// TestExperimentTable pins the one list: every name the usage text prints
// dispatches, "all" is the paper's eleven measured artifacts, and no name
// is listed twice.
func TestExperimentTable(t *testing.T) {
	var all []string
	seen := map[string]bool{}
	for _, name := range strings.Fields(usageNames()) {
		if seen[name] {
			t.Fatalf("%q listed twice", name)
		}
		seen[name] = true
		if name == "all" {
			continue
		}
		exp, ok := lookup(name)
		if !ok || exp.run == nil {
			t.Fatalf("usage lists %q but runOne does not dispatch it", name)
		}
		if exp.all {
			all = append(all, name)
		}
	}
	want := "fig6 fig7 fig8 sec533 table1 fig9a fig9b fig9c fig9d fig10 fig11"
	if got := strings.Join(all, " "); got != want {
		t.Fatalf("all runs %q, want %q", got, want)
	}
	for _, name := range []string{"table2", "table3", "scenarios", "model"} {
		if exp, ok := lookup(name); !ok || exp.all {
			t.Fatalf("%q: listed=%v, in all=%v; want listed and not in all", name, ok, exp.all)
		}
	}
}

func TestRunOneStaticTables(t *testing.T) {
	for _, name := range []string{"table2", "table3"} {
		if err := runOne(fastConfig(), name, "", ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunOneFig7Fast(t *testing.T) {
	if err := runOne(fastConfig(), "fig7", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneFig9CSV(t *testing.T) {
	dir := t.TempDir()
	if err := runOne(fastConfig(), "fig9c", dir, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9c-throughput.csv", "fig9c-anomalies.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunOneJSONRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.jsonl")
	// One structured-result experiment and one static table, appended to
	// the same file.
	if err := runOne(fastConfig(), "fig7", "", path); err != nil {
		t.Fatal(err)
	}
	if err := runOne(fastConfig(), "table2", "", path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("json records = %d, want 2", len(lines))
	}
	for i, want := range []string{"fig7", "table2"} {
		var rec struct {
			Experiment string          `json:"experiment"`
			Seed       uint64          `json:"seed"`
			ElapsedMS  int64           `json:"elapsed_ms"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Experiment != want {
			t.Fatalf("line %d experiment = %q, want %q", i, rec.Experiment, want)
		}
		if rec.Seed != fastConfig().Seed {
			t.Fatalf("line %d seed = %d", i, rec.Seed)
		}
		if len(rec.Result) == 0 || string(rec.Result) == "null" {
			t.Fatalf("line %d has no result payload", i)
		}
	}
}

func TestRunOneScenariosJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenarios.jsonl")
	if err := runOne(fastConfig(), "scenarios", "", path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 5 {
		t.Fatalf("json records = %d, want one per cell (>= 5)", len(lines))
	}
	classes := map[string]bool{}
	for i, line := range lines {
		var rec struct {
			Experiment string `json:"experiment"`
			Result     struct {
				Name  string `json:"name"`
				Class string `json:"class"`
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !strings.HasPrefix(rec.Experiment, "scenario:") ||
			rec.Experiment != "scenario:"+rec.Result.Name {
			t.Fatalf("line %d experiment = %q (cell %q)", i, rec.Experiment, rec.Result.Name)
		}
		classes[rec.Result.Class] = true
	}
	for _, want := range []string{"point", "contextual", "collective"} {
		if !classes[want] {
			t.Fatalf("no cell with taxonomy class %q (have %v)", want, classes)
		}
	}
}
