package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// waitForGoroutines waits for the goroutine count to fall back to base.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, %d before the run:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQuickRunMatchesDeclaration drives every workload in both modes through
// the command's own entry point and holds what it prints against
// BENCHMARK.json: every declared name is printed with its declared unit, and
// nothing else is.
func TestQuickRunMatchesDeclaration(t *testing.T) {
	decl := readDeclaration(t)
	before := runtime.NumGoroutine()
	o, ok := parse([]string{"-quick", "--seed", "7"}, os.Stderr)
	if !ok {
		t.Fatal("parse failed")
	}
	var stdout, stderr bytes.Buffer
	if code := execute(o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	waitForGoroutines(t, before)

	// Result lines come in the order they ran: per workload, --trace 0 then
	// --trace 1. Every other line is for the reader.
	var results []result
	headers := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "{"):
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		case strings.HasPrefix(line, "# machine:"):
			headers++
			for _, field := range []string{"cpu=", "nproc=", "gomaxprocs=", "go1", "commit="} {
				if !strings.Contains(line, field) {
					t.Errorf("run header %q lacks %s", line, field)
				}
			}
		}
	}
	if len(results) != 2*len(decl.Workloads) || headers != len(results) {
		t.Fatalf("%d result lines and %d run headers for %d workloads", len(results), headers, len(decl.Workloads))
	}

	if len(decl.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command has %d", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if i < len(specs) && (w.Name != specs[i].name || w.Why != specs[i].why) {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the command", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	endToEnd := make(map[string]string)
	hasSetUp := false
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
		hasSetUp = hasSetUp || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !hasSetUp {
		t.Error("BENCHMARK.json declares no setup_s in s, lower is better")
	}
	perLayer := make(map[string]string)
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
		if _, dup := endToEnd[m.Name]; dup {
			t.Errorf("%s is declared both end to end and per layer", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(endToEnd) != len(decl.EndToEnd) || len(perLayer) != len(decl.PerLayer) {
		t.Error("BENCHMARK.json uses a metric name twice")
	}

	for i, r := range results {
		workload, declared, mode := decl.Workloads[i/2].Name, endToEnd, "--trace 0"
		if i%2 == 1 {
			declared, mode = perLayer, "--trace 1"
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s %s: correct=%v attempted=%d failed=%d", workload, mode, r.Correct, r.Attempted, r.Failed)
		}
		for name, m := range r.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: metric %q with unit %q", workload, mode, name, m.Unit)
			}
			if unit, ok := declared[name]; !ok {
				t.Errorf("%s %s prints %s, which BENCHMARK.json does not declare", workload, mode, name)
			} else if unit != m.Unit {
				t.Errorf("%s %s prints %s in %s, BENCHMARK.json says %s", workload, mode, name, m.Unit, unit)
			}
			if i%2 == 0 && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; every one must be positive on every workload", workload, name, m.Value)
			}
		}
		for name := range declared {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("%s %s does not print %s, which BENCHMARK.json declares", workload, mode, name)
			}
		}
	}
}

// TestTraceOut reads a traced run's span file back: every span nests under a
// chunk root of its own trace, and inside each root the self times add up to
// the root's duration.
func TestTraceOut(t *testing.T) {
	for _, name := range []string{"wire-fanin", "embedded"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			before := runtime.NumGoroutine()
			o := options{workload: name, seed: testSeed, quick: true, trace: true, traceOut: path}
			var stdout, stderr bytes.Buffer
			if code := execute(o, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr.String())
			}
			waitForGoroutines(t, before)

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var spans []span
			byID := make(map[int64]span)
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				spans = append(spans, s)
				byID[s.ID] = s
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}

			counts := make(map[string]int)
			self := selfTimes(spans)
			inRoot := make(map[int64]int64) // chunk span id → self time nested inside it
			for _, s := range spans {
				counts[s.Name]++
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				switch s.Name {
				case "chunk":
					if s.Parent != 0 {
						t.Fatalf("chunk span %d has parent %d", s.ID, s.Parent)
					}
					inRoot[s.ID] += self[s.ID]
				case "emit":
					root := byID[s.Parent]
					if root.Name != "chunk" || root.Chunk != s.Chunk || s.Start < root.Start || s.End > root.End {
						t.Fatalf("emit span %+v is not inside its chunk %+v", s, root)
					}
					inRoot[root.ID] += self[s.ID]
				default:
					if p := byID[s.Parent]; p.Chunk != s.Chunk || p.End != s.Start {
						t.Fatalf("%s span %+v does not follow its parent %+v", s.Name, s, p)
					}
				}
			}
			for id, sum := range inRoot {
				if sum != byID[id].duration() {
					t.Fatalf("chunk %d lasts %d ns, the self times inside it add up to %d", id, byID[id].duration(), sum)
				}
			}
			want := []string{"chunk", "emit", "queue_detect"}
			if name != "embedded" {
				want = append(want, "wire", "route")
			}
			for _, n := range want {
				if counts[n] == 0 {
					t.Errorf("no %s span among %d", n, len(spans))
				}
			}
			if name == "embedded" && counts["wire"]+counts["route"] != 0 {
				t.Errorf("embedded has no wire, yet %d wire and %d route spans", counts["wire"], counts["route"])
			}
		})
	}
}
