package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"saad/internal/analyzer"
)

// testConfig returns a scaled-down configuration keeping tests fast while
// preserving per-window sample sizes adequate for the proportion tests.
func testConfig() Config {
	return Config{
		MinuteScale: 2 * time.Second,
		Clients:     24,
		Think:       60 * time.Millisecond,
		Seed:        4242,
		Runs:        2,
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 3 {
		t.Fatalf("systems = %d", len(res.Systems))
	}
	for _, s := range res.Systems {
		// Figure 6's finding: a small head of signatures covers 95% of
		// tasks (paper: 6/29, 12/72, 10/68 — about 15-25%).
		if s.Signatures < 10 {
			t.Errorf("%s: only %d signatures", s.Name, s.Signatures)
		}
		frac := float64(s.Covering95) / float64(s.Signatures)
		if frac > 0.55 {
			t.Errorf("%s: %d/%d signatures needed for 95%% — head not heavy",
				s.Name, s.Covering95, s.Signatures)
		}
		if s.Tasks < 1000 {
			t.Errorf("%s: only %d tasks", s.Name, s.Tasks)
		}
	}
	if !strings.Contains(res.String(), "95%") {
		t.Fatal("String() missing summary")
	}
}

func TestFig7OverheadInsignificant(t *testing.T) {
	res, err := Fig7(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 2 {
		t.Fatalf("systems = %d", len(res.Systems))
	}
	for _, s := range res.Systems {
		// The simulator charges the tracker no virtual time, matching the
		// paper's "practically zero overhead": completed ops must agree
		// within noise.
		n := s.Normalized()
		if n < 0.97 || n > 1.03 {
			t.Errorf("%s: normalized throughput %.3f, want ~1", s.Name, n)
		}
	}
}

func TestFig8VolumeReduction(t *testing.T) {
	res, err := Fig8(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 3 {
		t.Fatalf("systems = %d", len(res.Systems))
	}
	for _, s := range res.Systems {
		// The paper's reductions are 15x-900x; anything above 10x keeps
		// the claim's shape.
		if s.Factor() < 10 {
			t.Errorf("%s: reduction %.1fx, want >= 10x", s.Name, s.Factor())
		}
		if s.LogMessages <= s.Synopses {
			t.Errorf("%s: messages %d <= synopses %d", s.Name, s.LogMessages, s.Synopses)
		}
	}
}

func TestSec533MiningSlowerThanSAAD(t *testing.T) {
	res, err := Sec533(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The regex baseline must be dramatically slower than feeding synopses
	// (paper: 12 min on 8 cores vs real-time on 1).
	if res.SpeedupFactor < 5 {
		t.Errorf("speedup = %.1fx, want >= 5x", res.SpeedupFactor)
	}
	// SAAD must sustain well beyond the paper's 1500 synopses/s.
	if res.SynopsesPerSec < 1500 {
		t.Errorf("analyzer rate = %.0f synopses/s", res.SynopsesPerSec)
	}
}

func TestTable1FrozenFlow(t *testing.T) {
	res, err := Table1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AnomalousSignature.Len() != 1 {
		t.Fatalf("anomalous signature = %v", res.AnomalousSignature)
	}
	if res.NormalSignature.Len() < 3 {
		t.Fatalf("normal signature = %v", res.NormalSignature)
	}
	// Both flows must be well represented (the anomalous flow dominates the
	// fault windows; the normal frozen-then-proceed flow is a few percent
	// of healthy traffic).
	if res.NormalCount == 0 || res.AnomalousCount == 0 {
		t.Fatalf("counts: normal %d, anomalous %d", res.NormalCount, res.AnomalousCount)
	}
	out := res.String()
	for _, want := range []string{"frozen", "Normal", "Anomalous", "Applied mutation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig9ErrorWALShape(t *testing.T) {
	cfg := testConfig()
	res, dict, err := Fig9(cfg, Fig9ErrorWAL)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())

	// Flow anomalies in stage Table on host 4 (the frozen MemTable).
	if n := res.CountAnomalies(dict, "Table", 4, analyzer.FlowAnomaly); n == 0 {
		t.Error("no flow anomalies in Table(4)")
	}
	// Hinted-handoff flow anomalies in WorkerProcess on healthy hosts.
	healthyWorker := 0
	for _, h := range []uint16{1, 2, 3} {
		healthyWorker += res.CountAnomalies(dict, "WorkerProcess", h, analyzer.FlowAnomaly)
	}
	if healthyWorker == 0 {
		t.Error("no WorkerProcess flow anomalies on healthy hosts")
	}
	// Very few error log messages before the crash burst; crash near
	// minute 44 (30 + 14).
	if res.Host4CrashedMinute < 40 || res.Host4CrashedMinute > 50 {
		t.Errorf("crash minute = %d, want ~44", res.Host4CrashedMinute)
	}
	if res.ErrorLogCount < 12 {
		t.Errorf("error burst missing: %d messages", res.ErrorLogCount)
	}
	// Throughput must stay healthy before the crash: the error fault does
	// not slow the quorum path (the paper's key observation).
	pre := res.Throughput[25] // during no-fault gap
	mid := res.Throughput[35] // during high fault, pre-crash
	if pre == 0 || float64(mid) < 0.6*float64(pre) {
		t.Errorf("throughput dipped during error fault: m25=%d m35=%d", pre, mid)
	}
	// Detection must start with the fault, not before: quiet first 9 min.
	early := 0
	for _, a := range res.Anomalies {
		if a.Window.Before(cfg.Minute(9)) {
			early++
		}
	}
	if early > 3 {
		t.Errorf("%d anomalies before the first fault", early)
	}
}

func TestFig9DelayWALShape(t *testing.T) {
	cfg := testConfig()
	res, dict, err := Fig9(cfg, Fig9DelayWAL)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())

	// Performance anomalies in WorkerProcess and StorageProxy on host 4
	// during the high fault.
	if n := res.CountAnomalies(dict, "WorkerProcess", 4, analyzer.PerformanceAnomaly); n == 0 {
		t.Error("no perf anomalies in WorkerProcess(4)")
	}
	if n := res.CountAnomalies(dict, "StorageProxy", 4, analyzer.PerformanceAnomaly); n == 0 {
		t.Error("no perf anomalies in StorageProxy(4)")
	}
	// No crash under delay faults.
	if res.Host4CrashedMinute != -1 {
		t.Errorf("delay fault crashed host 4 at minute %d", res.Host4CrashedMinute)
	}
	// Throughput dips during the high-intensity window (closed loop).
	pre := res.Throughput[25]
	mid := res.Throughput[35]
	if pre > 0 && float64(mid) > 0.9*float64(pre) {
		t.Errorf("throughput did not dip under 100ms delays: m25=%d m35=%d", pre, mid)
	}
}

func TestFig9ErrorFlushShape(t *testing.T) {
	cfg := testConfig()
	res, dict, err := Fig9(cfg, Fig9ErrorFlush)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())
	if n := res.CountAnomalies(dict, "Memtable", 4, analyzer.FlowAnomaly); n == 0 {
		t.Error("no flow anomalies in Memtable(4)")
	}
	if res.Host4CrashedMinute != -1 {
		t.Error("flush-error fault crashed the node")
	}
}

func TestFig9DelayFlushShape(t *testing.T) {
	cfg := testConfig()
	res, dict, err := Fig9(cfg, Fig9DelayFlush)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())
	perf := res.CountAnomalies(dict, "CommitLog", 4, analyzer.PerformanceAnomaly) +
		res.CountAnomalies(dict, "WorkerProcess", 4, analyzer.PerformanceAnomaly)
	if perf == 0 {
		t.Error("no perf anomalies in CommitLog(4)/WorkerProcess(4)")
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := testConfig()
	res, dict, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())

	// RS3 crashes during or shortly after high-intensity fault 1 (56-64).
	if res.RS3CrashMinute < 56 || res.RS3CrashMinute > 80 {
		t.Errorf("RS3 crash minute = %d, want during/after high-1", res.RS3CrashMinute)
	}
	// RecoverBlocks flow anomalies on DataNode 3.
	if n := res.CountAnomalies(dict, "RecoverBlocks", 3, analyzer.FlowAnomaly); n == 0 {
		t.Error("no RecoverBlocks flow anomalies on DN3")
	}
	// The crash surge: anomalies during high-1 must dwarf the quiet
	// pre-fault window.
	quiet := res.CountAnomaliesBetween(cfg, 1, 8)
	surge := res.CountAnomaliesBetween(cfg, 56, 70)
	if surge < 3*quiet+5 {
		t.Errorf("no surge: quiet(1-8)=%d surge(56-70)=%d", quiet, surge)
	}
	// Major-compaction false positive near minute 150.
	cc := res.CountAnomalies(dict, "CompactionRequest", 0, analyzer.FlowAnomaly)
	if cc == 0 {
		t.Error("no major-compaction false positive in CompactionRequest")
	}
	// Medium fault slows gets: perf anomalies in Call during 28-44.
	callPerf := 0
	for _, a := range res.Anomalies {
		if a.Kind == analyzer.PerformanceAnomaly && dict.StageName(a.Stage) == "Call" &&
			!a.Window.Before(cfg.Minute(28)) && a.Window.Before(cfg.Minute(44)) {
			callPerf++
		}
	}
	if callPerf == 0 {
		t.Error("no Call perf anomalies during the medium fault")
	}
}

// TestFig10Deterministic: the figure is a function of its configuration.
// It was not while the crashed RegionServer's regions went to the survivors
// in map order (hbase.TestRecoveryCrashTraceIsDeterministic): one seed gave
// a different trace, and a different figure, nearly every run.
func TestFig10Deterministic(t *testing.T) {
	cfg := Config{MinuteScale: time.Second, Clients: 8, Think: 80 * time.Millisecond, Seed: 1, Runs: 1}
	first, _, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.RS3CrashMinute < 0 {
		t.Fatal("RegionServer 3 never crashed: the run does not reach the reassignment")
	}
	second, _, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of one configuration differ: %d and %d anomalies, RS3 crash at minute %d and %d",
			len(first.Anomalies), len(second.Anomalies), first.RS3CrashMinute, second.RS3CrashMinute)
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := testConfig()
	res, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Error faults: flow anomalies during >> before (paper: 10-60x).
	for _, name := range []string{"error-WAL-high", "error-MemTable-high"} {
		row := res.Row(name)
		if row.DuringFlow < 4*(row.BeforeFlow+1) {
			t.Errorf("%s: flow before=%.1f during=%.1f, want strong increase",
				name, row.BeforeFlow, row.DuringFlow)
		}
	}
	// delay-WAL-high: performance anomalies up substantially.
	row := res.Row("delay-WAL-high")
	if row.DuringPerf < 2*(row.BeforePerf+0.5) {
		t.Errorf("delay-WAL-high: perf before=%.1f during=%.1f", row.BeforePerf, row.DuringPerf)
	}
	// delay-WAL-low: the paper's bar stays flat; ours rises mildly (the
	// simulated duration distributions are tighter than the testbed's, a
	// documented deviation) but must stay an order of magnitude below
	// delay-WAL-high's effect and produce no flow anomalies.
	low, high := res.Row("delay-WAL-low"), res.Row("delay-WAL-high")
	if low.DuringPerf > high.DuringPerf/5 {
		t.Errorf("delay-WAL-low perf during=%.1f not far below delay-WAL-high's %.1f",
			low.DuringPerf, high.DuringPerf)
	}
	if low.DuringFlow > 1 {
		t.Errorf("delay-WAL-low flow during=%.1f, want ~0", low.DuringFlow)
	}
}

// TestFig11CleanWindowsAreIndependent: every (fault, repetition) of the
// false-positive analysis is its own run. Seeding by the fault name's length
// made three pairs of Table 3 faults (names of 13, 18 and 19 characters)
// replay the same clean window, so the totals counted 15 of 35 windows twice
// and each pair printed identical before-columns.
func TestFig11CleanWindowsAreIndependent(t *testing.T) {
	seen := map[uint64]string{}
	for i, f := range Table3Faults {
		for rep := 0; rep < 10; rep++ {
			// The cluster's seed and the generator's (one more).
			for _, seed := range []uint64{fig11Seed(i, rep), fig11Seed(i, rep) + 1} {
				if prev, dup := seen[seed]; dup {
					t.Fatalf("%s run %d reuses seed offset %d of %s", f.Name, rep, seed, prev)
				}
				seen[seed] = f.Name
			}
		}
	}

	res, err := Fig11(Config{MinuteScale: time.Second, Clients: 8, Think: 80 * time.Millisecond, Seed: 1, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, pair := range [][2]string{
		{"error-WAL-low", "delay-WAL-low"},
		{"error-WAL-high", "delay-WAL-high"},
		{"error-MemTable-low", "delay-MemTable-low"},
	} {
		a, b := res.Row(pair[0]), res.Row(pair[1])
		if a.BeforeFlow == b.BeforeFlow && a.BeforePerf == b.BeforePerf {
			same++
		}
	}
	if same == 3 {
		t.Fatalf("all three same-name-length pairs have identical clean windows:\n%s", res)
	}
}
