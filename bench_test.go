// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact; see DESIGN.md's experiment index), plus
// micro-benchmarks of SAAD's hot paths and ablation benchmarks for the
// design choices the paper relies on.
//
// The figure benches report paper-shape metrics via b.ReportMetric
// alongside wall-clock time: who wins and by what factor, not absolute
// testbed numbers.
package saad_test

import (
	"strings"
	"testing"
	"time"

	"saad"
	"saad/internal/analyzer"
	"saad/internal/experiments"
	"saad/internal/logpoint"
	"saad/internal/stats"
	"saad/internal/synopsis"
	"saad/internal/tracker"
	"saad/internal/vtime"
	"saad/internal/workload"
)

// metricName makes a system name usable as a ReportMetric unit (no
// whitespace allowed).
func metricName(name string) string { return strings.ReplaceAll(name, " ", "") }

// benchConfig keeps figure benches to a few seconds each.
func benchConfig() experiments.Config {
	return experiments.Config{
		MinuteScale: 2 * time.Second,
		Clients:     24,
		Think:       60 * time.Millisecond,
		Seed:        20141208,
		Runs:        2,
	}
}

// --- One bench per table/figure -------------------------------------------

func BenchmarkFig6SignatureDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Systems {
			b.ReportMetric(float64(s.Covering95), metricName(s.Name)+"_sigs_for_95pct")
		}
	}
}

func BenchmarkFig7Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Systems {
			b.ReportMetric(s.Normalized(), metricName(s.Name)+"_normalized_throughput")
		}
	}
}

func BenchmarkFig8VolumeReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Systems {
			b.ReportMetric(s.Factor(), metricName(s.Name)+"_reduction_factor")
		}
	}
}

func BenchmarkSec533AnalyzerVsMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec533(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupFactor, "saad_speedup_over_mining")
		b.ReportMetric(res.SynopsesPerSec, "synopses/s")
	}
}

func BenchmarkTable1FrozenMemtable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AnomalousCount), "anomalous_flow_tasks")
	}
}

func BenchmarkFig9CassandraFaults(b *testing.B) {
	variants := []experiments.Fig9Variant{
		experiments.Fig9ErrorWAL, experiments.Fig9ErrorFlush,
		experiments.Fig9DelayWAL, experiments.Fig9DelayFlush,
	}
	for _, v := range variants {
		b.Run(string(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := experiments.Fig9(benchConfig(), v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FlowCount), "flow_anomalies")
				b.ReportMetric(float64(res.PerfCount), "perf_anomalies")
			}
		})
	}
}

func BenchmarkFig10HBaseHogs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.RS3CrashMinute), "rs3_crash_minute")
		b.ReportMetric(float64(res.FlowCount), "flow_anomalies")
	}
}

func BenchmarkFig11FalsePositives(b *testing.B) {
	cfg := benchConfig()
	cfg.Runs = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		high := res.Row("error-WAL-high")
		b.ReportMetric(high.DuringFlow, "errorWALhigh_during_flow")
		b.ReportMetric(high.BeforeFlow, "errorWALhigh_before_flow")
	}
}

// --- Hot-path micro-benchmarks ---------------------------------------------

func BenchmarkTrackerTaskLifecycle(b *testing.B) {
	tr := tracker.New(1, nil)
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := tr.Begin(3, now)
		task.Hit(1, now)
		task.Hit(2, now)
		task.Hit(2, now)
		task.Hit(5, now)
		task.End(now)
	}
}

func BenchmarkSynopsisCodecEncode(b *testing.B) {
	s := &synopsis.Synopsis{
		Stage: 12, Host: 3, TaskID: 12345,
		Start:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Duration: 18 * time.Millisecond,
		Points: []synopsis.PointCount{
			{Point: 11, Count: 1}, {Point: 12, Count: 25},
			{Point: 13, Count: 24}, {Point: 14, Count: 25}, {Point: 15, Count: 1},
		},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = synopsis.AppendRecord(buf[:0], s)
	}
	b.ReportMetric(float64(len(buf)), "bytes/record")
}

func BenchmarkSignatureCompute(b *testing.B) {
	ids := []logpoint.ID{45, 3, 17, 3, 88, 45, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = synopsis.Compute(ids)
	}
}

func BenchmarkDetectorFeed(b *testing.B) {
	// Model with one hot signature; measures the per-synopsis runtime cost
	// the paper bounds to hash-map operations and float compares.
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := vtime.NewRNG(1)
	var trace []*saad.Synopsis
	for i := 0; i < 50000; i++ {
		s := &synopsis.Synopsis{
			Stage: 1, Host: 1, TaskID: uint64(i),
			Start:    epoch.Add(time.Duration(i) * time.Millisecond),
			Duration: 10*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond))),
			Points:   []synopsis.PointCount{{Point: 1, Count: 1}, {Point: 2, Count: 1}},
		}
		s.Normalize()
		trace = append(trace, s)
	}
	model, err := saad.Train(saad.DefaultAnalyzerConfig(), trace)
	if err != nil {
		b.Fatal(err)
	}
	det := saad.NewDetector(model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Feed(trace[i%len(trace)])
	}
}

// engineBenchModel trains a model and builds a 16-host feed trace whose
// timestamps stay inside one detection window, so repeated replay never
// closes windows (steady-state hot-path cost, no flush spikes).
func engineBenchModel(tb testing.TB) (*saad.Model, []*saad.Synopsis) {
	tb.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := vtime.NewRNG(1)
	var trace []*synopsis.Synopsis
	for i := 0; i < 50000; i++ {
		s := &synopsis.Synopsis{
			Stage: 1, Host: 1, TaskID: uint64(i),
			Start:    epoch.Add(time.Duration(i) * time.Millisecond),
			Duration: 10*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond))),
			Points: []synopsis.PointCount{
				{Point: 1, Count: 1}, {Point: 2, Count: uint32(rng.Intn(20) + 1)},
				{Point: 3, Count: 1}, {Point: 4, Count: 1}, {Point: 5, Count: 1},
			},
		}
		s.Normalize()
		trace = append(trace, s)
	}
	model, err := saad.Train(saad.DefaultAnalyzerConfig(), trace)
	if err != nil {
		tb.Fatal(err)
	}
	// Feed trace: 16 hosts interleaved round-robin, spanning ~40s < the
	// 1-minute window.
	var feed []*synopsis.Synopsis
	for i := 0; i < 20000; i++ {
		s := &synopsis.Synopsis{
			Stage: 1, Host: uint16(i%16 + 1), TaskID: uint64(i),
			Start:    epoch.Add(time.Duration(i) * 2 * time.Millisecond),
			Duration: 10*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond))),
			Points: []synopsis.PointCount{
				{Point: 1, Count: 1}, {Point: 2, Count: uint32(rng.Intn(20) + 1)},
				{Point: 3, Count: 1}, {Point: 4, Count: 1}, {Point: 5, Count: 1},
			},
		}
		s.Normalize()
		feed = append(feed, s)
	}
	return model, feed
}

// BenchmarkEngineFeed measures engine synopsis throughput; compare against
// BenchmarkDetectorFeed for the in-line detector baseline. FeedBatch
// amortizes the channel hop, Drain is the consumption barrier so per-op
// time covers detection work, not just enqueueing.
func BenchmarkEngineFeed(b *testing.B) {
	model, feed := engineBenchModel(b)
	eng := saad.NewEngine(model)
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	fed := 0
	for fed < b.N {
		n := len(feed)
		if rest := b.N - fed; rest < n {
			n = rest
		}
		eng.FeedBatch(feed[:n])
		fed += n
	}
	eng.Drain()
}

func BenchmarkZipfianNext(b *testing.B) {
	z := workload.NewZipfianChooser(true)
	r := vtime.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(r, 100000)
	}
}

// --- Ablation benchmarks (DESIGN.md Section 5) ------------------------------

// syntheticTrace builds a trace with two flows and stable durations plus a
// drifting-duration flow, for the ablation comparisons.
func syntheticTrace(n int, seed uint64) []*synopsis.Synopsis {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := vtime.NewRNG(seed)
	var out []*synopsis.Synopsis
	for i := 0; i < n; i++ {
		pts := []synopsis.PointCount{{Point: 1, Count: 1}, {Point: 2, Count: uint32(rng.Intn(30) + 1)}, {Point: 4, Count: 1}}
		if i%200 == 0 {
			pts = append(pts, synopsis.PointCount{Point: 3, Count: 1})
		}
		dur := 10*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
		s := &synopsis.Synopsis{
			Stage: 1, Host: 1, TaskID: uint64(i),
			Start: epoch.Add(time.Duration(i) * 2 * time.Millisecond), Duration: dur, Points: pts,
		}
		s.Normalize()
		out = append(out, s)
	}
	return out
}

// BenchmarkAblationSignatureSetVsFrequency compares the paper's set
// signature against a frequency-annotated variant: the set keeps the model
// tiny (few signatures) while the frequency variant explodes
// combinatorially — the reason Section 3.3.1 uses the distinct set.
func BenchmarkAblationSignatureSetVsFrequency(b *testing.B) {
	trace := syntheticTrace(20000, 9)
	for i := 0; i < b.N; i++ {
		setSigs := make(map[synopsis.Signature]int)
		freqSigs := make(map[string]int)
		for _, s := range trace {
			setSigs[s.Signature()]++
			freqKey := make([]byte, 0, 8*len(s.Points))
			for _, pc := range s.Points {
				freqKey = append(freqKey, byte(pc.Point>>8), byte(pc.Point),
					byte(pc.Count>>24), byte(pc.Count>>16), byte(pc.Count>>8), byte(pc.Count))
			}
			freqSigs[string(freqKey)]++
		}
		b.ReportMetric(float64(len(setSigs)), "set_signatures")
		b.ReportMetric(float64(len(freqSigs)), "frequency_signatures")
	}
}

// BenchmarkAblationKFold compares the performance-false-positive count on a
// clean validation trace with and without the cross-validation discard of
// unstable signatures (Section 3.3.2).
func BenchmarkAblationKFold(b *testing.B) {
	// A drifting flow: durations shift mid-trace, so a global percentile
	// threshold misclassifies the tail.
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	build := func(seed uint64, n int) []*synopsis.Synopsis {
		rng := vtime.NewRNG(seed)
		var out []*synopsis.Synopsis
		for i := 0; i < n; i++ {
			dur := time.Millisecond + time.Duration(rng.Intn(int(time.Millisecond)))
			if i > 4*n/5 {
				dur = 40*time.Millisecond + time.Duration(rng.Intn(int(10*time.Millisecond)))
			}
			s := &synopsis.Synopsis{
				Stage: 1, Host: 1, TaskID: uint64(i),
				Start: epoch.Add(time.Duration(i) * 10 * time.Millisecond), Duration: dur,
				Points: []synopsis.PointCount{{Point: 1, Count: 1}},
			}
			s.Normalize()
			out = append(out, s)
		}
		return out
	}
	train := build(1, 20000)
	clean := build(2, 20000)
	for i := 0; i < b.N; i++ {
		countPerf := func(cfg analyzer.Config) int {
			model, err := analyzer.Train(cfg, train)
			if err != nil {
				b.Fatal(err)
			}
			det := analyzer.NewDetector(model)
			perf := 0
			for _, s := range clean {
				for _, a := range det.Feed(s) {
					if a.Kind == analyzer.PerformanceAnomaly {
						perf++
					}
				}
			}
			for _, a := range det.Flush() {
				if a.Kind == analyzer.PerformanceAnomaly {
					perf++
				}
			}
			return perf
		}
		with := analyzer.DefaultConfig()
		with.Window = time.Second
		without := with
		without.DiscardFactor = 1e9 // keeps every signature: CV disabled
		b.ReportMetric(float64(countPerf(with)), "perfFP_withKFold")
		b.ReportMetric(float64(countPerf(without)), "perfFP_withoutKFold")
	}
}

// BenchmarkAblationTestVsThreshold compares the proportion-test gate
// against naive any-outlier alerting on a clean trace: the test suppresses
// the constant trickle of per-window outliers that naive thresholding
// reports.
func BenchmarkAblationTestVsThreshold(b *testing.B) {
	train := syntheticTrace(30000, 5)
	clean := syntheticTrace(30000, 6)
	cfg := analyzer.DefaultConfig()
	cfg.Window = time.Second
	model, err := analyzer.Train(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		det := analyzer.NewDetector(model)
		tested := 0
		for _, s := range clean {
			tested += len(det.Feed(s))
		}
		tested += len(det.Flush())

		// Naive: every window containing >= 1 perf outlier alerts.
		det2 := analyzer.NewDetector(model)
		for _, s := range clean {
			det2.Feed(s)
		}
		det2.Flush()
		naive := 0
		for _, w := range det2.WindowHistory() {
			if w.PerfOutliers > 0 || w.FlowOutliers > 0 {
				naive++
			}
		}
		b.ReportMetric(float64(tested), "alerts_with_test")
		b.ReportMetric(float64(naive), "alerts_naive_threshold")
	}
}

// BenchmarkAblationCodec compares the varint binary codec against JSON for
// synopsis volume (the Figure 8 design dependency).
func BenchmarkAblationCodec(b *testing.B) {
	trace := syntheticTrace(1000, 11)
	for i := 0; i < b.N; i++ {
		var binBytes, jsonBytes int
		for _, s := range trace {
			binBytes += synopsis.EncodedSize(s)
			// JSON-equivalent volume: conservative field-wise estimate via
			// the String form (shorter than real JSON field names).
			jsonBytes += len(s.String()) + 40
		}
		b.ReportMetric(float64(binBytes)/float64(len(trace)), "binary_bytes/synopsis")
		b.ReportMetric(float64(jsonBytes)/float64(len(trace)), "json_bytes/synopsis")
	}
}

// BenchmarkStatsPercentile covers the training hot loop.
func BenchmarkStatsPercentile(b *testing.B) {
	rng := vtime.NewRNG(3)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Percentile(xs, 99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProportionZTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stats.ProportionZTest(30, 1000, 0.01, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindowSize compares detection windows: shorter windows
// detect faster but carry smaller populations (weaker tests); longer
// windows aggregate more evidence per test. The metric is the number of
// windows a sustained 30%-outlier fault needs before the first alarm,
// normalized to seconds of fault exposure.
func BenchmarkAblationWindowSize(b *testing.B) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := vtime.NewRNG(17)
	var train []*synopsis.Synopsis
	for i := 0; i < 60000; i++ {
		s := &synopsis.Synopsis{
			Stage: 1, Host: 1, TaskID: uint64(i),
			Start:    epoch.Add(time.Duration(i) * time.Millisecond),
			Duration: 10*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond))),
			Points:   []synopsis.PointCount{{Point: 1, Count: 1}, {Point: 2, Count: 1}},
		}
		s.Normalize()
		train = append(train, s)
	}
	for _, window := range []time.Duration{time.Second, 5 * time.Second, 30 * time.Second} {
		b.Run(window.String(), func(b *testing.B) {
			cfg := analyzer.DefaultConfig()
			cfg.Window = window
			model, err := analyzer.Train(cfg, train)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				det := analyzer.NewDetector(model)
				faultStart := epoch.Add(10 * time.Minute)
				rng2 := vtime.NewRNG(23)
				var firstAlarm time.Duration = -1
				for j := 0; j < 120000 && firstAlarm < 0; j++ {
					dur := 10*time.Millisecond + time.Duration(rng2.Intn(int(2*time.Millisecond)))
					if rng2.Bool(0.3) {
						dur = 40 * time.Millisecond
					}
					s := &synopsis.Synopsis{
						Stage: 1, Host: 1, TaskID: uint64(j),
						Start:    faultStart.Add(time.Duration(j) * time.Millisecond),
						Duration: dur,
						Points:   []synopsis.PointCount{{Point: 1, Count: 1}, {Point: 2, Count: 1}},
					}
					s.Normalize()
					for _, a := range det.Feed(s) {
						if a.Kind == analyzer.PerformanceAnomaly {
							firstAlarm = s.Start.Sub(faultStart)
							break
						}
					}
				}
				if firstAlarm < 0 {
					b.Fatal("fault never detected")
				}
				b.ReportMetric(firstAlarm.Seconds(), "s_to_first_alarm")
			}
		})
	}
}
