package analyzer_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"saad/internal/analyzer"
	"saad/internal/analyzer/analyzertest"
	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// The equivalence proofs of the analyzer package are one table: every way
// this package assembles a verdict out of a stream — a detector, restored
// from a checkpoint or not, an engine fed per group or by batch, restarted,
// handing groups to another engine, swapping its model — is a row, and
// every row is held to analyzertest.Spec over the corpus streams, seed by
// seed. A row stops at its first failing seed and names it.
// Rows are grouped under the test that runs them (table is keyed by test
// name); FuzzAssemblies runs all of them on arbitrary bytes.

// testCase is one stream, the models that judge it, the seeded point at
// which a row cuts it to restart, hand off or swap, and what the spec
// decides over it on model a.
type testCase struct {
	a, b   *analyzer.Model
	stream []*synopsis.Synopsis
	cut    int
	want   analyzertest.Outcome
}

func newCase(a, b *analyzer.Model, stream []*synopsis.Synopsis, cut int) testCase {
	return testCase{a, b, stream, cut, analyzertest.Want(a, stream)}
}

// corpus is the cases of seeds 1 to n, each cut at a seeded point.
func corpus(t *testing.T, n int64) []testCase {
	a, b := analyzertest.Model(t), analyzertest.ModelB(t)
	cases := make([]testCase, n)
	for i := range cases {
		seed := int64(i) + 1
		stream := analyzertest.Stream(seed)
		cases[i] = newCase(a, b, stream, rand.New(rand.NewSource(seed)).Intn(len(stream)+1))
	}
	return cases
}

// row is one assembly: how it is driven over a case and — when it swaps
// models — what the spec wants of it instead of Want(a, stream). A test with
// one row runs it unnamed.
type row struct {
	name string
	run  func(tb testing.TB, c testCase) analyzertest.Outcome
	want func(c testCase) analyzertest.Outcome
}

func (r row) expect(c testCase) analyzertest.Outcome {
	if r.want != nil {
		return r.want(c)
	}
	return c.want
}

var table = map[string][]row{
	"TestDetectorRobustnessProperty":    {{"", detector, nil}},
	"TestCheckpointRestartEquivalence":  {{"", detectorRestart, nil}},
	"TestCheckpointIsNonDestructive":    {{"", detectorCheckpointed, nil}},
	"TestEngineAnomalySink":             {{"", engineSink, nil}},
	"TestEngineMatchesDetector":         {{"engine", engineFeed, nil}},
	"TestEngineFeedBatch":               {{"engine", engineBatch, nil}},
	"TestEngineCheckpointEquivalence":   {{"engine", engineRestart, nil}, {"detector", engineToDetector, nil}},
	"TestExportImportEquivalence":       {{"engine", engineHandoff, nil}},
	"TestEngineSwapModelEquivalence":    {{"engine", engineSwap, wantSwap}},
	"TestEngineSwapCheckpointRoundTrip": {{"engine", engineSwapRestart, wantSwap}, {"detector", engineSwapToDetector, wantSwap}},
}

// holdToSpec runs the rows the table keeps for the calling test over the
// cases, in seed order.
func holdToSpec(t *testing.T, cases []testCase) {
	rows := table[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("the table has no rows for %s", t.Name())
	}
	for _, r := range rows {
		run := func(t *testing.T) {
			for i, c := range cases {
				analyzertest.Check(t, fmt.Sprintf("seed %d", i+1), r.expect(c), r.run(t, c))
			}
		}
		if r.name == "" {
			run(t)
		} else {
			t.Run(r.name, run)
		}
	}
}

// TestDetectorRobustnessProperty holds Detector to the spec over a thousand
// streams — trained stages and not, several hosts, known, rare and unknown
// flows, non-canonical point lists, out-of-order and late starts, replayed
// duplicates — and checks on the spec what makes the comparison worth
// having: windows and late drops account for every task once, evidence never
// exceeds its tasks, and the streams reach every kind of verdict.
func TestDetectorRobustnessProperty(t *testing.T) {
	cases := corpus(t, 1000)
	var newSig, flow, perf, late int
	for i, c := range cases {
		seed, want := i+1, c.want
		total := int(want.Late)
		for _, w := range want.Windows {
			if w.Tasks <= 0 || w.FlowOutliers < 0 || w.PerfOutliers < 0 || w.FlowOutliers+w.PerfOutliers > w.Tasks {
				t.Fatalf("seed %d: window counts out of range: %+v", seed, w)
			}
			total += w.Tasks
		}
		if total != len(c.stream) {
			t.Fatalf("seed %d: windows and late drops account for %d of %d tasks", seed, total, len(c.stream))
		}
		for _, v := range want.Verdicts {
			if v.Outliers <= 0 || v.Outliers > v.Tasks {
				t.Fatalf("seed %d: anomaly evidence out of range: %+v", seed, v)
			}
			switch {
			case v.NewSignature:
				newSig++
			case v.Kind == analyzer.FlowAnomaly:
				flow++
			default:
				perf++
			}
		}
		late += int(want.Late)
	}
	if newSig == 0 || flow == 0 || perf == 0 || late == 0 {
		t.Fatalf("over all seeds: %d new-signature, %d proportion flow and %d performance anomalies, %d late drops; want some of each",
			newSig, flow, perf, late)
	}
	holdToSpec(t, cases)
}

func detector(_ testing.TB, c testCase) analyzertest.Outcome {
	d := analyzer.NewDetector(c.a)
	return observe(d, feed(d, c.stream))
}

// TestCheckpointRestartEquivalence: a detector checkpointed at the cut and
// restored in a fresh one decides what an uninterrupted run decides.
func TestCheckpointRestartEquivalence(t *testing.T) { holdToSpec(t, corpus(t, 300)) }

func detectorRestart(tb testing.TB, c testCase) analyzertest.Outcome {
	d := analyzer.NewDetector(c.a)
	out := feed(d, c.stream[:c.cut])
	d = restore(tb, d)
	return observe(d, append(out, feed(d, c.stream[c.cut:])...))
}

// TestCheckpointIsNonDestructive: writing a checkpoint takes nothing from
// the detector that keeps feeding.
func TestCheckpointIsNonDestructive(t *testing.T) { holdToSpec(t, corpus(t, 300)) }

func detectorCheckpointed(tb testing.TB, c testCase) analyzertest.Outcome {
	d := analyzer.NewDetector(c.a)
	out := feed(d, c.stream[:c.cut])
	restore(tb, d)
	return observe(d, append(out, feed(d, c.stream[c.cut:])...))
}

// TestEngineMatchesDetector: an engine whose (host, stage) groups are fed
// each from a goroutine of its own — per-group order kept, cross-group
// interleaving left to the scheduler — decides what the detector decides.
func TestEngineMatchesDetector(t *testing.T) { holdToSpec(t, corpus(t, 50)) }

func engineFeed(_ testing.TB, c testCase) analyzertest.Outcome {
	e := newEngine(c.a)
	defer e.Close()
	feedPerGroup(e, c.stream)
	return analyzertest.FlushEngines(nil, e)
}

// TestEngineFeedBatch: the stream fed in batches of varying size decides the
// same, and FeedBatch leaves each lent slice as it was.
func TestEngineFeedBatch(t *testing.T) { holdToSpec(t, corpus(t, 50)) }

func engineBatch(tb testing.TB, c testCase) analyzertest.Outcome {
	e := newEngine(c.a)
	defer e.Close()
	for rest := c.stream; len(rest) > 0; {
		batch := rest[:min(len(rest), 1+len(rest)%61)]
		lent := slices.Clone(batch)
		e.FeedBatch(lent)
		if !slices.Equal(lent, batch) {
			tb.Fatalf("FeedBatch changed the %d-record slice it was lent", len(lent))
		}
		rest = rest[len(batch):]
	}
	return analyzertest.FlushEngines(nil, e)
}

// TestEngineAnomalySink: with a sink the anomalies arrive there as windows
// close, and Drain and Flush return none.
func TestEngineAnomalySink(t *testing.T) { holdToSpec(t, corpus(t, 50)) }

func engineSink(tb testing.TB, c testCase) analyzertest.Outcome {
	var mu sync.Mutex
	var sunk []analyzer.Anomaly
	e := newEngine(c.a, analyzer.WithAnomalySink(func(batch []analyzer.Anomaly) {
		mu.Lock()
		sunk = append(sunk, batch...)
		mu.Unlock()
	}))
	defer e.Close()
	feedPerGroup(e, c.stream)
	if n, m := len(e.Drain()), len(e.Flush()); n+m != 0 {
		tb.Fatalf("with a sink, Drain returned %d anomalies and Flush %d", n, m)
	}
	mu.Lock()
	defer mu.Unlock()
	return analyzertest.Observe(sunk, e.WindowHistory(), e.LateSynopses())
}

// TestEngineCheckpointEquivalence: an engine checkpointed at the cut
// resumes, invisibly, on a fresh engine or on a detector — the engine writes
// the one checkpoint format.
func TestEngineCheckpointEquivalence(t *testing.T) { holdToSpec(t, corpus(t, 50)) }

func engineRestart(tb testing.TB, c testCase) analyzertest.Outcome {
	e := newEngine(c.a)
	defer e.Close()
	feedPerGroup(e, c.stream[:c.cut])
	r := analyzer.NewEngineFromDetector(restore(tb, e), analyzer.WithShardQueue(8))
	defer r.Close()
	feedPerGroup(r, c.stream[c.cut:])
	return analyzertest.FlushEngines(e.Drain(), r)
}

func engineToDetector(tb testing.TB, c testCase) analyzertest.Outcome {
	e := newEngine(c.a)
	defer e.Close()
	feedPerGroup(e, c.stream[:c.cut])
	d := restore(tb, e)
	return observe(d, append(e.Drain(), feed(d, c.stream[c.cut:])...))
}

// TestExportImportEquivalence: at the cut the odd hosts' groups move, open
// windows and all, to a second engine, which is fed their records from then
// on; the two engines together decide what one would.
func TestExportImportEquivalence(t *testing.T) { holdToSpec(t, corpus(t, 50)) }

func engineHandoff(tb testing.TB, c testCase) analyzertest.Outcome {
	from, to := newEngine(c.a), newEngine(c.a)
	defer from.Close()
	defer to.Close()
	feedPerGroup(from, c.stream[:c.cut])
	odd := func(host uint16, _ logpoint.StageID) bool { return host%2 == 1 }
	blob, n, err := from.ExportGroups(odd)
	if err != nil {
		tb.Fatal(err)
	}
	if in, dropped, err := to.ImportGroups(blob); err != nil || in != n || dropped != 0 {
		tb.Fatalf("%d groups exported; imported %d, dropped %d, err %v", n, in, dropped, err)
	}
	var stay, moved []*synopsis.Synopsis
	for _, s := range c.stream[c.cut:] {
		if odd(s.Host, s.Stage) {
			moved = append(moved, s)
		} else {
			stay = append(stay, s)
		}
	}
	feedPerGroup(from, stay)
	feedPerGroup(to, moved)
	return analyzertest.FlushEngines(nil, from, to)
}

// TestEngineSwapModelEquivalence: SwapModel at the cut judges every window
// open so far by the old model and everything after by the new one — the
// spec on model A over the prefix, flushed, then on model B.
func TestEngineSwapModelEquivalence(t *testing.T) {
	cases := corpus(t, 50)
	if !slices.ContainsFunc(cases, func(c testCase) bool { return !slices.Equal(wantSwap(c).Verdicts, c.want.Verdicts) }) {
		t.Fatal("models A and B judge every stream alike: the swap rows prove nothing")
	}
	holdToSpec(t, cases)
}

func wantSwap(c testCase) analyzertest.Outcome {
	spec := analyzertest.NewSpec(c.a)
	out := append(spec.Run(c.stream[:c.cut]), spec.Flush()...)
	spec.Model = c.b
	out = append(out, spec.Run(c.stream[c.cut:])...)
	return spec.Observe(append(out, spec.Flush()...))
}

func engineSwap(_ testing.TB, c testCase) analyzertest.Outcome {
	e := newEngine(c.a)
	defer e.Close()
	feedPerGroup(e, c.stream[:c.cut])
	early := e.SwapModel(c.b)
	feedPerGroup(e, c.stream[c.cut:])
	return analyzertest.FlushEngines(early, e)
}

// TestEngineSwapCheckpointRoundTrip: a checkpoint written after a swap
// carries the new model, and the engine or detector restored from it goes
// on where the swapped one stopped.
func TestEngineSwapCheckpointRoundTrip(t *testing.T) { holdToSpec(t, corpus(t, 50)) }

// swapThenCheckpoint feeds c up to its cut, swaps to model b, feeds on to
// mid and checkpoints; it returns the anomalies reported so far, the
// detector read back from the checkpoint and where the stream resumes.
func swapThenCheckpoint(tb testing.TB, c testCase) ([]analyzer.Anomaly, *analyzer.Detector, int) {
	mid := c.cut + (len(c.stream)-c.cut)/2
	e := newEngine(c.a)
	defer e.Close()
	feedPerGroup(e, c.stream[:c.cut])
	early := e.SwapModel(c.b)
	feedPerGroup(e, c.stream[c.cut:mid])
	d := restore(tb, e)
	return append(early, e.Drain()...), d, mid
}

func engineSwapRestart(tb testing.TB, c testCase) analyzertest.Outcome {
	early, d, mid := swapThenCheckpoint(tb, c)
	r := analyzer.NewEngineFromDetector(d, analyzer.WithShardQueue(8))
	defer r.Close()
	feedPerGroup(r, c.stream[mid:])
	return analyzertest.FlushEngines(early, r)
}

func engineSwapToDetector(tb testing.TB, c testCase) analyzertest.Outcome {
	early, d, mid := swapThenCheckpoint(tb, c)
	return observe(d, append(early, feed(d, c.stream[mid:])...))
}

// FuzzAssemblies runs every row of the table on a stream decoded from
// arbitrary bytes, cut where the fuzzer says.
func FuzzAssemblies(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 1, 0, 1, 10, 0b11011}, 8), uint16(4))
	f.Add([]byte{1, 2, 0, 1, 10, 0b11011, 1, 2, 0, 200, 12, 0b11111}, uint16(1)) // crosses a window
	f.Add([]byte{1, 3, 0, 100, 10, 0b11011, 1, 3, 0, 1, 10, 0b00011}, uint16(1)) // a late straggler
	a, b := analyzertest.Model(f), analyzertest.ModelB(f)
	var tests []string
	for test := range table {
		tests = append(tests, test)
	}
	slices.Sort(tests)
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		stream := analyzertest.FromBytes(data)
		c := newCase(a, b, stream, int(cut)%(len(stream)+1))
		for _, test := range tests {
			for _, r := range table[test] {
				analyzertest.Check(t, test+"/"+r.name, r.expect(c), r.run(t, c))
			}
		}
	})
}

// feed runs stream through d and returns what it reported, leaving the last
// windows open.
func feed(d *analyzer.Detector, stream []*synopsis.Synopsis) []analyzer.Anomaly {
	var out []analyzer.Anomaly
	for _, s := range stream {
		out = append(out, d.Feed(s)...)
	}
	return out
}

// observe flushes d and observes it, with the anomalies it reported before.
func observe(d *analyzer.Detector, earlier []analyzer.Anomaly) analyzertest.Outcome {
	return analyzertest.Observe(append(earlier, d.Flush()...), d.WindowHistory(), d.LateSynopses())
}

// checkpointer is a Detector or an Engine: they write one format.
type checkpointer interface {
	WriteCheckpoint(io.Writer) (int64, error)
}

// restore reads a detector back from the checkpoint from writes.
func restore(tb testing.TB, from checkpointer) *analyzer.Detector {
	var buf bytes.Buffer
	if _, err := from.WriteCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	d, err := analyzer.ReadCheckpoint(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// newEngine queues at most 8 messages, so feeders meet backpressure.
func newEngine(model *analyzer.Model, opts ...analyzer.EngineOption) *analyzer.Engine {
	return analyzer.NewEngine(model, append(opts, analyzer.WithShardQueue(8))...)
}

// feedPerGroup feeds each (host, stage) group's records in stream order
// from a goroutine of its own: the worst schedule an engine must accept.
func feedPerGroup(e *analyzer.Engine, stream []*synopsis.Synopsis) {
	groups := map[analyzer.GroupKey][]*synopsis.Synopsis{}
	for _, s := range stream {
		k := analyzer.GroupKey{Host: s.Host, Stage: s.Stage}
		groups[k] = append(groups[k], s)
	}
	var wg sync.WaitGroup
	for _, group := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range group {
				e.Feed(s)
			}
		}()
	}
	wg.Wait()
}
