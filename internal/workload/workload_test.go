package workload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"saad/internal/vtime"
)

var errSentinel = errors.New("op failed")

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestOpTypeStringsAndIsWrite(t *testing.T) {
	if OpRead.String() != "read" || OpUpdate.String() != "update" ||
		OpInsert.String() != "insert" || OpScan.String() != "scan" {
		t.Fatal("op strings wrong")
	}
	if !strings.Contains(OpType(9).String(), "OpType") {
		t.Fatal("unknown op string wrong")
	}
	if OpRead.IsWrite() || OpScan.IsWrite() || !OpUpdate.IsWrite() || !OpInsert.IsWrite() {
		t.Fatal("IsWrite wrong")
	}
}

func TestZipfianSkew(t *testing.T) {
	r := vtime.NewRNG(2)
	z := NewZipfianChooser(false)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := z.Next(r, n)
		if v < 0 || v >= n {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must dominate, and the head must be heavy: YCSB zipfian 0.99
	// gives item 0 roughly 7-8% of the mass for n=1000.
	if counts[0] < 40000/10 {
		t.Fatalf("head count = %d, not zipfian", counts[0])
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("not monotone: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	tail := 0
	for _, c := range counts[n/2:] {
		tail += c
	}
	if tail > 20000 {
		t.Fatalf("tail mass = %d, distribution too flat", tail)
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	r := vtime.NewRNG(3)
	z := NewZipfianChooser(true)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		counts[z.Next(r, n)]++
	}
	// Still skewed: some item has far more than average...
	max, maxIdx := 0, 0
	for i, c := range counts {
		if c > max {
			max, maxIdx = c, i
		}
	}
	if max < 3000 {
		t.Fatalf("max count = %d, scrambling destroyed skew", max)
	}
	// ...but the hottest item need not be item 0.
	_ = maxIdx
}

func TestZipfianAdaptsToN(t *testing.T) {
	r := vtime.NewRNG(4)
	z := NewZipfianChooser(false)
	if v := z.Next(r, 10); v < 0 || v >= 10 {
		t.Fatalf("n=10: %d", v)
	}
	if v := z.Next(r, 100000); v < 0 || v >= 100000 {
		t.Fatalf("n=100000: %d", v)
	}
	if v := z.Next(r, 0); v != 0 {
		t.Fatalf("n=0: %d", v)
	}
}

// Growing n by one at random points (what a run's inserts do) must leave
// the chooser's running ζ exactly the from-scratch sum — equal as floats,
// not within a tolerance, or traces would drift — and every other cached
// constant with it; a smaller n must start the sum over.
func TestZipfianIncrementalZetaIsExact(t *testing.T) {
	r := vtime.NewRNG(5)
	z := NewZipfianChooser(true)
	n, checked := 2000, 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.1) {
			n++
		}
		if i == 5000 {
			n = 1500
		}
		z.Next(r, n)
		if n == checked {
			continue // prepare had nothing to do
		}
		checked = n
		if want := zeta(n, z.theta); z.zetaN != want {
			t.Fatalf("call %d, n=%d: zetaN = %v, zeta from scratch = %v", i, n, z.zetaN, want)
		}
		if i%100 == 0 || i == 5000 {
			fresh := ZipfianChooser{theta: z.theta, Scramble: true}
			fresh.prepare(n)
			if *z != fresh {
				t.Fatalf("call %d, n=%d: incremental state %+v, from scratch %+v", i, n, *z, fresh)
			}
		}
	}
}

// One insert in ten, the paper's mix: the cost of Next must not grow with
// the keyspace (it did, quadratically over a run, while every insert
// re-summed ζ from 1).
func BenchmarkGeneratorNextWithInserts(b *testing.B) {
	g := NewGenerator(Config{Records: 2000, Seed: 1, Mix: WriteHeavy()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opSink = g.Next()
	}
}

var opSink Op

func TestGeneratorMix(t *testing.T) {
	g := NewGenerator(Config{Records: 1000, Seed: 6, Mix: WriteHeavy()})
	var reads, updates, inserts, scans int
	for i := 0; i < 10000; i++ {
		op := g.Next()
		switch op.Type {
		case OpRead:
			reads++
		case OpUpdate:
			updates++
			if len(op.Value) == 0 {
				t.Fatal("update without value")
			}
		case OpInsert:
			inserts++
		case OpScan:
			scans++
		}
		if op.Key == "" {
			t.Fatal("empty key")
		}
	}
	if updates < 7500 || updates > 8500 {
		t.Fatalf("updates = %d, want ~8000", updates)
	}
	if reads < 700 || reads > 1300 {
		t.Fatalf("reads = %d, want ~1000", reads)
	}
	if scans != 0 {
		t.Fatalf("scans = %d in WriteHeavy", scans)
	}
	if g.records != 1000+inserts {
		t.Fatalf("records = %d after %d inserts", g.records, inserts)
	}
}

func TestGeneratorScan(t *testing.T) {
	g := NewGenerator(Config{Records: 100, Seed: 7, Mix: Mix{Scan: 1}, MaxScanLen: 10})
	for i := 0; i < 100; i++ {
		op := g.Next()
		if op.Type != OpScan {
			t.Fatalf("op = %v", op.Type)
		}
		if op.ScanLen < 1 || op.ScanLen > 10 {
			t.Fatalf("scan len = %d", op.ScanLen)
		}
	}
}

func TestGeneratorDefaults(t *testing.T) {
	g := NewGenerator(Config{Seed: 1})
	op := g.Next()
	if op.Key == "" {
		t.Fatal("default generator broken")
	}
	if g.records < 1000 {
		t.Fatalf("default records = %d", g.records)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Config{Records: 500, Seed: 11})
	b := NewGenerator(Config{Records: 500, Seed: 11})
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x.Type != y.Type || x.Key != y.Key {
			t.Fatalf("generators diverged at %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestKeyFormat(t *testing.T) {
	if Key(42) != "user42" {
		t.Fatalf("Key = %q", Key(42))
	}
}

func TestClientPoolClosedLoop(t *testing.T) {
	p := NewClientPool(3, epoch, 10*time.Millisecond)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	id1, at1 := p.Acquire()
	if !at1.Equal(epoch) {
		t.Fatalf("first acquire at %v", at1)
	}
	id2, _ := p.Acquire()
	id3, _ := p.Acquire()
	if id1 == id2 || id2 == id3 || id1 == id3 {
		t.Fatal("duplicate client ids")
	}
	if p.Len() != 0 {
		t.Fatalf("Len after 3 acquires = %d", p.Len())
	}
	// Client 1 finishes quickly, client 2 slowly.
	p.Release(id1, epoch.Add(5*time.Millisecond))
	p.Release(id2, epoch.Add(100*time.Millisecond))
	p.Release(id3, epoch.Add(200*time.Millisecond))
	gotID, gotAt := p.Acquire()
	if gotID != id1 {
		t.Fatalf("next client = %d, want fastest %d", gotID, id1)
	}
	if !gotAt.Equal(epoch.Add(15 * time.Millisecond)) { // 5ms done + 10ms think
		t.Fatalf("next at %v", gotAt)
	}
}

// TestClientPoolRun: Run is the closed loop — clients issue in free-time
// order, op is never called for an issue time past end, and a client released
// at done comes back at done + think.
func TestClientPoolRun(t *testing.T) {
	const think = 10 * time.Millisecond
	end := epoch.Add(time.Second)
	// Client 0 is fast, client 1 slow: every issue is logged and checked.
	service := []time.Duration{5 * time.Millisecond, 70 * time.Millisecond}
	next := []time.Time{epoch, epoch}
	last := epoch
	issues := make([]int, 2)
	NewClientPool(2, epoch, think).Run(end, func(id int, at time.Time) time.Time {
		if at.Before(last) {
			t.Fatalf("client %d issued at %v, before the previous issue %v", id, at, last)
		}
		if at.After(end) {
			t.Fatalf("client %d issued at %v, past end %v", id, at, end)
		}
		if !at.Equal(next[id]) {
			t.Fatalf("client %d issued at %v, want done + think = %v", id, at, next[id])
		}
		last = at
		issues[id]++
		done := at.Add(service[id])
		next[id] = done.Add(think)
		return done
	})
	// 1 s / (service + think), plus the issue at the epoch.
	if issues[0] != 67 || issues[1] != 13 {
		t.Fatalf("issues = %v, want [67 13]", issues)
	}
}

func TestClientPoolThroughputRespondsToLatency(t *testing.T) {
	// With closed-loop clients, doubling service time roughly halves
	// completions in a fixed horizon.
	run := func(service time.Duration) int {
		completions := 0
		NewClientPool(10, epoch, 0).Run(epoch.Add(time.Second), func(_ int, at time.Time) time.Time {
			completions++
			return at.Add(service)
		})
		return completions
	}
	fast := run(time.Millisecond)
	slow := run(2 * time.Millisecond)
	ratio := float64(fast) / float64(slow)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("throughput ratio = %v, want ~2", ratio)
	}
}

func TestRetryPolicy(t *testing.T) {
	var none RetryPolicy
	if none.ShouldRetry(1, errSentinel, time.Second) {
		t.Fatal("zero policy retried")
	}
	p := RetryPolicy{Max: 2, LatencyThreshold: 100 * time.Millisecond}
	if !p.ShouldRetry(1, errSentinel, 0) {
		t.Fatal("no retry on error")
	}
	if !p.ShouldRetry(2, errSentinel, 0) {
		t.Fatal("no retry on last budgeted attempt")
	}
	if p.ShouldRetry(3, errSentinel, 0) {
		t.Fatal("retried past Max")
	}
	if !p.ShouldRetry(1, nil, 150*time.Millisecond) {
		t.Fatal("no retry on slow success")
	}
	if p.ShouldRetry(1, nil, 50*time.Millisecond) {
		t.Fatal("retried a fast success")
	}
	errOnly := RetryPolicy{Max: 1}
	if errOnly.ShouldRetry(1, nil, time.Hour) {
		t.Fatal("latency retry without threshold")
	}
}
