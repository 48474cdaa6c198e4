package analyzer

import (
	"testing"
	"time"

	"saad/internal/synopsis"
	"saad/internal/trace"
)

// engineTraceBenchStream builds a reusable healthy stream, optionally with
// spans attached to every synopsis.
func engineTraceBenchStream(n int, traced bool) []*synopsis.Synopsis {
	ts := epoch
	out := make([]*synopsis.Synopsis, 0, n)
	for i := 0; i < n; i++ {
		s := makeSyn(1, 1, ts, 10*time.Millisecond, 1, 2, 4, 5)
		if traced {
			now := time.Now().UnixNano()
			s.Trace = &trace.Span{Stage: 1, Host: 1, TaskID: s.TaskID, Emit: now - 2, Send: now - 1, Recv: now}
		}
		ts = ts.Add(30 * time.Millisecond)
		out = append(out, s)
	}
	return out
}

func benchEngineFeed(b *testing.B, eng *Engine, feed []*synopsis.Synopsis) {
	b.Helper()
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

// BenchmarkEngineFeedTracerOff: tracer attached, no synopsis sampled. The
// trace touch points must stay nil-pointer checks — zero allocations, same
// as an engine without a tracer.
func BenchmarkEngineFeedTracerOff(b *testing.B) {
	eng := NewEngine(trainedModel(b),
		WithEngineTracer(trace.New(trace.Config{SampleEvery: 1})))
	defer eng.Close()
	benchEngineFeed(b, eng, engineTraceBenchStream(4096, false))
}

// BenchmarkEngineFeedTraced: every synopsis carries a span — the
// per-sampled-synopsis cost of stamping, flight recording, span retention
// and the latency histogram.
func BenchmarkEngineFeedTraced(b *testing.B) {
	eng := NewEngine(trainedModel(b),
		WithEngineTracer(trace.New(trace.Config{SampleEvery: 1})))
	defer eng.Close()
	benchEngineFeed(b, eng, engineTraceBenchStream(4096, true))
}
