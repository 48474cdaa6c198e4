package tracker

import (
	"testing"
	"time"

	"saad/internal/synopsis"
	"saad/internal/trace"
)

// benchLifecycle runs one full task through the tracker.
func benchLifecycle(tr *Tracker, now time.Time) {
	task := tr.Begin(3, now)
	task.Hit(1, now)
	task.Hit(2, now)
	task.End(now)
}

// BenchmarkTaskLifecycleSamplerOff: a sampler is attached but effectively
// never fires — the added cost over no sampler at all must be one counter
// increment, with zero extra allocations (1 alloc/op: the record block).
func BenchmarkTaskLifecycleSamplerOff(b *testing.B) {
	tr := New(1, SinkFunc(func(*synopsis.Synopsis) {}))
	tr.SetSampler(trace.NewSampler(1 << 30))
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLifecycle(tr, now)
	}
}

// BenchmarkTaskLifecycleSampled: every task is sampled, paying one span
// allocation and one wall-clock read per End — the worst case an operator
// can configure (-trace-sample=1): 1→2 allocs/op.
func BenchmarkTaskLifecycleSampled(b *testing.B) {
	tr := New(1, SinkFunc(func(*synopsis.Synopsis) {}))
	tr.SetSampler(trace.NewSampler(1))
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLifecycle(tr, now)
	}
}
