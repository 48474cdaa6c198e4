package analyzer

import (
	"sync/atomic"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// TestEngineReleaseAccounting proves the WithSynopsisRelease contract: the
// hook fires exactly once for every synopsis handed to Feed/FeedBatch,
// including synopses the detector drops as late — nothing leaks, nothing
// double-frees.
func TestEngineReleaseAccounting(t *testing.T) {
	model := trainedModel(t)
	var released atomic.Uint64
	eng := NewEngine(model, WithShards(4),
		WithSynopsisRelease(func(*synopsis.Synopsis) { released.Add(1) }))

	stream := multiGroupStream(3)
	fed := 0
	for i, s := range stream {
		if i%3 == 0 {
			eng.Feed(s)
			fed++
		} else if i%3 == 1 {
			eng.FeedBatch([]*synopsis.Synopsis{s})
			fed++
		} else {
			eng.FeedBatch([]*synopsis.Synopsis{s, makeSyn(s.Stage, s.Host, s.Start, s.Duration, 1, 2, 4, 5)})
			fed += 2
		}
	}
	eng.Drain()
	eng.Flush()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := released.Load(); got != uint64(fed) {
		t.Fatalf("release hook fired %d times for %d fed synopses", got, fed)
	}
}

// TestEngineReleaseWithPoolKeepsExamplesIntact is the clone-on-retain
// property: with a recycling pool as the release hook, anomaly examples must
// be deep copies — recycling (and rewriting) a released synopsis must not
// corrupt an already-emitted report.
func TestEngineReleaseWithPoolKeepsExamplesIntact(t *testing.T) {
	model := trainedModel(t)
	pool := synopsis.NewPool(64)
	var anomalies []Anomaly
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	eng := NewEngine(model, WithShards(2),
		WithSynopsisRelease(pool.Put),
		WithAnomalySink(func(out []Anomaly) {
			<-mu
			anomalies = append(anomalies, out...)
			mu <- struct{}{}
		}))

	// A burst of new-signature synopses (never trained) forces flow
	// anomalies whose examples retain the fed synopsis.
	ts := epoch
	for i := 0; i < 3000; i++ {
		var one [1]*synopsis.Synopsis
		pool.GetN(one[:])
		s := one[0]
		s.Stage, s.Host = 1, 1
		s.Start, s.Duration = ts, 9*time.Millisecond
		s.Points = append(s.Points[:0],
			synopsis.PointCount{Point: 1, Count: 1},
			synopsis.PointCount{Point: 2, Count: 1},
			synopsis.PointCount{Point: 4, Count: 1},
			synopsis.PointCount{Point: 5, Count: 1})
		if i%10 == 0 { // untrained flow: log point 9 never appears in training
			s.Points = append(s.Points, synopsis.PointCount{Point: 9, Count: 1})
		}
		s.Normalize()
		eng.Feed(s)
		ts = ts.Add(20 * time.Millisecond)
	}
	eng.Flush()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	<-mu
	defer func() { mu <- struct{}{} }()
	found := false
	for _, a := range anomalies {
		for _, ex := range a.Examples {
			found = true
			// Every retained example of this burst must still carry the
			// anomalous flow; a pooled-and-rewritten alias would have been
			// reset or overwritten by a later Get.
			hasNine := false
			for _, pc := range ex.Points {
				if pc.Point == logpoint.ID(9) {
					hasNine = true
				}
			}
			if a.NewSignature && !hasNine {
				t.Fatalf("anomaly example lost its defining log point after pooling: %+v", ex)
			}
		}
	}
	if !found {
		t.Fatal("expected at least one anomaly with retained examples")
	}
}
