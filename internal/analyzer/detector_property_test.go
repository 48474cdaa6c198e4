package analyzer

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// randomStream draws one detection stream for trainedModel from seed: up to
// 600 synopses over three hosts and four stages (only stage 1 is trained) on
// a clock that advances up to two seconds a task, a quarter of them pushed
// back by up to four windows — reordered inside a window, or late. Five in
// eight take the common trained flow, one the rare one, two a random point
// set the model has most likely never seen (a few of those left out of
// canonical form); durations straddle the trained threshold; one in eight is
// delivered twice, as a replayed frame would.
func randomStream(seed int64) []*synopsis.Synopsis {
	rng := rand.New(rand.NewSource(seed))
	var out []*synopsis.Synopsis
	clock := epoch
	for i, n := 0, rng.Intn(600); i < n; i++ {
		clock = clock.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		s := &synopsis.Synopsis{
			Stage:    1,
			Host:     uint16(rng.Intn(3)),
			TaskID:   uint64(i),
			Start:    clock,
			Duration: time.Duration(rng.Intn(20000)) * time.Microsecond,
		}
		if rng.Intn(2) == 0 {
			s.Stage = logpoint.StageID(2 + rng.Intn(3))
		}
		if rng.Intn(4) == 0 {
			s.Start = clock.Add(-time.Duration(rng.Intn(240)) * time.Second)
		}
		pts := []logpoint.ID{1, 2, 4, 5}
		switch flow := rng.Intn(8); {
		case flow == 5:
			pts = []logpoint.ID{1, 2, 3, 4, 5}
		case flow > 5:
			pts = pts[:0]
			for j, m := 0, rng.Intn(6); j < m; j++ {
				pts = append(pts, logpoint.ID(1+rng.Intn(8)))
			}
		}
		for _, p := range pts {
			s.Points = append(s.Points, synopsis.PointCount{Point: p, Count: 1})
		}
		if rng.Intn(64) != 0 {
			s.Normalize()
		}
		out = append(out, s)
		if rng.Intn(8) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// verdicts renders anomalies as a sorted multiset of what was decided — not
// in which order, nor with which examples.
func verdicts(anomalies []Anomaly) []string {
	out := make([]string, len(anomalies))
	for i, a := range anomalies {
		out[i] = fmt.Sprintf("%v new=%v host=%d stage=%d window=%d sig=%v outliers=%d/%d test=%+v",
			a.Kind, a.NewSignature, a.Host, a.Stage, a.Window.Unix(), a.Signature, a.Outliers, a.Tasks, a.Test)
	}
	slices.Sort(out)
	return out
}

// TestDetectorRobustnessProperty feeds the detector a thousand seeded random
// streams (stages trained and not, several hosts, known, rare and unknown
// flows, out-of-order and late timestamps, duplicates) and checks it against
// the executable specification: the same verdicts, the same window history,
// the same late count as specDetector. A divergence is a Detector bug; the
// message names the seed that replays it. It also checks the structural
// invariants: window statistics plus the late-drop count account for every
// task exactly once, and anomaly counts never exceed task counts.
func TestDetectorRobustnessProperty(t *testing.T) {
	model := trainedModel(t)
	var flow, perf, late int
	for seed := int64(1); seed <= 1000; seed++ {
		stream := randomStream(seed)
		det, spec := NewDetector(model), newSpecDetector(model)
		var got, want []Anomaly
		for _, s := range stream {
			got = append(got, det.Feed(s)...)
			want = append(want, spec.feed(s)...)
		}
		got = append(got, det.Flush()...)
		want = append(want, spec.flush()...)
		if g, w := verdicts(got), verdicts(want); !slices.Equal(g, w) {
			t.Fatalf("seed %d: verdicts differ from the specification's:\ndetector: %q\nspec:     %q", seed, g, w)
		}
		if !reflect.DeepEqual(det.WindowHistory(), spec.hist) {
			t.Fatalf("seed %d: window history differs from the specification's:\ndetector: %+v\nspec:     %+v", seed, det.WindowHistory(), spec.hist)
		}
		if det.LateSynopses() != spec.late {
			t.Fatalf("seed %d: %d late, the specification says %d", seed, det.LateSynopses(), spec.late)
		}

		// Window stats plus dropped late arrivals must account for every
		// fed task exactly once.
		total := int(det.LateSynopses())
		for _, w := range det.WindowHistory() {
			if w.Tasks < 0 || w.FlowOutliers < 0 || w.PerfOutliers < 0 || w.FlowOutliers > w.Tasks || w.PerfOutliers > w.Tasks {
				t.Fatalf("seed %d: window counts out of range: %+v", seed, w)
			}
			total += w.Tasks
		}
		if total != len(stream) {
			t.Fatalf("seed %d: windows and late drops account for %d of %d tasks", seed, total, len(stream))
		}
		// Anomaly evidence is bounded by its window's tasks.
		for _, a := range got {
			if a.Outliers < 0 || a.Tasks <= 0 || a.Outliers > a.Tasks {
				t.Fatalf("seed %d: anomaly evidence out of range: %+v", seed, a)
			}
			switch {
			case a.Kind == PerformanceAnomaly:
				perf++
			case !a.NewSignature:
				flow++
			}
		}
		late += int(spec.late)
	}
	// The comparison is worth what the streams reach: every kind of verdict.
	if flow == 0 || perf == 0 || late == 0 {
		t.Fatalf("over all seeds: %d proportion flow anomalies, %d performance anomalies, %d late drops; want some of each", flow, perf, late)
	}
}

// TestTrainerRobustnessProperty trains on arbitrary synopsis multisets and
// checks model invariants: shares sum to 1 per stage, flow-outlier share in
// [0, 1], thresholds non-negative.
func TestTrainerRobustnessProperty(t *testing.T) {
	f := func(raw []struct {
		Stage uint8
		DurUs uint32
		Pts   []uint8
	}) bool {
		if len(raw) == 0 {
			return true
		}
		tr, err := NewTrainer(DefaultConfig())
		if err != nil {
			return false
		}
		for i, r := range raw {
			s := &synopsis.Synopsis{
				Stage:    logpoint.StageID(r.Stage%3 + 1),
				TaskID:   uint64(i),
				Start:    epoch,
				Duration: time.Duration(r.DurUs) * time.Microsecond,
			}
			for _, p := range r.Pts {
				s.Points = append(s.Points, synopsis.PointCount{Point: logpoint.ID(p%6 + 1), Count: 1})
			}
			s.Normalize()
			tr.Add(s)
		}
		model, err := tr.Train()
		if err != nil {
			return false
		}
		for _, sm := range model.Stages {
			if sm.FlowOutlierShare < 0 || sm.FlowOutlierShare > 1 {
				return false
			}
			var shares float64
			count := 0
			for _, sig := range sm.Signatures {
				if sig.Share < 0 || sig.Share > 1 || sig.DurationThreshold < 0 {
					return false
				}
				shares += sig.Share
				count += sig.Count
			}
			if count != sm.Total {
				return false
			}
			if shares < 0.999 || shares > 1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
