package analyzertest

import (
	"math/rand"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// Epoch is where every corpus clock starts.
var Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Syn builds a synopsis in canonical form with one hit of each log point.
func Syn(stage logpoint.StageID, host uint16, start time.Time, dur time.Duration, pts ...logpoint.ID) *synopsis.Synopsis {
	s := &synopsis.Synopsis{Stage: stage, Host: host, Start: start, Duration: dur}
	for _, p := range pts {
		s.Points = append(s.Points, synopsis.PointCount{Point: p, Count: 1})
	}
	s.Normalize()
	return s
}

// Model is trained on a healthy stage-1 trace: signature {1,2,4,5} ~99.6%,
// the rare (flow-outlier) {1,2,3,4,5} ~0.4%, durations 9-11 ms.
func Model(tb testing.TB) *analyzer.Model {
	tb.Helper()
	rng := vtime.NewRNG(42)
	var trace []*synopsis.Synopsis
	for i := 0; i < 20000; i++ {
		pts := []logpoint.ID{1, 2, 4, 5}
		if i%250 == 0 {
			pts = []logpoint.ID{1, 2, 3, 4, 5}
		}
		dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
		trace = append(trace, Syn(1, 1, Epoch.Add(time.Duration(i)*time.Millisecond), dur, pts...))
	}
	return train(tb, trace)
}

// ModelB judges stage 1 unlike Model: its flows are {1,2,4,5} and {1,2,6}
// in equal shares at 35-45 ms, so Model's slow tasks are healthy under B and
// its rare flow is never-seen. It is the model a swap moves to.
func ModelB(tb testing.TB) *analyzer.Model {
	tb.Helper()
	rng := vtime.NewRNG(99)
	var trace []*synopsis.Synopsis
	for i := 0; i < 18000; i++ {
		pts := []logpoint.ID{1, 2, 4, 5}
		if i%2 == 0 {
			pts = []logpoint.ID{1, 2, 6}
		}
		dur := 35*time.Millisecond + time.Duration(rng.Intn(int(10*time.Millisecond)))
		trace = append(trace, Syn(1, 1, Epoch.Add(time.Duration(i)*time.Millisecond), dur, pts...))
	}
	return train(tb, trace)
}

func train(tb testing.TB, trace []*synopsis.Synopsis) *analyzer.Model {
	tb.Helper()
	model, err := analyzer.Train(analyzer.DefaultConfig(), trace)
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

// Stream draws one detection stream for Model from seed: up to 600
// synopses over three hosts and four stages (only stage 1 is trained) on a
// clock that advances up to two seconds a task, a quarter of them pushed
// back by up to four windows — reordered inside a window, or late. Five in
// eight take the common trained flow, one the rare one, two a random point
// set the model has most likely never seen (a few of those left out of
// canonical form); durations straddle the trained threshold; one in eight is
// delivered twice, as a replayed frame would. Times and durations stay on
// the wire codec's microsecond grid, so a stream crosses TCP unchanged.
//
// A stream spans at most 20 minutes, so no group closes more than about 25
// windows: far under HistoryDepth, no history folds, and an assembly that
// spreads a group's windows over several engines compares window by window.
func Stream(seed int64) []*synopsis.Synopsis {
	rng := rand.New(rand.NewSource(seed))
	return stream(rng, rng.Intn(600), 2*time.Second)
}

// LongStream draws a stream like Stream's, of 1,200 to 2,400 synopses on a
// clock ten times slower: over about five hours most groups close well over
// HistoryDepth windows, so their histories fold.
func LongStream(seed int64) []*synopsis.Synopsis {
	rng := rand.New(rand.NewSource(seed))
	return stream(rng, 1200+rng.Intn(1200), 20*time.Second)
}

// stream draws n synopses on a clock that advances up to step a task.
func stream(rng *rand.Rand, n int, step time.Duration) []*synopsis.Synopsis {
	var out []*synopsis.Synopsis
	clock := Epoch
	for i := 0; i < n; i++ {
		clock = clock.Add(time.Duration(rng.Intn(int(step/time.Millisecond))) * time.Millisecond)
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

// FromBytes decodes arbitrary bytes into a stream, six bytes a synopsis —
// stage, host, start (seconds, two bytes), duration (ms) and a log-point
// bitmap — up to 512 of them. Starts jump anywhere, so windows close, tasks
// arrive out of order and late.
func FromBytes(data []byte) []*synopsis.Synopsis {
	const rec = 6
	out := make([]*synopsis.Synopsis, 0, min(len(data)/rec, 512))
	for i := 0; i < cap(out); i++ {
		b := data[i*rec : (i+1)*rec]
		var pts []logpoint.ID
		for p := 0; p < 6; p++ {
			if b[5]&(1<<p) != 0 {
				pts = append(pts, logpoint.ID(p+1))
			}
		}
		start := Epoch.Add(time.Duration(uint16(b[2])<<8|uint16(b[3])) * time.Second)
		s := Syn(logpoint.StageID(b[0]%4+1), uint16(b[1]%8), start, time.Duration(b[4])*time.Millisecond, pts...)
		s.TaskID = uint64(i)
		out = append(out, s)
	}
	return out
}
