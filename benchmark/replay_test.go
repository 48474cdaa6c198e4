package main

import (
	"reflect"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

const testSeed = 20141208

// quickInputs sets up the short lap once per test that needs it.
func quickInputs(t *testing.T, faulted bool) *inputs {
	t.Helper()
	in, err := setUp(testSeed, quickMinutes, faulted, 0)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestLapShiftedReplay pins the replay rule: every lap is shifted by a whole
// number of windows, so an N-lap stream drops exactly N times the single
// lap's genuinely late records and closes the same windows every lap. (An
// unshifted repeat drops nearly half the stream as late.)
func TestLapShiftedReplay(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		in := quickInputs(t, faulted)
		if in.lap.span <= 0 || in.lap.span%minuteScale != 0 {
			t.Fatalf("lap span %v is not a whole number of %v windows", in.lap.span, minuteScale)
		}
		type window struct {
			host   uint16
			stage  uint16
			offset time.Duration
			tasks  int
		}
		perLap := func(laps int) (uint64, [][]window) {
			det := analyzer.NewDetector(in.model)
			det.SetRetainCopy(true)
			in.lap.shifted(laps, func(s *synopsis.Synopsis) { det.Feed(s) })
			det.Flush()
			out := make([][]window, laps)
			for _, w := range det.WindowHistory() {
				since := w.Window.Sub(epoch)
				lapIdx := int(since / in.lap.span)
				out[lapIdx] = append(out[lapIdx], window{w.Host, uint16(w.Stage), since % in.lap.span, w.Tasks})
			}
			return det.LateSynopses(), out
		}
		late1, one := perLap(1)
		const n = 4
		lateN, many := perLap(n)
		if lateN != n*late1 {
			t.Errorf("faulted=%v: %d laps dropped %d late synopses, want %d × %d", faulted, n, lateN, n, late1)
		}
		if late1*10 > uint64(len(in.lap.recs)) {
			t.Errorf("faulted=%v: a single lap drops %d of %d records as late", faulted, late1, len(in.lap.recs))
		}
		for lapIdx, ws := range many {
			if !sameWindows(ws, one[0]) {
				t.Errorf("faulted=%v: lap %d closed different windows than lap 0 (%d vs %d)", faulted, lapIdx, len(ws), len(one[0]))
			}
		}
	}
}

// sameWindows compares two laps' closed windows as multisets.
func sameWindows[W comparable](a, b []W) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[W]int, len(a))
	for _, w := range a {
		count[w]++
	}
	for _, w := range b {
		count[w]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestReplayMatchesShifted shows the generator, through the real tracker,
// emits exactly the stream the oracle's reference detector is fed.
func TestReplayMatchesShifted(t *testing.T) {
	in := quickInputs(t, false)
	var got []synopsis.Synopsis
	g := newGenerator(in.lap.recs, in.lap.span, tracker.SinkFunc(func(s *synopsis.Synopsis) {
		got = append(got, *s)
	}))
	g.replay(0, 1, 0)
	g.replay(1, 2, 0)

	var want []synopsis.Synopsis
	in.lap.shifted(2, func(s *synopsis.Synopsis) { want = append(want, *s) })
	if len(got) != len(want) || uint64(len(got)) != g.emitted() {
		t.Fatalf("replayed %d synopses (trackers say %d), shifted stream has %d", len(got), g.emitted(), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Stage != b.Stage || a.Host != b.Host || a.TaskID != b.TaskID || !a.Start.Equal(b.Start) ||
			a.Duration != b.Duration || !reflect.DeepEqual(a.Points, b.Points) {
			t.Fatalf("synopsis %d: tracker emitted %v at %v, shifted stream has %v at %v", i, &a, a.Start, &b, b.Start)
		}
		// What the wire carries must be what was emitted.
		if a.Start.UnixMicro()*1000 != a.Start.UnixNano() || a.Duration%time.Microsecond != 0 {
			t.Fatalf("synopsis %d is not on the wire's microsecond grid: start %v duration %v", i, a.Start, a.Duration)
		}
	}
	if chunks := len(g.chunkNs); chunks != 2*(len(in.lap.recs)/chunkTasks) {
		t.Errorf("timed %d full chunks over two laps of %d records", chunks, len(in.lap.recs))
	}
}
