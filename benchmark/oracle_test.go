package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// referenceTotals are the totals a faultless pipeline would report for laps
// laps of in's stream.
func referenceTotals(in *inputs, laps int) (uint64, totals) {
	anomalies, late := reference(in, laps)
	offered := uint64(laps * len(in.lap.recs))
	return offered, totals{fed: offered, late: late, observed: offered - late, anomalies: anomalies}
}

func TestCheck(t *testing.T) {
	in := quickInputs(t, true)
	const laps = 2
	offered, good := referenceTotals(in, laps)
	if len(good.anomalies) == 0 || good.late == 0 {
		t.Fatalf("the faulted lap yields %d anomalies and %d late records; the oracle needs both to bite", len(good.anomalies), good.late)
	}
	if v := check(in, laps, offered, good); !v.correct() || v.failed != 0 {
		t.Fatalf("reference totals fail their own check: %v", v.problems)
	}

	tests := []struct {
		name   string
		break_ func(*totals)
		failed uint64
		want   string
	}{
		{"a record never fed", func(t *totals) { t.fed--; t.observed-- }, 1, "trackers offered"},
		{"a record fed but never observed", func(t *totals) { t.observed-- }, 1, "observed"},
		{"a record dropped as late that the reference kept", func(t *totals) { t.late++; t.observed-- }, 1, "reference detector dropped"},
		{"a record dropped by a client", func(t *totals) { t.lost = 1 }, 1, "dropped, shed or forwarded"},
		{"an anomaly missing", func(t *totals) { t.anomalies = t.anomalies[1:] }, 0, "reference detector found"},
		{"an anomaly with other test counts", func(t *totals) {
			t.anomalies = append(t.anomalies[:0:0], t.anomalies...)
			t.anomalies[0].Outliers++
		}, 0, "reference has"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			tc.break_(&bad)
			v := check(in, laps, offered, bad)
			if v.correct() {
				t.Fatal("check passed")
			}
			if v.failed != tc.failed {
				t.Errorf("failed = %d, want %d", v.failed, tc.failed)
			}
			if !strings.Contains(strings.Join(v.problems, "\n"), tc.want) {
				t.Errorf("problems %q do not mention %q", v.problems, tc.want)
			}
		})
	}
}

// TestWithheldRecordFailsTheCommand withholds one synopsis between the
// tracker and the link, on every workload shape, and expects a non-zero exit
// and no result line.
func TestWithheldRecordFailsTheCommand(t *testing.T) {
	for _, name := range []string{"wire-1link", "embedded", "fleet-2peer"} {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: testSeed, quick: true, withhold: 77, barrierTimeout: 300 * time.Millisecond}
			var stdout, stderr bytes.Buffer
			if code := execute(o, &stdout, &stderr); code == 0 {
				t.Fatalf("exit code 0 with a withheld record; output:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), "engines fed") {
				t.Errorf("stderr does not name the shortfall: %q", stderr.String())
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("a result line was printed:\n%s", stdout.String())
			}
		})
	}
}

// TestPacingHoldsTheSchedule feeds pacing legs that kept the open-loop
// workload's schedule and legs that fell 2% short of it.
func TestPacingHoldsTheSchedule(t *testing.T) {
	s, ok := findSpec("paced-1link")
	if !ok {
		t.Fatal("no paced-1link workload")
	}
	legsAt := func(share float64) []leg {
		const records = 400_000
		l := leg{records: records, genWall: time.Duration(records / (share * s.rate) * float64(time.Second))}
		return []leg{l, l, l}
	}
	tests := []struct {
		name    string
		share   float64
		quick   bool
		correct bool
	}{
		{"on schedule", 0.999, false, true},
		{"2% short", 0.98, false, false},
		{"2% short in a -quick run", 0.98, true, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			res := newResult(&out, verdict{offered: 1})
			pacing(res, s, options{quick: tc.quick}, legsAt(tc.share))
			if res.Correct != tc.correct {
				t.Errorf("correct = %v, want %v; output:\n%s", res.Correct, tc.correct, out.String())
			}
			if !strings.Contains(out.String(), "pipeline.offered_per_s") {
				t.Errorf("the offered rate is not printed:\n%s", out.String())
			}
		})
	}
}
