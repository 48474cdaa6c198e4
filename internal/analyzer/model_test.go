package analyzer

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// makeSyn builds a normalized synopsis for stage with the given log points
// and duration.
func makeSyn(stage logpoint.StageID, host uint16, start time.Time, dur time.Duration, pts ...logpoint.ID) *synopsis.Synopsis {
	s := &synopsis.Synopsis{Stage: stage, Host: host, Start: start, Duration: dur}
	for _, p := range pts {
		s.Points = append(s.Points, synopsis.PointCount{Point: p, Count: 1})
	}
	s.Normalize()
	return s
}

// trainTrace builds a trace for one stage: `common` tasks with signature
// {1,2,4,5} and lognormal-ish durations around base, plus `rare` tasks with
// signature {1,2,3,4,5} — the Figure 4 scenario.
func trainTrace(stage logpoint.StageID, common, rare int, base time.Duration) []*synopsis.Synopsis {
	rng := vtime.NewRNG(1234)
	var out []*synopsis.Synopsis
	t := epoch
	for i := 0; i < common; i++ {
		d := base + time.Duration(rng.Intn(int(base/2)))
		out = append(out, makeSyn(stage, 1, t, d, 1, 2, 4, 5))
		t = t.Add(10 * time.Millisecond)
	}
	for i := 0; i < rare; i++ {
		d := base + time.Duration(rng.Intn(int(base/2)))
		out = append(out, makeSyn(stage, 1, t, d, 1, 2, 3, 4, 5))
		t = t.Add(10 * time.Millisecond)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FlowPercentile = 0 },
		func(c *Config) { c.FlowPercentile = 100 },
		func(c *Config) { c.DurationPercentile = -1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.KFolds = 1 },
		func(c *Config) { c.DiscardFactor = 0 },
		func(c *Config) { c.MinTasksPerSignature = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.MaxExamples = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTrainEmptyTrace(t *testing.T) {
	if _, err := Train(DefaultConfig(), nil); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 5
	if _, err := Train(cfg, trainTrace(1, 10, 0, time.Millisecond)); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTrainFlowOutlierClassification(t *testing.T) {
	// 9990 common + 10 rare: rare share 0.1% < 1% threshold.
	trace := trainTrace(7, 9990, 10, 10*time.Millisecond)
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	sm := model.Stage(7)
	if sm == nil {
		t.Fatal("stage missing")
	}
	if sm.Total != 10000 {
		t.Fatalf("total = %d", sm.Total)
	}
	commonSig := synopsis.Compute([]logpoint.ID{1, 2, 4, 5})
	rareSig := synopsis.Compute([]logpoint.ID{1, 2, 3, 4, 5})
	if sm.Signatures[commonSig].FlowOutlier {
		t.Fatal("common signature classified as outlier")
	}
	if !sm.Signatures[rareSig].FlowOutlier {
		t.Fatal("rare signature not classified as outlier")
	}
	if got := sm.FlowOutlierShare; got < 0.0009 || got > 0.0011 {
		t.Fatalf("FlowOutlierShare = %v, want ~0.001", got)
	}
	if !model.Knows(7, commonSig) || model.Knows(7, synopsis.Compute([]logpoint.ID{9})) {
		t.Fatal("Knows misbehaves")
	}
	if model.Knows(9, commonSig) {
		t.Fatal("Knows true for unseen stage")
	}
}

func TestTrainDurationThreshold(t *testing.T) {
	// Durations covering 1..1000us uniformly but arriving in a scrambled,
	// stationary order (37 is coprime with 1000, so i*37 mod 1000 visits
	// every value once): the 99th percentile must land near 990us.
	var trace []*synopsis.Synopsis
	for i := 1; i <= 1000; i++ {
		v := (i*37)%1000 + 1
		trace = append(trace, makeSyn(1, 0, epoch.Add(time.Duration(i)*time.Millisecond),
			time.Duration(v)*time.Microsecond, 1, 2))
	}
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	sig := synopsis.Compute([]logpoint.ID{1, 2})
	sm := model.Stage(1).Signatures[sig]
	if sm.DurationThreshold < 980*time.Microsecond || sm.DurationThreshold > 995*time.Microsecond {
		t.Fatalf("threshold = %v, want ~990us", sm.DurationThreshold)
	}
	if !sm.PerfEligible {
		t.Fatalf("uniform distribution discarded by CV: cvShare=%v", sm.CVOutlierShare)
	}
	if sm.PerfTrainShare < 0.005 || sm.PerfTrainShare > 0.015 {
		t.Fatalf("PerfTrainShare = %v, want ~0.01", sm.PerfTrainShare)
	}
}

func TestTrainSmallSignatureNotPerfEligible(t *testing.T) {
	trace := trainTrace(1, 10, 0, time.Millisecond) // below MinTasksPerSignature
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	sig := synopsis.Compute([]logpoint.ID{1, 2, 4, 5})
	if model.Stage(1).Signatures[sig].PerfEligible {
		t.Fatal("tiny signature perf-eligible")
	}
}

func TestTrainKFoldDiscardsUnstableDurations(t *testing.T) {
	// A duration distribution that shifts drastically across the trace:
	// the first 80% sits near 1ms, the last 20% near 100ms. The threshold
	// learned without the tail fold misclassifies that fold wholesale, so
	// CV must discard the signature. Noise keeps values strictly distinct.
	rng := vtime.NewRNG(3)
	var trace []*synopsis.Synopsis
	for i := 0; i < 200; i++ {
		d := time.Millisecond + time.Duration(rng.Intn(int(time.Millisecond/2)))
		if i >= 160 {
			d = 100*time.Millisecond + time.Duration(rng.Intn(int(50*time.Millisecond)))
		}
		trace = append(trace, makeSyn(1, 0, epoch.Add(time.Duration(i)*time.Second), d, 1))
	}
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	sig := synopsis.Compute([]logpoint.ID{1})
	sm := model.Stage(1).Signatures[sig]
	if sm.PerfEligible {
		t.Fatalf("unstable signature kept: cvShare=%v", sm.CVOutlierShare)
	}
	if sm.CVOutlierShare <= model.Config.DiscardFactor*model.Config.nominalPerfOutlierShare() {
		t.Fatalf("cvShare = %v unexpectedly small", sm.CVOutlierShare)
	}
}

func TestSortedSignaturesDescending(t *testing.T) {
	trace := trainTrace(1, 500, 30, time.Millisecond)
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	sigs := model.Stage(1).SortedSignatures()
	if len(sigs) != 2 {
		t.Fatalf("signatures = %d", len(sigs))
	}
	if sigs[0].Count < sigs[1].Count {
		t.Fatal("not sorted by descending count")
	}
}

func TestTrainerIncremental(t *testing.T) {
	tr, err := NewTrainer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range trainTrace(2, 100, 0, time.Millisecond) {
		tr.Add(s)
	}
	if tr.Count() != 100 {
		t.Fatalf("Count = %d", tr.Count())
	}
	model, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if model.TrainedOn != 100 {
		t.Fatalf("TrainedOn = %d", model.TrainedOn)
	}
}

// TestTrainerAddAllocs pins what a training synopsis costs once its flow has
// been seen: the bucket is found through the reused packed key, no Signature
// is built, and with room in the duration slice nothing is allocated — the
// slice's amortised growth is the trainer's only per-synopsis memory.
func TestTrainerAddAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	tr, err := NewTrainer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := trainTrace(2, 100, 5, time.Millisecond)
	for _, s := range trace {
		tr.Add(s)
	}
	const runs = 100
	for _, durs := range tr.groups[2] {
		*durs = slices.Grow(*durs, (runs+1)*len(trace))
	}
	got := testing.AllocsPerRun(runs, func() {
		for _, s := range trace {
			tr.Add(s)
		}
	})
	if got != 0 {
		t.Fatalf("Add of %d synopses of known flows allocated %v times, want 0", len(trace), got)
	}
	if want := (runs + 2) * len(trace); tr.Count() != want {
		t.Fatalf("Count = %d, want %d", tr.Count(), want)
	}
	if n := len(tr.groups[2]); n != 2 {
		t.Fatalf("%d signature groups, want 2", n)
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

func TestModelSerializeRoundTrip(t *testing.T) {
	trace := trainTrace(3, 2000, 15, 5*time.Millisecond)
	model, err := Train(DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := model.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrainedOn != model.TrainedOn {
		t.Fatalf("TrainedOn = %d", got.TrainedOn)
	}
	if got.Config.Window != model.Config.Window || got.Config.Alpha != model.Config.Alpha {
		t.Fatalf("config = %+v", got.Config)
	}
	wantStage := model.Stage(3)
	gotStage := got.Stage(3)
	if gotStage == nil || gotStage.Total != wantStage.Total {
		t.Fatalf("stage = %+v", gotStage)
	}
	for sig, want := range wantStage.Signatures {
		g := gotStage.Signatures[sig]
		if g == nil {
			t.Fatalf("signature %v lost", sig)
		}
		if g.Count != want.Count || g.FlowOutlier != want.FlowOutlier ||
			g.DurationThreshold != want.DurationThreshold ||
			g.PerfEligible != want.PerfEligible {
			t.Fatalf("signature %v = %+v, want %+v", sig, g, want)
		}
	}
}

func TestReadModelRejectsBadInput(t *testing.T) {
	if _, err := ReadModel(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadModel(strings.NewReader(`{"config":{}}`)); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := `{"config":{"flowPercentile":99,"durationPercentile":99,"alpha":0.001,"kFolds":5,` +
		`"discardFactor":3,"minTasksPerSignature":20,"windowMillis":60000,"maxExamples":3},` +
		`"stages":[{"stage":1,"signatures":[{"signature":"zz"}]}]}`
	if _, err := ReadModel(strings.NewReader(bad)); err == nil {
		t.Fatal("bad hex signature accepted")
	}
}
