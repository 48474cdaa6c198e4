package lifecycle

import (
	"fmt"
	"sort"
	"time"

	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/stats"
	"saad/internal/synopsis"
)

// DriftConfig tunes the drift monitor.
type DriftConfig struct {
	// EpochTasks is how many observed synopses make one evaluation epoch.
	// Epochs are counted in synopses, not wall-clock, so drift evaluation
	// is deterministic and virtual-time friendly. Default 4096.
	EpochTasks int
	// Alpha is the significance level shared by the never-seen-signature
	// proportion test and the duration-shift test. Default 0.001.
	Alpha float64
	// MinEffect is the minimum absolute increase of the never-seen rate
	// over its baseline before a rejecting test counts as drift (the same
	// practical-significance gate the detector applies). Default 0.02.
	MinEffect float64
	// BaselineFloor floors the expected never-seen-signature rate. The
	// per-stage baseline is max(BaselineFloor, the stage's trained
	// flow-outlier share): a stage with a long rare-signature tail in
	// training is expected to keep producing occasional novelty. Default
	// 0.005.
	BaselineFloor float64
	// HistBuckets is the bucket count of the per-stage duration histogram
	// the shift test compares. Default 24.
	HistBuckets int
	// MinStageTasks is the minimum number of epoch tasks a stage needs
	// before it is judged at all. Default 256.
	MinStageTasks int
	// RefWarmupEpochs is how many adequate epochs (>= MinStageTasks tasks)
	// a stage skips before freezing its duration reference, so a warm-up or
	// fault transient in the first epoch cannot poison the baseline every
	// later epoch is tested against. Default 1; negative freezes the
	// reference at the first adequate epoch. The Manager rebuilds the
	// monitor after every model swap, which also refreshes the reference.
	RefWarmupEpochs int
}

func (c *DriftConfig) applyDefaults() {
	if c.EpochTasks <= 0 {
		c.EpochTasks = 4096
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.001
	}
	if c.MinEffect <= 0 {
		c.MinEffect = 0.02
	}
	if c.BaselineFloor <= 0 {
		c.BaselineFloor = 0.005
	}
	if c.HistBuckets <= 0 {
		c.HistBuckets = 24
	}
	if c.MinStageTasks <= 0 {
		c.MinStageTasks = 256
	}
	if c.RefWarmupEpochs == 0 {
		c.RefWarmupEpochs = 1
	} else if c.RefWarmupEpochs < 0 {
		c.RefWarmupEpochs = 0
	}
}

// StageDrift is the drift evidence for one stage in one epoch.
type StageDrift struct {
	Stage logpoint.StageID `json:"stage"`
	// Tasks is how many synopses the stage contributed to the epoch.
	Tasks int `json:"tasks"`
	// NewSignatures counts epoch tasks whose signature the serving model
	// never saw in training.
	NewSignatures int `json:"new_signatures"`
	// NewSigRate is NewSignatures / Tasks.
	NewSigRate float64 `json:"new_sig_rate"`
	// NewSigTest is the proportion test of NewSigRate against the stage
	// baseline (zero-valued when the stage had too few tasks).
	NewSigTest stats.ProportionTestResult `json:"new_sig_test"`
	// DurationShift is the two-sample test of the epoch's duration
	// histogram against the stage's reference epoch; HasDurationShift
	// reports whether the test ran (a reference must exist first).
	DurationShift    stats.TwoSampleResult `json:"duration_shift"`
	HasDurationShift bool                  `json:"has_duration_shift"`
	// Drifted is true when either test rejected with practical effect.
	Drifted bool `json:"drifted"`
	// Reasons lists human-readable causes when Drifted.
	Reasons []string `json:"reasons,omitempty"`
}

// DriftReport is the outcome of one evaluation epoch.
type DriftReport struct {
	// Epoch is the 1-based sequence number of the epoch.
	Epoch int `json:"epoch"`
	// Tasks is the number of synopses observed in the epoch.
	Tasks int `json:"tasks"`
	// Stages carries per-stage evidence, ordered by stage id.
	Stages []StageDrift `json:"stages"`
	// Drifted is true when any stage drifted.
	Drifted bool `json:"drifted"`
	// Score summarizes the report for dashboards: 0 when nothing drifted,
	// otherwise the strongest per-stage evidence in (0, 1] — the observed
	// never-seen rate for flow drift, 1 - p for duration shift, whichever
	// is larger.
	Score float64 `json:"score"`
}

// stageDriftState accumulates one stage's epoch counters.
type stageDriftState struct {
	known    map[string]struct{}
	baseline float64
	tasks    int
	newSigs  int
	hist     *stats.Histogram
	// ref is the reference duration histogram (with tail buckets): the
	// first adequate epoch after the warm-up becomes the baseline every
	// later epoch is tested against; warm counts the adequate epochs
	// skipped so far.
	ref  []int
	warm int
}

// DriftMonitor watches the live synopsis stream for evidence that the
// serving model no longer matches the workload: a rising rate of
// signatures the model never saw in training (the paper's condition (ii)
// novelty signal, aggregated over epochs instead of windows), and a shift
// of the per-stage duration distribution away from the reference epoch.
// Observe is cheap and allocation-free on the hot path; evaluation runs
// once per epoch. Not safe for concurrent use — callers serialize (the
// Manager guards it with its own mutex).
type DriftMonitor struct {
	cfg     DriftConfig
	stages  map[logpoint.StageID]*stageDriftState
	scratch []byte
	seen    int
	epoch   int
	total   uint64
	histMax float64
}

// NewDriftMonitor builds a monitor for the given serving model.
func NewDriftMonitor(model *analyzer.Model, cfg DriftConfig) *DriftMonitor {
	cfg.applyDefaults()
	m := &DriftMonitor{
		cfg:     cfg,
		stages:  make(map[logpoint.StageID]*stageDriftState, len(model.Stages)),
		scratch: make([]byte, 0, 64),
	}
	// Histogram range: generous headroom over the slowest trained
	// signature threshold, shared across stages so bucket boundaries are
	// stable when models retrain.
	var maxThr time.Duration
	for _, sm := range model.Stages {
		for _, sig := range sm.Signatures {
			if sig.DurationThreshold > maxThr {
				maxThr = sig.DurationThreshold
			}
		}
	}
	if maxThr <= 0 {
		maxThr = time.Second
	}
	m.histMax = 4 * float64(maxThr)
	for id, sm := range model.Stages {
		st := &stageDriftState{
			known:    make(map[string]struct{}, len(sm.Signatures)),
			baseline: cfg.BaselineFloor,
		}
		if sm.FlowOutlierShare > st.baseline {
			st.baseline = sm.FlowOutlierShare
		}
		for sig := range sm.Signatures {
			st.known[string(sig)] = struct{}{}
		}
		st.hist, _ = stats.NewHistogram(0, m.histMax, cfg.HistBuckets)
		m.stages[id] = st
	}
	return m
}

// Total returns the lifetime number of synopses observed.
func (m *DriftMonitor) Total() uint64 { return m.total }

// Epoch returns how many epochs have been evaluated.
func (m *DriftMonitor) Epoch() int { return m.epoch }

// sigKey packs the synopsis's signature bytes into the monitor's scratch
// buffer without allocating, mirroring the detector's interning path; a
// non-canonical synopsis falls back to the allocating Signature call.
func (m *DriftMonitor) sigKey(s *synopsis.Synopsis) []byte {
	buf := m.scratch[:0]
	var prev logpoint.ID
	for i, pc := range s.Points {
		if i > 0 && pc.Point <= prev {
			buf = append(buf[:0], s.Signature()...)
			m.scratch = buf
			return buf
		}
		buf = append(buf, byte(pc.Point>>8), byte(pc.Point))
		prev = pc.Point
	}
	m.scratch = buf
	return buf
}

// Observe feeds one live synopsis to the monitor. It returns a report when
// the synopsis completes an evaluation epoch and nil otherwise.
func (m *DriftMonitor) Observe(s *synopsis.Synopsis) *DriftReport {
	m.total++
	st := m.stages[s.Stage]
	if st == nil {
		// A stage the model never trained on: every signature is novel by
		// definition. Track it so sustained unknown-stage traffic reads as
		// drift rather than vanishing.
		st = m.addStage(s.Stage)
	}
	st.tasks++
	if _, ok := st.known[string(m.sigKey(s))]; !ok {
		st.newSigs++
	}
	st.hist.Add(float64(s.Duration))
	m.seen++
	if m.seen >= m.cfg.EpochTasks {
		return m.evaluate()
	}
	return nil
}

// addStage registers an untrained stage (cold path).
func (m *DriftMonitor) addStage(id logpoint.StageID) *stageDriftState {
	st := &stageDriftState{
		known:    make(map[string]struct{}),
		baseline: m.cfg.BaselineFloor,
	}
	st.hist, _ = stats.NewHistogram(0, m.histMax, m.cfg.HistBuckets)
	m.stages[id] = st
	return st
}

// evaluate closes the epoch: runs both tests per stage, resets the epoch
// counters and returns the report.
func (m *DriftMonitor) evaluate() *DriftReport {
	m.epoch++
	rep := &DriftReport{Epoch: m.epoch, Tasks: m.seen}
	m.seen = 0

	ids := make([]logpoint.StageID, 0, len(m.stages))
	for id := range m.stages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		st := m.stages[id]
		sd := StageDrift{Stage: id, Tasks: st.tasks, NewSignatures: st.newSigs}
		if st.tasks > 0 {
			sd.NewSigRate = float64(st.newSigs) / float64(st.tasks)
		}
		if st.tasks >= m.cfg.MinStageTasks {
			if res, err := stats.ProportionTTest(st.newSigs, st.tasks, st.baseline, m.cfg.Alpha); err == nil {
				sd.NewSigTest = res
				if res.Reject && sd.NewSigRate >= st.baseline+m.cfg.MinEffect {
					sd.Drifted = true
					sd.Reasons = append(sd.Reasons, fmt.Sprintf(
						"never-seen signature rate %.3f over baseline %.3f (%s)", sd.NewSigRate, st.baseline, res))
				}
			}
			cur := st.hist.CountsWithTails()
			if st.ref == nil {
				// The first adequate epoch past the warm-up becomes the
				// reference distribution.
				if st.warm >= m.cfg.RefWarmupEpochs {
					st.ref = append([]int(nil), cur...)
				} else {
					st.warm++
				}
			} else {
				if res, err := stats.ChiSquareTwoSample(st.ref, cur, m.cfg.Alpha); err == nil {
					sd.DurationShift = res
					sd.HasDurationShift = true
					if res.Reject {
						sd.Drifted = true
						sd.Reasons = append(sd.Reasons, fmt.Sprintf(
							"duration distribution shifted from reference epoch (%s)", res))
					}
				}
			}
		}
		if sd.Drifted {
			rep.Drifted = true
			score := 0.0
			if sd.NewSigTest.Reject {
				score = sd.NewSigRate
			}
			if sd.HasDurationShift && sd.DurationShift.Reject {
				if s := 1 - sd.DurationShift.PValue; s > score {
					score = s
				}
			}
			if score > rep.Score {
				rep.Score = score
			}
		}
		rep.Stages = append(rep.Stages, sd)
		st.tasks, st.newSigs = 0, 0
		st.hist.Reset()
	}
	return rep
}
