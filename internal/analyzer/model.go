package analyzer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"saad/internal/logpoint"
	"saad/internal/stats"
	"saad/internal/synopsis"
)

// ErrEmptyTrace is returned when Train is called with no synopses.
var ErrEmptyTrace = errors.New("analyzer: empty training trace")

// SignatureModel is what training learns about one (stage, signature)
// group.
type SignatureModel struct {
	// Signature identifies the group.
	Signature synopsis.Signature
	// Count is the number of training tasks with this signature.
	Count int
	// Share is Count divided by the stage's training task total.
	Share float64
	// FlowOutlier marks signatures rarer than the percentile-rank
	// threshold.
	FlowOutlier bool
	// DurationThreshold is the performance-outlier threshold (the
	// DurationPercentile-th percentile of training durations).
	DurationThreshold time.Duration
	// PerfTrainShare is the share of training tasks above
	// DurationThreshold (≈ the nominal 1%, measured empirically).
	PerfTrainShare float64
	// PerfEligible reports whether the k-fold cross-validation kept this
	// signature for performance-outlier detection (Section 3.3.2).
	PerfEligible bool
	// CVOutlierShare is the mean held-out performance-outlier share the
	// cross-validation measured; recorded for diagnostics.
	CVOutlierShare float64
	// Skewness of the training durations, recorded for diagnostics.
	Skewness float64
}

// StageModel aggregates the learned state of one stage.
type StageModel struct {
	// Stage identifies the stage.
	Stage logpoint.StageID
	// Total is the number of training tasks observed for the stage.
	Total int
	// FlowOutlierShare is the share of training tasks whose signature is a
	// flow outlier — the baseline proportion the runtime flow test compares
	// against.
	FlowOutlierShare float64
	// Signatures maps each signature seen in training to its model.
	Signatures map[synopsis.Signature]*SignatureModel

	// Interning index, built once by Model.ensureIndex: signatures mapped
	// to dense ids so the detector hot path keys windows on int32 instead
	// of strings. Ids are assigned in lexicographic signature order, so
	// sorting ids numerically reproduces the signature sort order. The
	// plain-string key map lets the detector look up a scratch []byte via
	// string(buf) without allocating.
	sigIDs  map[string]int32
	sigByID []*SignatureModel
}

// buildIndex populates the interning index (lexicographic id assignment).
func (m *StageModel) buildIndex() {
	sigs := make([]synopsis.Signature, 0, len(m.Signatures))
	for sig := range m.Signatures {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	m.sigIDs = make(map[string]int32, len(sigs))
	m.sigByID = make([]*SignatureModel, len(sigs))
	for i, sig := range sigs {
		m.sigIDs[string(sig)] = int32(i)
		m.sigByID[i] = m.Signatures[sig]
	}
}

// SortedSignatures returns the stage's signature models ordered by
// descending count (the paper's percentile-rank order).
func (m *StageModel) SortedSignatures() []*SignatureModel {
	out := make([]*SignatureModel, 0, len(m.Signatures))
	for _, s := range m.Signatures {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// Model is the trained outlier model for all stages.
type Model struct {
	// Config records the settings the model was trained with.
	Config Config
	// Stages maps stage id to its learned model.
	Stages map[logpoint.StageID]*StageModel
	// TrainedOn is the number of synopses in the training trace.
	TrainedOn int

	// indexOnce guards the lazy one-time build of the per-stage signature
	// interning indexes. Once a detector (or engine) is created from the
	// model, Stages and Signatures must not be mutated: the index — shared
	// read-only by every detector on the model — would go stale.
	indexOnce sync.Once
}

// ensureIndex builds every stage's signature interning index exactly once.
// Safe for concurrent use; after the first call the indexes are read-only.
func (m *Model) ensureIndex() {
	m.indexOnce.Do(func() {
		for _, sm := range m.Stages {
			sm.buildIndex()
		}
	})
}

// Stage returns the model for a stage, or nil if the stage never appeared
// in training.
func (m *Model) Stage(id logpoint.StageID) *StageModel { return m.Stages[id] }

// Clone returns a deep copy of the model: mutating the copy's stages or
// signature models never affects the original (or any detector serving
// it). The interning index is not copied — the clone rebuilds its own on
// first use.
func (m *Model) Clone() *Model {
	out := &Model{
		Config:    m.Config,
		TrainedOn: m.TrainedOn,
		Stages:    make(map[logpoint.StageID]*StageModel, len(m.Stages)),
	}
	for id, sm := range m.Stages {
		cp := &StageModel{
			Stage:            sm.Stage,
			Total:            sm.Total,
			FlowOutlierShare: sm.FlowOutlierShare,
			Signatures:       make(map[synopsis.Signature]*SignatureModel, len(sm.Signatures)),
		}
		for sig, sigModel := range sm.Signatures {
			sigCopy := *sigModel
			cp.Signatures[sig] = &sigCopy
		}
		out.Stages[id] = cp
	}
	return out
}

// Knows reports whether the signature was seen in training for the stage.
func (m *Model) Knows(stage logpoint.StageID, sig synopsis.Signature) bool {
	sm := m.Stages[stage]
	if sm == nil {
		return false
	}
	_, ok := sm.Signatures[sig]
	return ok
}

// Trainer accumulates a fault-free training trace and builds a Model. The
// paper buffers synopses in memory during model construction (Section 4.2);
// Trainer does the same, holding only durations per (stage, signature).
// Trainer is not safe for concurrent use.
type Trainer struct {
	cfg    Config
	groups map[logpoint.StageID]map[synopsis.Signature]*[]time.Duration
	count  int
	// scratch holds the packed signature bytes of the synopsis being added;
	// a Signature is materialized only the first time a flow is seen.
	scratch []byte
}

// NewTrainer returns a trainer with the given configuration.
func NewTrainer(cfg Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Trainer{
		cfg:    cfg,
		groups: make(map[logpoint.StageID]map[synopsis.Signature]*[]time.Duration),
	}, nil
}

// Add incorporates one training synopsis.
func (t *Trainer) Add(s *synopsis.Synopsis) {
	byStage := t.groups[s.Stage]
	if byStage == nil {
		byStage = make(map[synopsis.Signature]*[]time.Duration)
		t.groups[s.Stage] = byStage
	}
	t.scratch = sigKey(t.scratch, s)
	durs := byStage[synopsis.Signature(t.scratch)] // converting inside the index does not allocate
	if durs == nil {
		durs = new([]time.Duration)
		byStage[synopsis.Signature(t.scratch)] = durs
	}
	*durs = append(*durs, s.Duration)
	t.count++
}

// Count returns the number of synopses added so far.
func (t *Trainer) Count() int { return t.count }

// Train builds the model from the accumulated trace.
func (t *Trainer) Train() (*Model, error) {
	if t.count == 0 {
		return nil, ErrEmptyTrace
	}
	model := &Model{
		Config:    t.cfg,
		Stages:    make(map[logpoint.StageID]*StageModel, len(t.groups)),
		TrainedOn: t.count,
	}
	for stage, sigs := range t.groups {
		sm, err := t.trainStage(stage, sigs)
		if err != nil {
			return nil, fmt.Errorf("analyzer: train stage %d: %w", stage, err)
		}
		model.Stages[stage] = sm
	}
	return model, nil
}

func (t *Trainer) trainStage(stage logpoint.StageID, sigs map[synopsis.Signature]*[]time.Duration) (*StageModel, error) {
	sm := &StageModel{
		Stage:      stage,
		Signatures: make(map[synopsis.Signature]*SignatureModel, len(sigs)),
	}
	for _, durs := range sigs {
		sm.Total += len(*durs)
	}
	outlierTasks := 0
	for sig, durs := range sigs {
		sigModel, err := t.trainSignature(sig, *durs, sm.Total)
		if err != nil {
			return nil, err
		}
		sm.Signatures[sig] = sigModel
		if sigModel.FlowOutlier {
			outlierTasks += sigModel.Count
		}
	}
	sm.FlowOutlierShare = float64(outlierTasks) / float64(sm.Total)
	return sm, nil
}

func (t *Trainer) trainSignature(sig synopsis.Signature, durs []time.Duration, stageTotal int) (*SignatureModel, error) {
	m := &SignatureModel{
		Signature: sig,
		Count:     len(durs),
		Share:     float64(len(durs)) / float64(stageTotal),
	}
	// Flow outlier: the signature's own share of the stage's tasks is below
	// the percentile-rank threshold ("signatures that account for less than
	// 1% of tasks are considered outliers", Section 3.3.2).
	m.FlowOutlier = m.Share < t.cfg.flowOutlierShare()

	fdurs := make([]float64, len(durs))
	for i, d := range durs {
		fdurs[i] = float64(d)
	}
	thr, err := stats.Percentile(fdurs, t.cfg.DurationPercentile)
	if err != nil {
		return nil, err
	}
	m.DurationThreshold = time.Duration(thr)
	over := 0
	for _, d := range durs {
		if d > m.DurationThreshold {
			over++
		}
	}
	m.PerfTrainShare = float64(over) / float64(len(durs))
	if skew, err := stats.Skewness(fdurs); err == nil {
		m.Skewness = skew
	}

	// Eligibility for performance detection: enough samples, and the k-fold
	// cross-validation must confirm the percentile threshold transfers
	// across folds (Section 3.3.2).
	if len(durs) < t.cfg.MinTasksPerSignature {
		m.PerfEligible = false
		return m, nil
	}
	cvShare, err := t.crossValidate(fdurs)
	if err != nil {
		return nil, err
	}
	m.CVOutlierShare = cvShare
	m.PerfEligible = cvShare <= t.cfg.DiscardFactor*t.cfg.nominalPerfOutlierShare()
	return m, nil
}

// crossValidate returns the mean held-out performance-outlier share across
// k folds: for each fold, the threshold is built from the remaining folds
// and the held-out fold's share above that threshold is measured.
func (t *Trainer) crossValidate(durs []float64) (float64, error) {
	folds := stats.KFoldIndices(len(durs), t.cfg.KFolds)
	var total float64
	for _, f := range folds {
		trainSet := make([]float64, 0, len(durs)-(f[1]-f[0]))
		trainSet = append(trainSet, durs[:f[0]]...)
		trainSet = append(trainSet, durs[f[1]:]...)
		if len(trainSet) == 0 {
			// Degenerate single-fold case: no held-out estimate possible.
			return 0, nil
		}
		thr, err := stats.Percentile(trainSet, t.cfg.DurationPercentile)
		if err != nil {
			return 0, err
		}
		held := durs[f[0]:f[1]]
		over := 0
		for _, d := range held {
			if d > thr {
				over++
			}
		}
		if len(held) > 0 {
			total += float64(over) / float64(len(held))
		}
	}
	return total / float64(len(folds)), nil
}

// Train is a convenience wrapping Trainer for a fully materialized trace.
func Train(cfg Config, trace []*synopsis.Synopsis) (*Model, error) {
	tr, err := NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range trace {
		tr.Add(s)
	}
	return tr.Train()
}
