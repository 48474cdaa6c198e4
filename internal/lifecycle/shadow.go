package lifecycle

import (
	"saad/internal/analyzer"
	"saad/internal/synopsis"
)

// ShadowConfig tunes the shadow evaluation gate.
type ShadowConfig struct {
	// MinWindows is how many closed detection windows the pair must
	// accumulate before a verdict is ready. Default 8.
	MinWindows int
	// FalsePositiveBudget is the allowed excess of the candidate's
	// anomaly rate (anomalies per closed window) over the serving
	// model's. A candidate that alarms more than the serving model by
	// more than this budget on the same traffic is rejected. Default
	// 0.05.
	FalsePositiveBudget float64
}

func (c *ShadowConfig) applyDefaults() {
	if c.MinWindows <= 0 {
		c.MinWindows = 8
	}
	if c.FalsePositiveBudget <= 0 {
		c.FalsePositiveBudget = 0.05
	}
}

// Verdict is the outcome of a shadow evaluation.
type Verdict struct {
	// Ready reports whether enough windows closed for a decision.
	Ready bool `json:"ready"`
	// Promote is the decision: true when the candidate's anomaly rate
	// stays within the false-positive budget of the serving model's.
	Promote bool `json:"promote"`
	// Fed is the number of synopses both models evaluated.
	Fed int `json:"fed"`
	// Windows is the number of detection windows that closed.
	Windows int `json:"windows"`
	// ServingAnomalies / CandidateAnomalies are the raw anomaly counts.
	ServingAnomalies   int `json:"serving_anomalies"`
	CandidateAnomalies int `json:"candidate_anomalies"`
	// ServingRate / CandidateRate are anomalies per closed window.
	ServingRate   float64 `json:"serving_rate"`
	CandidateRate float64 `json:"candidate_rate"`
	// Divergence is CandidateRate - ServingRate (positive = candidate is
	// noisier).
	Divergence float64 `json:"divergence"`
	// Reason explains the decision in words. It is a fixed phrase per
	// outcome, so computing a verdict allocates nothing; the numbers behind
	// it are the fields above and the ShadowConfig.
	Reason string `json:"reason"`
}

// Shadow runs a candidate model side-by-side with the serving model on the
// same live synopses: two independent detectors, identical windowing, so
// any divergence in anomaly output is attributable to the models alone.
// The evaluation is fully deterministic — same synopses, same verdict. Not
// safe for concurrent use; the Manager serializes access.
type Shadow struct {
	cfg       ShadowConfig
	serving   *analyzer.Detector
	candidate *analyzer.Detector

	fed          int
	servingAnoms int
	candAnoms    int
}

// NewShadow starts a shadow evaluation of candidate against serving. Both
// models must not be mutated afterwards; pass clones (Model.Clone) when the
// originals are still owned by a trainer or store cache.
func NewShadow(serving, candidate *analyzer.Model, cfg ShadowConfig) *Shadow {
	cfg.applyDefaults()
	return &Shadow{
		cfg:       cfg,
		serving:   analyzer.NewDetector(serving),
		candidate: analyzer.NewDetector(candidate),
	}
}

// Observe feeds one synopsis to both detectors.
func (s *Shadow) Observe(syn *synopsis.Synopsis) {
	s.fed++
	s.servingAnoms += len(s.serving.Feed(syn))
	s.candAnoms += len(s.candidate.Feed(syn))
}

// Fed returns how many synopses the pair has evaluated.
func (s *Shadow) Fed() int { return s.fed }

// Verdict computes the current promotion verdict without ending the
// evaluation, allocating nothing. Windows are counted from the serving
// detector's closed windows; both detectors close identical windows because
// windowing depends only on the synopsis stream.
func (s *Shadow) Verdict() Verdict {
	windows := s.serving.ClosedWindows()
	v := Verdict{
		Fed:                s.fed,
		Windows:            windows,
		ServingAnomalies:   s.servingAnoms,
		CandidateAnomalies: s.candAnoms,
	}
	if windows < s.cfg.MinWindows {
		v.Reason = "fewer closed windows than MinWindows"
		return v
	}
	v.Ready = true
	v.ServingRate = float64(s.servingAnoms) / float64(windows)
	v.CandidateRate = float64(s.candAnoms) / float64(windows)
	v.Divergence = v.CandidateRate - v.ServingRate
	if v.Divergence <= s.cfg.FalsePositiveBudget {
		v.Promote = true
		v.Reason = "candidate rate within the false-positive budget of the serving rate"
	} else {
		v.Reason = "candidate rate exceeds the serving rate by more than the false-positive budget"
	}
	return v
}
