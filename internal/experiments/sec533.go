package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"saad/internal/textmine"
)

// Sec533Result reproduces Section 5.3.3's analyzer-cost comparison: regex
// reverse-matching of rendered DEBUG logs (the Xu-et-al-style baseline,
// which took 12 minutes on 8 cores for one hour of logs) vs SAAD's
// analyzer consuming the same tasks' synopses in real time on one core
// (>= 1500 synopses/s in the paper).
type Sec533Result struct {
	// Trace characteristics.
	Synopses    int
	LogMessages int64
	LogBytes    int64

	// Baseline: wall-clock regex matching cost and rate.
	MineWorkers     int
	MineDuration    time.Duration
	MineLinesPerSec float64

	// SAAD: wall-clock analyzer cost (train excluded) and rate.
	AnalyzeDuration time.Duration
	SynopsesPerSec  float64
	TrainDuration   time.Duration

	// SpeedupFactor is baseline time over SAAD time for the same trace.
	SpeedupFactor float64
}

// String renders the comparison.
func (r Sec533Result) String() string {
	var b strings.Builder
	b.WriteString("Section 5.3.3: statistical analyzer cost vs regex text mining\n")
	fmt.Fprintf(&b, "  trace: %d synopses -> %d DEBUG messages (%.1f MB)\n",
		r.Synopses, r.LogMessages, mb(r.LogBytes))
	fmt.Fprintf(&b, "  text mining (%d workers): %v  (%.0f lines/s)\n",
		r.MineWorkers, r.MineDuration.Round(time.Millisecond), r.MineLinesPerSec)
	fmt.Fprintf(&b, "  SAAD analyzer (1 core):   %v  (%.0f synopses/s; training %v)\n",
		r.AnalyzeDuration.Round(time.Millisecond), r.SynopsesPerSec, r.TrainDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  SAAD processes the same tasks %.0fx faster than the mining baseline\n", r.SpeedupFactor)
	return b.String()
}

// Sec533 generates a Cassandra trace, renders its DEBUG logs, and measures
// the wall-clock cost of the regex baseline against SAAD's detector.
func Sec533(cfg Config) (Sec533Result, error) {
	cfg.applyDefaults()
	const (
		trainMinutes  = 10
		detectMinutes = 10
		mineWorkers   = 8 // the baseline's "dedicated cluster of 8 cores"
	)
	var out Sec533Result

	train, _, err := cfg.cassandraRun(run{minutes: trainMinutes, seed: 733})
	if err != nil {
		return out, err
	}
	res, _, err := cfg.cassandraRun(run{minutes: detectMinutes, seed: 737})
	if err != nil {
		return out, err
	}
	out.Synopses = len(res.syns)

	// Render the DEBUG log file the baseline would mine.
	var logBuf bytes.Buffer
	for _, s := range res.syns {
		m, n, rerr := textmine.RenderSynopsis(&logBuf, res.dict, s)
		if rerr != nil {
			return out, rerr
		}
		out.LogMessages += int64(m)
		out.LogBytes += n
	}

	// Baseline: regex reverse matching with 8 workers.
	matcher, err := textmine.NewMatcher(res.dict)
	if err != nil {
		return out, err
	}
	startMine := time.Now()
	stats, err := matcher.MatchAll(bytes.NewReader(logBuf.Bytes()), mineWorkers)
	if err != nil {
		return out, err
	}
	out.MineWorkers = mineWorkers
	out.MineDuration = time.Since(startMine)
	if stats.Unmatched > 0 {
		return out, fmt.Errorf("sec533: %d unmatched lines", stats.Unmatched)
	}
	if secs := out.MineDuration.Seconds(); secs > 0 {
		out.MineLinesPerSec = float64(stats.Lines) / secs
	}

	// SAAD: train once, then measure single-threaded detection.
	startTrain := time.Now()
	model, err := cfg.trainModel(train.syns)
	if err != nil {
		return out, err
	}
	out.TrainDuration = time.Since(startTrain)

	startDetect := time.Now()
	detect(model, res.syns)
	out.AnalyzeDuration = time.Since(startDetect)
	if secs := out.AnalyzeDuration.Seconds(); secs > 0 {
		out.SynopsesPerSec = float64(out.Synopses) / secs
	}
	if out.AnalyzeDuration > 0 {
		out.SpeedupFactor = float64(out.MineDuration) / float64(out.AnalyzeDuration)
	}
	return out, nil
}
