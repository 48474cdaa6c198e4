// Package textmine implements the conventional log-analytics baselines the
// paper compares SAAD against:
//
//   - a DEBUG-level log renderer that materializes the log messages a task
//     would have written (used to measure the storage-volume gap of Figure
//     8 — SAAD's synopses vs full DEBUG logs),
//   - a regex reverse-matching pipeline in the style of Xu et al. [30],
//     which maps each raw log line back to its originating log statement
//     (the compute-intensive phase of Section 5.3.3's comparison), and
//   - a log-grep alerting monitor that only fires on ERROR/WARN messages
//     (the baseline overlaid on Figures 9 and 10).
package textmine

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"sync"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// RenderMessage appends one fully formatted log line for the given point to
// dst, in the classic log4j layout:
//
//	2014-12-08 10:00:00,123 DEBUG [Thread-17] Stage: template arg
//
// seq injects a synthetic dynamic argument (block ids, row keys, sizes), so
// rendered logs have realistic per-message variability.
func RenderMessage(dst []byte, dict *logpoint.Dictionary, s *synopsis.Synopsis, p logpoint.Point, at time.Time, seq uint64) []byte {
	dst = at.AppendFormat(dst, "2006-01-02 15:04:05,000")
	dst = append(dst, ' ')
	dst = append(dst, p.Level.String()...)
	dst = append(dst, " [Thread-"...)
	dst = strconv.AppendUint(dst, s.TaskID%256, 10)
	dst = append(dst, "] "...)
	dst = append(dst, dict.StageName(p.Stage)...)
	dst = append(dst, ": "...)
	dst = append(dst, p.Template...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 16)
	dst = append(dst, '\n')
	return dst
}

// RenderSynopsis writes every log message the task emitted (each point,
// repeated per its frequency) to w, spreading timestamps across the task's
// duration. It returns the number of messages and bytes written.
func RenderSynopsis(w io.Writer, dict *logpoint.Dictionary, s *synopsis.Synopsis) (messages int, bytes int64, err error) {
	total := s.TotalHits()
	if total == 0 {
		return 0, 0, nil
	}
	var step time.Duration
	if total > 1 {
		step = s.Duration / time.Duration(total)
	}
	at := s.Start
	var buf []byte
	i := uint64(0)
	for _, pc := range s.Points {
		p, perr := dict.Point(pc.Point)
		if perr != nil {
			p = logpoint.Point{ID: pc.Point, Level: logpoint.LevelDebug, Template: "unknown log point"}
		}
		for c := uint32(0); c < pc.Count; c++ {
			buf = RenderMessage(buf[:0], dict, s, p, at, s.TaskID*31+i)
			n, werr := w.Write(buf)
			bytes += int64(n)
			if werr != nil {
				return messages, bytes, fmt.Errorf("textmine: render: %w", werr)
			}
			messages++
			at = at.Add(step)
			i++
		}
	}
	return messages, bytes, nil
}

// Volume accumulates the DEBUG-log volume a synopsis stream would have
// produced, without buffering the messages (Figure 8's left bars).
type Volume struct {
	mu       sync.Mutex
	messages int64
	bytes    int64
}

// Add accounts one synopsis.
func (v *Volume) Add(dict *logpoint.Dictionary, s *synopsis.Synopsis) {
	m, b, _ := RenderSynopsis(io.Discard, dict, s) //nolint:errcheck // Discard cannot fail
	v.mu.Lock()
	defer v.mu.Unlock()
	v.messages += int64(m)
	v.bytes += b
}

// Messages returns the total messages accounted.
func (v *Volume) Messages() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.messages
}

// Bytes returns the total bytes accounted.
func (v *Volume) Bytes() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bytes
}

// Matcher reverse-matches raw log lines to their originating log points by
// trying template-derived regular expressions — the Xu-et-al-style text
// mining step. Construct with NewMatcher.
type Matcher struct {
	patterns []matcherEntry
}

type matcherEntry struct {
	id logpoint.ID
	re *regexp.Regexp
}

// NewMatcher compiles one regular expression per registered log point.
func NewMatcher(dict *logpoint.Dictionary) (*Matcher, error) {
	points := dict.Points()
	m := &Matcher{patterns: make([]matcherEntry, 0, len(points))}
	for _, p := range points {
		// Template text is static; dynamic arguments trail it.
		expr := `^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3} ` + p.Level.String() +
			` \[Thread-\d+\] ` + regexp.QuoteMeta(dict.StageName(p.Stage)) + `: ` +
			regexp.QuoteMeta(p.Template) + `.*$`
		re, err := regexp.Compile(expr)
		if err != nil {
			return nil, fmt.Errorf("textmine: compile template %d: %w", p.ID, err)
		}
		m.patterns = append(m.patterns, matcherEntry{id: p.ID, re: re})
	}
	return m, nil
}

// MatchLine maps one raw line to its log point. Like the baseline it
// models, it scans the template set linearly — this linear regex scan is
// exactly the compute cost SAAD avoids by tracking log points directly.
func (m *Matcher) MatchLine(line []byte) (logpoint.ID, bool) {
	for i := range m.patterns {
		if m.patterns[i].re.Match(line) {
			return m.patterns[i].id, true
		}
	}
	return 0, false
}

// MatchStats summarizes a MatchAll pass.
type MatchStats struct {
	Lines     int64
	Matched   int64
	Unmatched int64
	// Counts aggregates matches per log point.
	Counts map[logpoint.ID]int64
}

// MatchAll reverse-matches an entire log stream using `workers` parallel
// goroutines (the baseline's MapReduce-style parallelism).
func (m *Matcher) MatchAll(r io.Reader, workers int) (MatchStats, error) {
	if workers < 1 {
		workers = 1
	}
	lines := make(chan []byte, workers*4)
	results := make([]MatchStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := MatchStats{Counts: make(map[logpoint.ID]int64)}
			for line := range lines {
				st.Lines++
				if id, ok := m.MatchLine(line); ok {
					st.Matched++
					st.Counts[id]++
				} else {
					st.Unmatched++
				}
			}
			results[w] = st
		}(w)
	}

	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64<<10), 1<<20)
	var scanErr error
	for scanner.Scan() {
		line := make([]byte, len(scanner.Bytes()))
		copy(line, scanner.Bytes())
		lines <- line
	}
	scanErr = scanner.Err()
	close(lines)
	wg.Wait()

	total := MatchStats{Counts: make(map[logpoint.ID]int64)}
	for _, st := range results {
		total.Lines += st.Lines
		total.Matched += st.Matched
		total.Unmatched += st.Unmatched
		for id, n := range st.Counts {
			total.Counts[id] += n
		}
	}
	if scanErr != nil {
		return total, fmt.Errorf("textmine: scan: %w", scanErr)
	}
	return total, nil
}
