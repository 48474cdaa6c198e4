package experiments

import (
	"fmt"
	"strings"
)

// Fig7System is one bar pair of Figure 7.
type Fig7System struct {
	Name string
	// OriginalOps and SAADOps are completed operations without and with
	// the task execution tracker.
	OriginalOps int
	SAADOps     int
}

// Normalized returns SAAD throughput normalized to the original system.
func (s Fig7System) Normalized() float64 {
	if s.OriginalOps == 0 {
		return 0
	}
	return float64(s.SAADOps) / float64(s.OriginalOps)
}

// Fig7Result reproduces Figure 7: normalized throughput of HBase and
// Cassandra with SAAD vs the original system. The paper finds the overhead
// insignificant (ratio ≈ 1).
type Fig7Result struct {
	Systems []Fig7System
}

// String renders the paper-style summary.
func (r Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: SAAD overhead (normalized throughput, 1.0 = no overhead)\n")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %-12s original %6d ops, with SAAD %6d ops, normalized %.3f\n",
			s.Name+":", s.OriginalOps, s.SAADOps, s.Normalized())
	}
	return b.String()
}

// Fig7 measures throughput with the tracker enabled vs disabled. In the
// simulator the tracker adds no virtual time (as in the paper, where its
// cost is statistically insignificant); the comparison exercises the real
// bookkeeping cost on the wall clock and confirms the completed-operation
// counts match.
func Fig7(cfg Config) (Fig7Result, error) {
	cfg.applyDefaults()
	systems := []struct {
		name string
		seed uint64
		ops  func(run) (int, error)
	}{
		{"Cassandra", 311, func(r run) (int, error) { res, _, err := cfg.cassandraRun(r); return res.ops, err }},
		{"HBase", 321, func(r run) (int, error) { res, _, err := cfg.hbaseRun(r); return res.ops, err }},
	}
	var out Fig7Result
	for _, sys := range systems {
		r := run{minutes: 10, seed: sys.seed, untracked: true}
		original, err := sys.ops(r)
		if err != nil {
			return out, err
		}
		r.untracked = false
		tracked, err := sys.ops(r)
		if err != nil {
			return out, err
		}
		out.Systems = append(out.Systems, Fig7System{Name: sys.name, OriginalOps: original, SAADOps: tracked})
	}
	return out, nil
}
