package experiments

import (
	"fmt"
	"sort"
	"strings"

	"saad/internal/report"
	"saad/internal/synopsis"
)

// Table1Result reproduces Table 1: the normal Table-stage execution flow vs
// the anomalous frozen-MemTable flow uncovered during the error-on-WAL
// experiment.
type Table1Result struct {
	// NormalSignature and AnomalousSignature are the two compared flows.
	NormalSignature    synopsis.Signature
	AnomalousSignature synopsis.Signature
	// NormalCount / AnomalousCount are their task counts on host 4.
	NormalCount, AnomalousCount int
	// Table is the rendered comparison.
	Table string
}

// String renders the table with its caption.
func (r Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: signature of a normal execution flow vs the anomalous\n")
	b.WriteString("frozen-MemTable flow (stage Table, host 4, error-on-WAL fault)\n")
	b.WriteString(r.Table)
	fmt.Fprintf(&b, "(host 4 tasks: %d normal-flow, %d anomalous-flow)\n", r.NormalCount, r.AnomalousCount)
	return b.String()
}

// Table1 runs the error-on-WAL scenario and extracts the two flows.
func Table1(cfg Config) (Table1Result, error) {
	cfg.applyDefaults()
	var out Table1Result

	res, cass, err := cfg.cassandraRun(run{minutes: 45, seed: 905,
		scenarioFaults: scenarioFaults{inj: fig9Injector(cfg, Fig9ErrorWAL)}, cassandra: fig9Tuning(cfg)})
	if err != nil {
		return out, err
	}
	tableStage, ok := cass.Stage("Table")
	if !ok {
		return out, fmt.Errorf("table1: Table stage not registered")
	}
	frozenOnly := synopsis.Compute(cass.TablePoints()[:1])

	counts := make(map[synopsis.Signature]int)
	for _, s := range res.syns {
		if s.Stage == tableStage && s.Host == 4 {
			counts[s.Signature()]++
		}
	}
	if len(counts) == 0 {
		return out, fmt.Errorf("table1: no Table tasks on host 4")
	}
	// Normal flow = the most common signature that is not the frozen-only
	// flow and contains the full apply chain.
	type sigCount struct {
		sig synopsis.Signature
		n   int
	}
	var ordered []sigCount
	for sig, n := range counts {
		ordered = append(ordered, sigCount{sig: sig, n: n})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].n > ordered[j].n })
	for _, sc := range ordered {
		if sc.sig != frozenOnly && sc.sig.Contains(cass.TablePoints()[0]) {
			// The Table 1 normal flow: frozen + the full apply chain.
			out.NormalSignature = sc.sig
			out.NormalCount = sc.n
			break
		}
	}
	if out.NormalSignature == "" {
		// Fall back to the plain apply chain without the frozen wait.
		out.NormalSignature = ordered[0].sig
		out.NormalCount = ordered[0].n
	}
	out.AnomalousSignature = frozenOnly
	out.AnomalousCount = counts[frozenOnly]
	if out.AnomalousCount == 0 {
		return out, fmt.Errorf("table1: frozen-MemTable flow never observed")
	}

	out.Table = report.SignatureTable(res.dict, []string{"Normal", "Anomalous"},
		[]synopsis.Signature{out.NormalSignature, out.AnomalousSignature})
	return out, nil
}
