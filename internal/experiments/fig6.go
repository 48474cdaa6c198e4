package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"saad/internal/cluster"
	"saad/internal/logpoint"
	"saad/internal/stats"
	"saad/internal/storage/hdfs"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// Fig6System is one bar group of Figure 6.
type Fig6System struct {
	Name string
	// Signatures is the distinct signature count across all stages.
	Signatures int
	// Covering95 is how many signatures (by descending task count) cover
	// 95% of all tasks.
	Covering95 int
	// Tasks is the total task count observed.
	Tasks int
	// Shares is the per-signature task share, descending (the plotted
	// distribution).
	Shares []float64
}

// Fig6Result reproduces Figure 6: the distribution of signatures for the
// HDFS DataNode, HBase RegionServer and Cassandra. The paper reports 6/29,
// 12/72 and 10/68 signatures covering 95% of tasks.
type Fig6Result struct {
	Systems []Fig6System
}

// String renders the paper-style summary.
func (r Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: distribution of signatures (share of tasks per signature)\n")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %-22s %3d of %3d signatures account for 95%% of %d tasks\n",
			s.Name+":", s.Covering95, s.Signatures, s.Tasks)
		fmt.Fprintf(&b, "  %-22s top shares:", "")
		for i, sh := range s.Shares {
			if i == 8 {
				b.WriteString(" ...")
				break
			}
			fmt.Fprintf(&b, " %.4f", sh)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig6 runs a fault-free write-heavy workload on each system and reports
// the signature distributions.
func Fig6(cfg Config) (Fig6Result, error) {
	cfg.applyDefaults()
	const minutes = 20

	var out Fig6Result

	// HDFS DataNode tier driven directly (block writes/reads + IPC).
	hres, err := cfg.hdfsRun(minutes)
	if err != nil {
		return out, err
	}
	out.Systems = append(out.Systems, summarizeFig6("HDFS Data Node", hres.syns))

	// HBase RegionServers (RS-side stages only, like Figure 6(b)).
	bres, _, err := cfg.hbaseRun(run{minutes: minutes, seed: 77})
	if err != nil {
		return out, err
	}
	rsStages := stageSet(bres.dict, rsStageNames)
	var rsSyns []*synopsis.Synopsis
	for _, s := range bres.syns {
		if rsStages[s.Stage] {
			rsSyns = append(rsSyns, s)
		}
	}
	out.Systems = append(out.Systems, summarizeFig6("HBase Regionserver", rsSyns))

	// Cassandra.
	cres, _, err := cfg.cassandraRun(run{minutes: minutes, seed: 177})
	if err != nil {
		return out, err
	}
	out.Systems = append(out.Systems, summarizeFig6("Cassandra", cres.syns))
	return out, nil
}

func summarizeFig6(name string, syns []*synopsis.Synopsis) Fig6System {
	type key struct {
		stage logpoint.StageID
		sig   synopsis.Signature
	}
	counts := make(map[key]int)
	for _, s := range syns {
		counts[key{stage: s.Stage, sig: s.Signature()}]++
	}
	flat := make([]int, 0, len(counts))
	total := 0
	for _, n := range counts {
		flat = append(flat, n)
		total += n
	}
	covering, _ := stats.CumulativeShare(flat, 0.95)
	sort.Sort(sort.Reverse(sort.IntSlice(flat)))
	shares := make([]float64, len(flat))
	for i, n := range flat {
		shares[i] = float64(n) / float64(total)
	}
	return Fig6System{
		Name:       name,
		Signatures: len(flat),
		Covering95: covering,
		Tasks:      total,
		Shares:     shares,
	}
}

// hdfsRun drives a standalone DataNode tier: block writes with reads mixed
// in, plus the periodic IPC stages.
func (c Config) hdfsRun(minutes int) (runResult, error) {
	r := run{minutes: minutes, seed: 991}
	sink, ch := r.sink()
	cl := cluster.New(cluster.Config{Hosts: 4, Seed: c.Seed + r.seed, Sink: sink, Epoch: Epoch})
	tier, err := hdfs.New(cl, hdfs.Config{})
	if err != nil {
		return runResult{}, err
	}
	rng := vtime.NewRNG(c.Seed + r.seed + 1)
	return c.drive(r, cl, ch, c.Clients/2, func(_ int, at time.Time) (time.Time, int) {
		tier.Tick(at)
		client := rng.Intn(4)
		// Multi-megabyte blocks: tens of 64 KiB pipeline packets per task,
		// the chattiness that drives HDFS's Figure 8 reduction factor.
		size := (rng.Intn(8) + 1) << 20
		exec := tier.ReadBlock
		if rng.Bool(0.7) {
			exec = tier.WriteBlock
		}
		done, err := exec(client, size, at)
		return done, completed(err)
	}), nil
}
