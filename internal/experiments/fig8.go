package experiments

import (
	"fmt"
	"strings"

	"saad/internal/synopsis"
	"saad/internal/textmine"
)

// Fig8System is one bar pair of Figure 8.
type Fig8System struct {
	Name string
	// LogMessages / LogBytes is the DEBUG-level volume conventional mining
	// would have to store.
	LogMessages int64
	LogBytes    int64
	// Synopses / SynopsisBytes is SAAD's monitoring-data volume.
	Synopses      int64
	SynopsisBytes int64
}

// Factor returns the volume reduction factor.
func (s Fig8System) Factor() float64 {
	if s.SynopsisBytes == 0 {
		return 0
	}
	return float64(s.LogBytes) / float64(s.SynopsisBytes)
}

// Fig8Result reproduces Figure 8: DEBUG log volume vs synopsis volume. The
// paper reports 1457 MB vs 1.8 (HDFS), 928 vs 1.0 (HBase) and 1431 vs 136.7
// (Cassandra) — reductions of 15x to 900x.
type Fig8Result struct {
	Systems []Fig8System
}

// String renders the paper-style summary.
func (r Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: monitoring-data volume, DEBUG logs vs SAAD synopses\n")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %-22s logs %8.2f MB (%9d msgs)  synopses %7.3f MB (%8d)  reduction %6.1fx\n",
			s.Name+":", mb(s.LogBytes), s.LogMessages, mb(s.SynopsisBytes), s.Synopses, s.Factor())
	}
	return b.String()
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// Fig8 runs each system fault-free and accounts both volumes from the same
// synopsis trace: the rendered DEBUG messages every task would have logged
// vs the encoded synopses SAAD ships.
func Fig8(cfg Config) (Fig8Result, error) {
	cfg.applyDefaults()
	const minutes = 15

	var out Fig8Result

	hres, err := cfg.hdfsRun(minutes)
	if err != nil {
		return out, err
	}
	out.Systems = append(out.Systems, summarizeFig8("HDFS Data Node", hres))

	bres, _, err := cfg.hbaseRun(run{minutes: minutes, seed: 477})
	if err != nil {
		return out, err
	}
	out.Systems = append(out.Systems, summarizeFig8("HBase", bres))

	cres, _, err := cfg.cassandraRun(run{minutes: minutes, seed: 577})
	if err != nil {
		return out, err
	}
	out.Systems = append(out.Systems, summarizeFig8("Cassandra", cres))
	return out, nil
}

func summarizeFig8(name string, res runResult) Fig8System {
	var vol textmine.Volume
	var synBytes int64
	for _, s := range res.syns {
		vol.Add(res.dict, s)
		synBytes += int64(synopsis.EncodedSize(s))
	}
	return Fig8System{
		Name:          name,
		LogMessages:   vol.Messages(),
		LogBytes:      vol.Bytes(),
		Synopses:      int64(len(res.syns)),
		SynopsisBytes: synBytes,
	}
}
