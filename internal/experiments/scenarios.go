package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/logpoint"
	"saad/internal/workload"
)

// The taxonomy scenario matrix: beyond the paper's clean error/delay
// faults, real degradations are gray — a disk that still works but three
// times slower, a link that flaps, a clock that drifts, clients whose
// retries amplify a small delay into a storm, a leak that builds pressure
// over half an hour. Each scenario below is one cell of a (gray fault ×
// workload × taxonomy class) matrix, run end-to-end through the simulated
// Cassandra cluster and scored for whether SAAD detects the fault, how
// fast, and whether the anomalies localize to the faulty host and the
// expected stages.

// TaxonomyClass is the classic anomaly-taxonomy coordinate of a scenario:
// point (individually anomalous instances, e.g. a timed-out RPC),
// contextual (normal values in the wrong context, e.g. ordinary latencies
// that are slow *for this stage on this host*), or collective (only the
// ensemble is anomalous, e.g. a cluster-wide retry storm or a slow leak).
type TaxonomyClass string

// The three taxonomy classes.
const (
	ClassPoint      TaxonomyClass = "point"
	ClassContextual TaxonomyClass = "contextual"
	ClassCollective TaxonomyClass = "collective"
)

// scenarioFaults bundles everything a scenario injects: I/O faults,
// resource hogs, clock skew, and the client-side retry policy that turns
// injected latency into a metastable storm.
type scenarioFaults struct {
	inj   *faults.Injector
	hogs  *faults.HogSchedule
	skew  *faults.SkewSchedule
	retry workload.RetryPolicy
}

// Scenario is one cell of the taxonomy matrix.
type Scenario struct {
	Name        string
	Class       TaxonomyClass
	Description string
	// FaultHost is the host the fault targets, 0 for cluster-wide faults.
	FaultHost uint16
	// FromMin and ToMin bound the fault window in paper minutes.
	FromMin, ToMin int
	// WantStages are the stage names where anomalies are expected to
	// concentrate; empty accepts any stage (host-wide faults).
	WantStages []string
	build      func(Config) scenarioFaults
}

// scenarioMinutes is the per-cell run length in paper minutes: long enough
// for a 10-minute fault window plus clean lead-in and recovery tails.
const scenarioMinutes = 30

// Scenarios returns the matrix cells. Every taxonomy class is covered at
// least once; fault windows sit at paper minutes 10-20 (the slow leak
// ramps 8-26) inside a 30-minute run.
func Scenarios(cfg Config) []Scenario {
	return []Scenario{
		{
			Name:        "partial-slowness",
			Class:       ClassContextual,
			Description: "host 2's disk serves every write 3x slower (gray disk, no errors)",
			FaultHost:   2,
			FromMin:     10,
			ToMin:       20,
			WantStages:  []string{"Table", "LogRecordAdder", "Memtable", "CommitLog", "StorageProxy"},
			build: func(c Config) scenarioFaults {
				slow := func(name string, p faults.Point) faults.Fault {
					return faults.Fault{
						Name: name, Point: p, Mode: faults.ModeSlow,
						Probability: 1, Factor: 3, Host: 2,
						From: c.Minute(10), To: c.Minute(20),
					}
				}
				return scenarioFaults{inj: faults.NewInjector(
					slow("slow-wal", faults.PointWALAppend),
					slow("slow-flush", faults.PointMemtableFlush),
					slow("slow-write", faults.PointDiskWrite),
				)}
			},
		},
		{
			Name:        "clock-skew",
			Class:       ClassContextual,
			Description: "host 3 loses NTP discipline: timestamps drift 0.4 windows behind, measured durations stretch 2.5x",
			FaultHost:   3,
			FromMin:     10,
			ToMin:       20,
			build: func(c Config) scenarioFaults {
				return scenarioFaults{skew: faults.NewSkewSchedule(faults.SkewWindow{
					From: c.Minute(10), To: c.Minute(20), Host: 3,
					Offset:         -time.Duration(float64(c.MinuteScale) * 0.4),
					DurationFactor: 2.5,
				})}
			},
		},
		{
			Name:        "flapping-partition",
			Class:       ClassPoint,
			Description: "host 4's outbound link partitions for 2 of every 4 minutes (flapping link)",
			FaultHost:   4,
			FromMin:     10,
			ToMin:       20,
			WantStages:  []string{"OutboundTcpConnection", "StorageProxy", "HintedHandOffManager"},
			build: func(c Config) scenarioFaults {
				return scenarioFaults{inj: faults.NewInjector(faults.Flapping(
					faults.Fault{
						Name: "flap-partition", Point: faults.PointNetSend,
						Mode: faults.ModeError, Probability: 1, Host: 4,
					},
					c.Minute(10), c.Minute(20), 4*c.MinuteScale, 2*c.MinuteScale,
				)...)}
			},
		},
		{
			Name:        "asym-link-delay",
			Class:       ClassPoint,
			Description: "host 4's outbound link delays 30% of sends by 120ms (inbound unaffected)",
			FaultHost:   4,
			FromMin:     10,
			ToMin:       20,
			WantStages:  []string{"OutboundTcpConnection", "StorageProxy"},
			build: func(c Config) scenarioFaults {
				return scenarioFaults{inj: faults.NewInjector(faults.Fault{
					Name: "asym-delay", Point: faults.PointNetSend,
					Mode: faults.ModeDelay, Probability: 0.3, Delay: 120 * time.Millisecond,
					Host: 4, From: c.Minute(10), To: c.Minute(20),
				})}
			},
		},
		{
			Name:        "retry-storm",
			Class:       ClassCollective,
			Description: "a 35% 100ms WAL delay everywhere plus impatient clients (3 retries past 80ms) makes a metastable storm",
			FaultHost:   0,
			FromMin:     10,
			ToMin:       20,
			WantStages:  []string{"Table", "LogRecordAdder", "StorageProxy", "WorkerProcess"},
			build: func(c Config) scenarioFaults {
				return scenarioFaults{
					inj: faults.NewInjector(faults.Fault{
						Name: "storm-delay", Point: faults.PointWALAppend,
						Mode: faults.ModeDelay, Probability: 0.35, Delay: 100 * time.Millisecond,
						Host: faults.AllHosts, From: c.Minute(10), To: c.Minute(20),
					}),
					retry: workload.RetryPolicy{
						Max:              3,
						LatencyThreshold: 80 * time.Millisecond,
						Backoff:          5 * time.Millisecond,
					},
				}
			},
		},
		{
			Name:        "slow-leak",
			Class:       ClassCollective,
			Description: "host 1 leaks: hog load ramps linearly from 0 to 6 procs over minutes 8-26",
			FaultHost:   1,
			FromMin:     8,
			ToMin:       26,
			build: func(c Config) scenarioFaults {
				return scenarioFaults{hogs: faults.NewHogSchedule(faults.HogWindow{
					From: c.Minute(8), To: c.Minute(26), Procs: 6, Host: 1, Ramp: true,
				})}
			},
		},
	}
}

// ScenarioCell is one scored matrix cell.
type ScenarioCell struct {
	Name        string        `json:"name"`
	Class       TaxonomyClass `json:"class"`
	Description string        `json:"description"`
	FaultHost   uint16        `json:"fault_host"` // 0 = cluster-wide
	FromMin     int           `json:"from_min"`
	ToMin       int           `json:"to_min"`

	// Detected is true when at least one anomaly lands in the fault window
	// (plus grace) on the fault host (any host for cluster-wide faults).
	Detected bool `json:"detected"`
	// FirstDetectMin is the paper minute of the first such anomaly, -1 when
	// none.
	FirstDetectMin int `json:"first_detect_min"`
	// DetectLagMin is FirstDetectMin - FromMin.
	DetectLagMin int `json:"detect_lag_min"`
	// HostLocalized is true when the fault host dominates the in-window
	// anomalies (for cluster-wide faults: at least two hosts are flagged).
	HostLocalized bool `json:"host_localized"`
	// StageLocalized is true when the dominant in-window stage is one of
	// the scenario's expected stages (vacuously the detection result when
	// no stages are pinned).
	StageLocalized bool   `json:"stage_localized"`
	TopHost        uint16 `json:"top_host"`
	TopStage       string `json:"top_stage"`

	InWindowAnomalies int `json:"in_window_anomalies"`
	// FalseWindows counts distinct paper minutes outside the fault window
	// (plus grace) that still raised anomalies.
	FalseWindows int    `json:"false_windows"`
	FlowCount    int    `json:"flow_count"`
	PerfCount    int    `json:"perf_count"`
	LateSynopses uint64 `json:"late_synopses"`
	Ops          int    `json:"ops"`
}

// ScenarioMatrixResult is the scored matrix.
type ScenarioMatrixResult struct {
	Cells   []ScenarioCell `json:"cells"`
	Minutes int            `json:"minutes"`
}

// detectGraceMin extends the scoring window past ToMin: queued work drains
// and window-close anomalies trail the fault by a minute or two.
const detectGraceMin = 2

// String renders the matrix as a table.
func (r ScenarioMatrixResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Taxonomy scenario matrix: %d gray-failure cells over %d-minute runs (grace +%d min)\n",
		len(r.Cells), r.Minutes, detectGraceMin)
	fmt.Fprintf(&b, "  %-18s %-10s %-7s %-4s %-5s %-4s %-8s %-9s %-22s %-6s %-6s %-5s\n",
		"cell", "class", "window", "det", "first", "lag", "hostloc", "stageloc", "top-stage", "in-win", "false", "late")
	for _, c := range r.Cells {
		yn := func(v bool) string {
			if v {
				return "yes"
			}
			return "no"
		}
		first := "-"
		lag := "-"
		if c.Detected {
			first = fmt.Sprintf("m%d", c.FirstDetectMin)
			lag = fmt.Sprintf("%d", c.DetectLagMin)
		}
		host := "all"
		if c.FaultHost != 0 {
			host = fmt.Sprintf("h%d", c.FaultHost)
		}
		fmt.Fprintf(&b, "  %-18s %-10s %-7s %-4s %-5s %-4s %-8s %-9s %-22s %-6d %-6d %-5d\n",
			c.Name, c.Class, fmt.Sprintf("%d-%d", c.FromMin, c.ToMin),
			yn(c.Detected), first, lag,
			yn(c.HostLocalized)+"/"+host, yn(c.StageLocalized), c.TopStage,
			c.InWindowAnomalies, c.FalseWindows, c.LateSynopses)
	}
	return b.String()
}

// scoreScenario reduces a run's anomaly list to one matrix cell.
func (c Config) scoreScenario(sc Scenario, anomalies []analyzer.Anomaly, dict *logpoint.Dictionary, late uint64, ops int) ScenarioCell {
	cell := ScenarioCell{
		Name: sc.Name, Class: sc.Class, Description: sc.Description,
		FaultHost: sc.FaultHost, FromMin: sc.FromMin, ToMin: sc.ToMin,
		FirstDetectMin: -1, LateSynopses: late, Ops: ops,
	}
	graceTo := sc.ToMin + detectGraceMin
	hostHits := map[uint16]int{}
	stageHits := map[string]int{}
	falseMinutes := map[int]bool{}
	for _, a := range anomalies {
		if a.Kind == analyzer.FlowAnomaly {
			cell.FlowCount++
		} else {
			cell.PerfCount++
		}
		min := c.windowIndex(a.Window)
		if min < sc.FromMin || min > graceTo {
			falseMinutes[min] = true
			continue
		}
		cell.InWindowAnomalies++
		hostHits[a.Host]++
		stageHits[dict.StageName(a.Stage)]++
		onTarget := sc.FaultHost == 0 || a.Host == sc.FaultHost
		if onTarget && (cell.FirstDetectMin == -1 || min < cell.FirstDetectMin) {
			cell.FirstDetectMin = min
		}
	}
	cell.FalseWindows = len(falseMinutes)
	cell.Detected = cell.FirstDetectMin >= 0
	if cell.Detected {
		cell.DetectLagMin = cell.FirstDetectMin - sc.FromMin
	}
	cell.TopHost = topKey(hostHits)
	cell.TopStage = topKey(stageHits)
	if sc.FaultHost == 0 {
		cell.HostLocalized = len(hostHits) >= 2
	} else {
		cell.HostLocalized = cell.TopHost == sc.FaultHost
	}
	if len(sc.WantStages) == 0 {
		cell.StageLocalized = cell.Detected
	} else {
		for _, want := range sc.WantStages {
			if cell.TopStage == want {
				cell.StageLocalized = true
				break
			}
		}
	}
	return cell
}

// topKey returns the key with the highest count, smallest key winning ties
// so the result is deterministic.
func topKey[K interface {
	~uint16 | ~string
}](m map[K]int) K {
	var (
		best    K
		bestN   int
		haveAny bool
	)
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !haveAny || m[k] > bestN {
			best, bestN, haveAny = k, m[k], true
		}
	}
	return best
}

// ScenarioMatrix trains once on a clean 30-minute run, then runs and scores
// every matrix cell (or just the named ones).
func ScenarioMatrix(cfg Config, names ...string) (ScenarioMatrixResult, error) {
	cfg.applyDefaults()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	train, _, err := cfg.cassandraRun(run{minutes: scenarioMinutes, seed: 901, cassandra: fig9Tuning(cfg)})
	if err != nil {
		return ScenarioMatrixResult{}, err
	}
	model, err := cfg.trainModel(train.syns)
	if err != nil {
		return ScenarioMatrixResult{}, err
	}
	out := ScenarioMatrixResult{Minutes: scenarioMinutes}
	for i, sc := range Scenarios(cfg) {
		if len(want) > 0 && !want[sc.Name] {
			continue
		}
		res, _, err := cfg.cassandraRun(run{minutes: scenarioMinutes, seed: 1300 + uint64(i)*17,
			scenarioFaults: sc.build(cfg), cassandra: fig9Tuning(cfg)})
		if err != nil {
			return out, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		anomalies, late := detect(model, res.syns)
		out.Cells = append(out.Cells, cfg.scoreScenario(sc, anomalies, res.dict, late, res.ops))
	}
	if len(want) > 0 && len(out.Cells) != len(want) {
		return out, fmt.Errorf("unknown scenario in %v (have %d of %d)", names, len(out.Cells), len(want))
	}
	return out, nil
}
