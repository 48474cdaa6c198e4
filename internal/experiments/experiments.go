// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment has one entry point returning a
// typed result whose String method prints the rows/series the paper
// reports; cmd/saad-bench and the root bench_test.go drive them.
//
// Timelines run in compressed virtual time: one "paper minute" defaults to
// five virtual seconds (Config.MinuteScale), so the 50-minute Cassandra
// fault timelines and the 3-hour HBase/HDFS run complete in seconds while
// preserving the schedules, windows and rates of the paper (Section 5.2:
// YCSB with 100 emulated clients, write-heavy mix, ~250-450 op/s).
package experiments

import (
	"time"

	"saad/internal/analyzer"
	"saad/internal/cluster"
	"saad/internal/logpoint"
	"saad/internal/report"
	"saad/internal/storage/cassandra"
	"saad/internal/storage/hbase"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/tracker"
	"saad/internal/workload"
)

// Epoch is the fixed virtual start time of every experiment.
var Epoch = time.Date(2014, 12, 8, 10, 0, 0, 0, time.UTC)

// Config carries the experiment-wide knobs.
type Config struct {
	// MinuteScale is the virtual duration of one paper minute. Default 5 s.
	MinuteScale time.Duration
	// Clients is the emulated client count. Default 40 (scaled down from
	// the paper's 100 to match the compressed timeline's op rates).
	Clients int
	// Think is the per-client think time between operations. Default
	// 150 ms, yielding a few hundred op/s like the paper's Figure 9.
	Think time.Duration
	// Seed drives all randomness.
	Seed uint64
	// Runs is the repetition count for the false-positive analysis
	// (paper: 10). Default 5.
	Runs int
}

// applyDefaults fills zero fields.
func (c *Config) applyDefaults() {
	if c.MinuteScale <= 0 {
		c.MinuteScale = 5 * time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 40
	}
	if c.Think <= 0 {
		c.Think = 150 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 20141208
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
}

// Minute converts a paper-minute offset to virtual time.
func (c Config) Minute(m float64) time.Time {
	return Epoch.Add(time.Duration(float64(c.MinuteScale) * m))
}

// analyzerConfig returns the paper's analyzer settings with the window
// matched to one paper minute.
func (c Config) analyzerConfig() analyzer.Config {
	ac := analyzer.DefaultConfig()
	ac.Window = c.MinuteScale
	return ac
}

// runResult is the raw output of one simulated run.
type runResult struct {
	syns   []*synopsis.Synopsis
	errors []cluster.ErrorEvent
	dict   *logpoint.Dictionary
	// throughput[i] = completed client ops in paper-minute i.
	throughput []int
	// ops is the total completed operations.
	ops int
}

// windowIndex maps a virtual completion time to its paper minute.
func (c Config) windowIndex(at time.Time) int {
	return int(at.Sub(Epoch) / c.MinuteScale)
}

// run describes one simulated run: minutes paper minutes of the write-heavy
// workload. The zero value of every other field is the plain fault-free,
// tracked, untuned run.
type run struct {
	minutes int
	// seed is the run's offset from Config.Seed: the cluster is seeded with
	// Seed+seed and the operation generator with one more.
	seed uint64
	scenarioFaults
	// untracked turns every host's tracker off (Figure 7's baseline).
	untracked bool
	// batch, when above 1, buffers that many puts per client before one
	// multi-put RPC (HBase only: the YCSB 0.1.4 misconfiguration).
	batch int
	// cassandra and hbase adjust the system's config before construction.
	cassandra func(*cassandra.Config)
	hbase     func(*hbase.Config)
}

// sink returns what the run's trackers emit into — the channel the trace is
// drained from, behind the run's clock skew when it has one: the skewed host
// stamps synopses with its wrong clock, so start times shift by the offset
// and measured durations stretch by the factor.
func (r run) sink() (tracker.Sink, *stream.Channel) {
	ch := stream.NewChannel(1 << 22)
	skew := r.skew
	if skew == nil {
		return ch, ch
	}
	return tracker.SinkFunc(func(s *synopsis.Synopsis) {
		host, at := int(s.Host), s.Start
		if f := skew.DurationFactor(host, at); f != 1 {
			s.Duration = time.Duration(float64(s.Duration) * f)
		}
		if off := skew.Offset(host, at); off != 0 {
			s.Start = at.Add(off)
		}
		ch.Emit(s)
	}), ch
}

// drive owns what every run repeats: the closed client loop, the completed
// operations per paper minute, the drain of ch and the hosts' error logs. op
// issues client id's next operation and returns its completion time and how
// many client operations completed with it (0 when it failed).
func (c Config) drive(r run, cl *cluster.Cluster, ch *stream.Channel, clients int, op func(id int, at time.Time) (done time.Time, n int)) runResult {
	if r.untracked {
		for _, h := range cl.Hosts() {
			h.Tracker.SetEnabled(false)
		}
	}
	res := runResult{dict: cl.Dict, throughput: make([]int, r.minutes+1)}
	workload.NewClientPool(clients, Epoch, c.Think).Run(c.Minute(float64(r.minutes)), func(id int, at time.Time) time.Time {
		done, n := op(id, at)
		if w := c.windowIndex(done); n > 0 && w >= 0 && w < len(res.throughput) {
			res.throughput[w] += n
		}
		res.ops += n
		return done
	})
	res.syns = ch.Drain()
	for _, h := range cl.Hosts() {
		res.errors = append(res.errors, h.Errors()...)
	}
	return res
}

// issue executes op at the given time and re-issues it while the run's
// retry policy says to — the metastable ingredient: failed or merely slow
// operations consume cluster resources again.
func (r run) issue(exec func(workload.Op, time.Time) (time.Time, error), op workload.Op, at time.Time) (done time.Time, n int) {
	done, err := exec(op, at)
	for attempt := 1; r.retry.ShouldRetry(attempt, err, done.Sub(at)); attempt++ {
		at = done.Add(r.retry.Backoff)
		done, err = exec(op, at)
	}
	return done, completed(err)
}

// completed is an operation's contribution to the completed-operation count.
func completed(err error) int {
	if err != nil {
		return 0
	}
	return 1
}

// newGenerator is the write-heavy YCSB generator of every key-value run.
func newGenerator(seed uint64) *workload.Generator {
	return workload.NewGenerator(workload.Config{Records: 2000, Seed: seed, Mix: workload.WriteHeavy()})
}

// cassandraRun drives the Cassandra cluster through r and returns the
// synopsis trace.
func (c Config) cassandraRun(r run) (runResult, *cassandra.Cassandra, error) {
	sink, ch := r.sink()
	ccfg := cassandra.Config{Hosts: 4, Seed: c.Seed + r.seed, Sink: sink, Epoch: Epoch, Injector: r.inj, Hogs: r.hogs}
	if r.cassandra != nil {
		r.cassandra(&ccfg)
	}
	cass, err := cassandra.New(ccfg)
	if err != nil {
		return runResult{}, nil, err
	}
	gen := newGenerator(ccfg.Seed + 1)
	return c.drive(r, cass.Cluster(), ch, c.Clients, func(_ int, at time.Time) (time.Time, int) {
		return r.issue(cass.Execute, gen.Next(), at)
	}), cass, nil
}

// hbaseRun drives the HBase/HDFS cluster through r.
func (c Config) hbaseRun(r run) (runResult, *hbase.HBase, error) {
	sink, ch := r.sink()
	hcfg := hbase.Config{Hosts: 4, Seed: c.Seed + r.seed, Sink: sink, Epoch: Epoch, Injector: r.inj, Hogs: r.hogs}
	if r.hbase != nil {
		r.hbase(&hcfg)
	}
	hb, err := hbase.New(hcfg)
	if err != nil {
		return runResult{}, nil, err
	}
	gen := newGenerator(hcfg.Seed + 1)
	batches := make(map[int][]workload.Op) // per client, when r.batch > 1
	return c.drive(r, hb.Cluster(), ch, c.Clients, func(id int, at time.Time) (time.Time, int) {
		op := gen.Next()
		if r.batch <= 1 || !op.Type.IsWrite() {
			return r.issue(hb.Execute, op, at)
		}
		// Buffer the put client-side; only a full batch issues an RPC.
		op.Value = append([]byte(nil), op.Value...)
		buf := append(batches[id], op)
		if len(buf) < r.batch {
			batches[id] = buf
			return at.Add(time.Millisecond), 1 // client-side ack only
		}
		batches[id] = buf[:0]
		done, err := hb.ExecuteMulti(buf, at)
		return done, len(buf) * completed(err)
	}), hb, nil
}

// trainModel trains the paper-configured analyzer on a trace.
func (c Config) trainModel(trace []*synopsis.Synopsis) (*analyzer.Model, error) {
	return analyzer.Train(c.analyzerConfig(), trace)
}

// detect feeds a trace through a fresh detector and returns every anomaly
// plus the detector's late-synopsis count (the clock-skew cell's signature
// side effect).
func detect(model *analyzer.Model, trace []*synopsis.Synopsis) (anomalies []analyzer.Anomaly, late uint64) {
	det := analyzer.NewDetector(model)
	for _, s := range trace {
		anomalies = append(anomalies, det.Feed(s)...)
	}
	return append(anomalies, det.Flush()...), det.LateSynopses()
}

// ModelSummary trains the paper-configured analyzer on a fault-free
// Cassandra run and renders the learned per-stage signature tables — an
// inspection utility, not a paper artifact.
func ModelSummary(cfg Config) (string, error) {
	cfg.applyDefaults()
	res, _, err := cfg.cassandraRun(run{minutes: 15, seed: 2201})
	if err != nil {
		return "", err
	}
	model, err := cfg.trainModel(res.syns)
	if err != nil {
		return "", err
	}
	return report.ModelSummary(model, res.dict), nil
}
