// Command saad-analyzer is the standalone centralized statistical analyzer
// (paper Section 3.1): it accepts task-synopsis streams over TCP from the
// per-node task execution trackers, and either records a training trace
// into a model file or detects anomalies online against a trained model.
//
// Train a model from the first N synopses received:
//
//	saad-analyzer -listen :7077 -train 100000 -model model.json
//
// Detect in real time (with an optional dictionary for readable reports):
//
//	saad-analyzer -listen :7077 -model model.json -dict dict.json
//
// Detection runs on a sharded concurrent engine: synopses are routed across
// -shards workers (default GOMAXPROCS) by hashing the (host, stage) group
// key, with bit-identical detection semantics at any shard count:
//
//	saad-analyzer -listen :7077 -model model.json -shards 8
//
// Self-observability (all opt-in):
//
//	-http :9090            Prometheus /metrics, /debug/vars, pprof, /healthz,
//	                       /readyz, /statusz, /trace and /flight
//	-events anomalies.jsonl one self-describing JSON object per anomaly
//	-stats-interval 30s    periodic heartbeat line on stderr
//	-trace-sample 1000     trace 1 in N synopses end to end (emit → send →
//	                       recv → enqueue → detect) and run the anomaly
//	                       flight recorder; sampled anomaly events carry the
//	                       span and a flight snapshot
//
// Fault tolerance (detect mode): with -checkpoint the analyzer persists its
// model and live window state atomically every -checkpoint-interval and at
// shutdown, and restores from the file on the next start — a restarted
// analyzer resumes mid-window instead of forgetting accumulated evidence:
//
//	saad-analyzer -listen :7077 -model model.json -checkpoint analyzer.ckpt
//
// Model lifecycle (detect mode): with -model-store the analyzer serves the
// newest model from a versioned on-disk store (falling back to importing
// -model as version 1 when the store is empty), buffers recent synopses,
// and retrains every -retrain-every. A retrained candidate is stored with
// full lineage metadata and shadow-evaluated side-by-side with the serving
// model on the live stream (-shadow, on by default); when its anomaly rate
// stays within the false-positive budget it is hot-swapped into the engine
// at a window boundary with zero dropped synopses. The /model endpoint on
// -http exposes the lifecycle: GET returns the serving version, lineage,
// drift reports and shadow verdicts; POST ?action=retrain and
// ?action=promote drive it manually:
//
//	saad-analyzer -listen :7077 -model model.json -model-store ./models \
//	    -retrain-every 30m -http :9090
//
// The store is garbage-collected after each retrain to the newest
// -model-keep versions (default 16; 0 keeps every version forever).
//
// Graceful degradation (detect mode): with -admission-keep N, a shard
// whose queue stays saturated (a metastable retry storm, a healed
// partition replaying its spill) sheds load to a deterministic 1-in-N
// sample instead of blocking the connection handlers, and recovers via
// hysteresis once the queue stays calm. Shedding is accounted exactly
// (saad_analyzer_shed_synopses_total; degraded flags in /statusz and the
// /readyz detail) and enter/exit transitions land in the flight recorder.
// -shard-queue sizes the per-shard queues; -read-idle-timeout reaps
// connections whose peer went silent (a half-open link behind an
// asymmetric partition).
//
// Scaling out (detect mode): with -peer-id the analyzer joins a federated
// fleet. Each peer owns a slice of the (host, stage) group-key space on a
// consistent-hash ring, discovers the others through UDP gossip
// (-gossip-addr, seeded by -peers id=gossip-addr,...), forwards records the
// ring assigns elsewhere over the ordinary synopsis wire protocol, and on
// every ring change hands the open-window state of moved groups to their
// new owners over a TCP checkpoint-handoff channel (-handoff-addr) — so
// per-group detection state survives peers joining, leaving and dying:
//
//	saad-analyzer -listen :7077 -model model.json \
//	    -peer-id a1 -gossip-addr :7946 -peers a2=host2:7946,a3=host3:7946
//
// Federation cannot be combined with -model-store: a fleet serves one
// shared model. /statusz gains a federation view (membership table, owned
// hash ranges, ring epoch, handoff counters) and the saad_federation_*
// metric family tracks forwards and handoffs.
//
// On SIGINT/SIGTERM the analyzer shuts down gracefully: it flips /readyz
// to not-ready first (with -drain-grace it keeps serving that long so load
// balancers stop routing before the listener goes away), then stops
// accepting, drains already-received synopses, flushes open windows
// (reporting their anomalies), writes a final checkpoint, and closes the
// event log.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"saad/internal/analyzer"
	"saad/internal/federation"
	"saad/internal/lifecycle"
	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/report"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/trace"
	"saad/internal/tracker"
)

// readModelFile loads a serialized model from disk.
func readModelFile(path string) (*analyzer.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	model, err := analyzer.ReadModel(f)
	closeErr := f.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return model, nil
}

// latestIfServing reports whether the store's latest version is the model
// being served — the two serialise to the same bytes — and that version's
// metadata. An empty store holds no version of anything.
func latestIfServing(store *lifecycle.Store, serving *analyzer.Model) (lifecycle.Meta, bool, error) {
	latest, meta, err := store.LoadLatest()
	if errors.Is(err, lifecycle.ErrEmptyStore) {
		return lifecycle.Meta{}, false, nil
	}
	if err != nil {
		return lifecycle.Meta{}, false, err
	}
	var a, b bytes.Buffer
	if _, err := serving.WriteTo(&a); err != nil {
		return lifecycle.Meta{}, false, err
	}
	if _, err := latest.WriteTo(&b); err != nil {
		return lifecycle.Meta{}, false, err
	}
	return meta, bytes.Equal(a.Bytes(), b.Bytes()), nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "saad-analyzer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("saad-analyzer", flag.ContinueOnError)
	opts := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dict := logpoint.NewDictionary()
	if opts.dictPath != "" {
		f, err := os.Open(opts.dictPath)
		if err != nil {
			return err
		}
		loaded, err := logpoint.ReadDictionary(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		dict = loaded
	}

	if opts.trainN > 0 {
		return trainMode(opts.listen, opts.modelPath, opts.storeDir, opts.trainN, opts.window, opts.alpha)
	}
	return detectMode(dict, *opts)
}

// detectOptions is the daemon's configuration: one field per flag, bound by
// bindFlags, and two hooks for tests. The zero value of every detect-mode
// field means "off" or "the default".
type detectOptions struct {
	listen    string
	modelPath string
	dictPath  string
	trainN    int           // train mode: exit after this many synopses (0 = detect mode)
	window    time.Duration // train mode: detection window of the trained model
	alpha     float64       // train mode: significance level of the trained model

	httpAddr           string // serve /metrics, /debug/vars, pprof ("" = off)
	eventsPath         string // append anomalies as JSONL ("" = off)
	statsInterval      time.Duration
	checkpointPath     string        // persist/restore detector state ("" = off)
	checkpointInterval time.Duration // 0 = only at shutdown
	shards             int           // engine shard workers (0 = GOMAXPROCS)
	traceSample        int           // trace 1 in N synopses end to end (0 = off)
	storeDir           string        // versioned model store ("" = off)
	retrainEvery       time.Duration // periodic live retraining (0 = off)
	shadow             bool          // shadow-evaluate candidates before promotion
	keepVersions       int           // store versions retained by GC (0 = unbounded)
	readIdleTimeout    time.Duration // reap silent synopsis connections (0 = off)
	drainGrace         time.Duration // serve not-ready before draining on shutdown (0 = immediate)
	shardQueue         int           // per-shard queue capacity (0 = engine default)
	// admission is the graceful-degradation policy; -admission-keep sets
	// its KeepEvery, and KeepEvery 0 means pure backpressure.
	admission analyzer.AdmissionConfig

	peerID      string // analyzer fleet membership ("" = standalone)
	peers       string // seed peers, "id=gossip-addr,..."
	gossipAddr  string
	handoffAddr string
	ringVnodes  int

	stop      <-chan struct{}   // optional programmatic shutdown (tests)
	httpBound func(addr string) // called with the observability server's bound address (tests)
}

// bindFlags declares the command's flags on fs, each bound to its field of
// the returned options.
func bindFlags(fs *flag.FlagSet) *detectOptions {
	o := new(detectOptions)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7077", "address to accept synopsis streams on")
	fs.StringVar(&o.modelPath, "model", "saad-model.json", "model file (output when -train, input otherwise)")
	fs.StringVar(&o.dictPath, "dict", "", "optional log template dictionary for readable reports")
	fs.IntVar(&o.trainN, "train", 0, "train on the first N synopses and exit (0 = detect mode)")
	fs.DurationVar(&o.window, "window", time.Minute, "detection window")
	fs.Float64Var(&o.alpha, "alpha", 0.001, "significance level")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /debug/vars and pprof on this address (detect mode; empty = off)")
	fs.StringVar(&o.eventsPath, "events", "", "append anomalies as JSONL to this file (detect mode; empty = off)")
	fs.DurationVar(&o.statsInterval, "stats-interval", 30*time.Second, "stderr stats heartbeat interval (detect mode; 0 = off)")
	fs.StringVar(&o.checkpointPath, "checkpoint", "", "restore detector state from this file at startup and persist it periodically (detect mode; empty = off)")
	fs.DurationVar(&o.checkpointInterval, "checkpoint-interval", 30*time.Second, "how often to persist the checkpoint (detect mode; 0 = only at shutdown)")
	fs.IntVar(&o.shards, "shards", 0, "analyzer shard workers (detect mode; 0 = GOMAXPROCS)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "trace one in N synopses end to end through the pipeline and run the anomaly flight recorder (detect mode; 0 = off)")
	fs.StringVar(&o.storeDir, "model-store", "", "versioned model store directory: serve its latest version, record retrains as new versions (empty = off)")
	fs.DurationVar(&o.retrainEvery, "retrain-every", 0, "retrain a candidate from the live stream this often (detect mode; needs -model-store; 0 = only via POST /model)")
	fs.BoolVar(&o.shadow, "shadow", true, "shadow-evaluate retrained candidates against the serving model before promoting (detect mode; false = promote immediately)")
	fs.IntVar(&o.keepVersions, "model-keep", 16, "model store versions to retain, older ones are garbage-collected after each retrain (0 = keep all, unbounded)")
	fs.DurationVar(&o.readIdleTimeout, "read-idle-timeout", 0, "reap synopsis connections that deliver nothing for this long (0 = off)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 0, "on SIGTERM, keep serving with /readyz not-ready for this long before draining, so load balancers stop routing first (detect mode; 0 = drain immediately)")
	fs.IntVar(&o.admission.KeepEvery, "admission-keep", 0, "enable graceful degradation: past sustained shard-queue saturation, shed to 1-in-N sampling instead of blocking readers (detect mode; 0 = off, pure backpressure)")
	fs.IntVar(&o.shardQueue, "shard-queue", 0, "per-shard synopsis queue capacity (detect mode; 0 = default 1024)")
	fs.StringVar(&o.peerID, "peer-id", "", "federation: this analyzer's unique fleet id (detect mode; empty = standalone)")
	fs.StringVar(&o.peers, "peers", "", "federation: comma-separated seed peers as id=gossip-addr (needs -peer-id)")
	fs.StringVar(&o.gossipAddr, "gossip-addr", "127.0.0.1:0", "federation: UDP gossip bind address (needs -peer-id)")
	fs.StringVar(&o.handoffAddr, "handoff-addr", "127.0.0.1:0", "federation: TCP checkpoint-handoff bind address (needs -peer-id)")
	fs.IntVar(&o.ringVnodes, "ring-vnodes", 0, "federation: virtual nodes per peer on the consistent-hash ring (0 = 128)")
	return o
}

// fleetSeeds checks the federation settings and parses the seed list (nil
// for a standalone analyzer).
func (o *detectOptions) fleetSeeds() ([]federation.PeerInfo, error) {
	if o.peerID == "" {
		if o.peers != "" {
			return nil, errors.New("-peers needs -peer-id")
		}
		return nil, nil
	}
	if o.storeDir != "" {
		return nil, errors.New("federation (-peer-id) and the model lifecycle (-model-store) cannot be combined yet: a fleet must serve one shared model")
	}
	return parsePeerSeeds(o.peers)
}

// parsePeerSeeds parses "-peers id=gossip-addr,id=gossip-addr". Seeds need
// only a gossip address: the first exchanged table fills in the ingest and
// handoff addresses.
func parsePeerSeeds(spec string) ([]federation.PeerInfo, error) {
	if spec == "" {
		return nil, nil
	}
	var out []federation.PeerInfo
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q, want id=gossip-addr", part)
		}
		out = append(out, federation.PeerInfo{ID: id, GossipAddr: addr})
	}
	return out, nil
}

// trainMode collects synopses and writes the trained model — to the model
// file, and as a new version of the model store when one is configured.
func trainMode(listen, modelPath, storeDir string, n int, window time.Duration, alpha float64) error {
	cfg := analyzer.DefaultConfig()
	cfg.Window = window
	cfg.Alpha = alpha
	trainer, err := analyzer.NewTrainer(cfg)
	if err != nil {
		return err
	}
	// The server calls the sink from every connection's goroutine, and the
	// paper's deployment has one tracker per node: mu guards the trainer
	// (plain maps) and makes the n-th Add the only one to close done.
	// srv.Close below waits for every handler, so Train runs after the last.
	done := make(chan struct{})
	var mu sync.Mutex
	sink := tracker.SinkFunc(func(s *synopsis.Synopsis) {
		mu.Lock()
		defer mu.Unlock()
		if trainer.Count() >= n {
			return
		}
		trainer.Add(s)
		if trainer.Count() == n {
			close(done)
		}
	})
	srv, err := stream.Listen(listen, sink)
	if err != nil {
		return err
	}
	fmt.Printf("training: listening on %s for %d synopses\n", srv.Addr(), n)
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	select {
	case <-done:
	case <-interrupt:
		fmt.Println("interrupted; training on what arrived")
	}
	if err := srv.Close(); err != nil {
		return err
	}
	model, err := trainer.Train()
	if err != nil {
		return err
	}
	f, err := os.Create(modelPath)
	if err != nil {
		return err
	}
	if _, err := model.WriteTo(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("model over %d synopses written to %s\n", model.TrainedOn, modelPath)
	if storeDir != "" {
		store, err := lifecycle.Open(storeDir)
		if err != nil {
			return err
		}
		parent := 0
		if latest, err := store.Latest(); err == nil {
			parent = latest.Version
		}
		meta, err := store.Put(model, lifecycle.PutInfo{Parent: parent})
		if err != nil {
			return err
		}
		fmt.Printf("model stored as version %d in %s\n", meta.Version, storeDir)
	}
	return nil
}

// statuszInfo feeds the /statusz handler: static identity plus live
// counters read per request.
type statuszInfo struct {
	engine      *analyzer.Engine
	tracer      *trace.Tracer
	listen      string
	sampleEvery int
	trainedOn   int
	start       time.Time
	anomalies   func() int
	// connections snapshots the remote addresses of the live synopsis
	// streams.
	connections func() []string
	// federation snapshots the fleet membership view (nil = standalone).
	federation func() *federation.Status
}

// statuszHandler serves a one-page JSON operational summary: what this
// analyzer is, how long it has been up, and how much it has processed —
// the first thing to curl when an alert fires.
func statuszHandler(info statuszInfo) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		type shardStatus struct {
			Shard    int    `json:"shard"`
			Fed      uint64 `json:"fed"`
			Pending  int    `json:"pending"`
			QueueLen int    `json:"queue_len"`
			Degraded bool   `json:"degraded"`
		}
		doc := struct {
			Mode           string        `json:"mode"`
			Listen         string        `json:"listen"`
			UptimeSeconds  float64       `json:"uptime_seconds"`
			TrainedOn      int           `json:"model_trained_on"`
			Shards         []shardStatus `json:"shards"`
			Processed      uint64        `json:"processed"`
			Late           uint64        `json:"late"`
			Anomalies      int           `json:"anomalies"`
			Degraded       bool          `json:"degraded"`
			DegradedShards int           `json:"degraded_shards"`
			ShedSynopses   uint64        `json:"shed_synopses"`
			TraceSample    int           `json:"trace_sample_every"`
			TracedSpans    int           `json:"traced_spans_retained"`
			// Connections lists each live synopsis stream's remote address.
			Connections []string `json:"connections"`
			// Federation is the fleet membership view: peers with state and
			// heartbeat age, this peer's owned hash arcs, the ring epoch and
			// the handoff/forward counters. Absent for a standalone analyzer.
			Federation *federation.Status `json:"federation,omitempty"`
		}{
			Mode:           "detecting",
			Listen:         info.listen,
			UptimeSeconds:  time.Since(info.start).Seconds(),
			TrainedOn:      info.trainedOn,
			Processed:      info.engine.Fed(),
			Late:           info.engine.LateSynopses(),
			Anomalies:      info.anomalies(),
			Degraded:       info.engine.Degraded(),
			DegradedShards: info.engine.DegradedShards(),
			ShedSynopses:   info.engine.Shed(),
			TraceSample:    info.sampleEvery,
			TracedSpans:    len(info.tracer.Spans()),
		}
		for _, st := range info.engine.ShardStats() {
			doc.Shards = append(doc.Shards, shardStatus{Shard: st.Shard, Fed: st.Fed, Pending: st.Pending, QueueLen: st.QueueLen, Degraded: st.Degraded})
		}
		if info.connections != nil {
			doc.Connections = info.connections()
		}
		if info.federation != nil {
			doc.Federation = info.federation()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// lifecycleTee routes every received synopsis to the engine first (FIFO
// into the owning shard) and then to the lifecycle manager's observers.
// The engine recycles pooled synopses after observation, but the manager's
// retraining ring retains what it is handed — so the tee gives the manager
// its own clones, cut before the engine can release the originals.
type lifecycleTee struct {
	eng *analyzer.Engine
	mgr *lifecycle.Manager
}

func (t *lifecycleTee) Emit(s *synopsis.Synopsis) {
	c := s.Clone()
	t.eng.Emit(s)
	t.mgr.Observe(c)
}

// EmitBatch implements stream.BatchSink so v2 connections keep their
// amortized per-frame engine hand-off through the tee. The borrowed slice
// is read, passed on to FeedBatch (which copies out of it) and dropped.
func (t *lifecycleTee) EmitBatch(batch []*synopsis.Synopsis) {
	clones := make([]*synopsis.Synopsis, len(batch))
	for i, s := range batch {
		clones[i] = s.Clone()
	}
	t.eng.FeedBatch(batch)
	for _, c := range clones {
		t.mgr.Observe(c)
	}
}

// detectMode loads the model — or restores a full checkpoint when one
// exists — and runs the sharded analyzer engine as the TCP server's sink:
// every connection handler feeds decoded synopses straight into the engine,
// which fans them out across shard workers by (host, stage). Anomalies are
// printed (and logged) from the engine's anomaly sink as windows close.
func detectMode(dict *logpoint.Dictionary, opts detectOptions) error {
	seeds, err := opts.fleetSeeds()
	if err != nil {
		return err
	}
	// The full pipeline family is registered even though the standalone
	// analyzer tracks no tasks itself: every series exists at zero, so the
	// scrape schema is identical to an embedded Monitor's.
	pipe := metrics.NewPipeline(metrics.NewRegistry())
	pipe.Monitor.Mode.Set(2) // detecting

	// With -trace-sample, one in N synopses carries a pipeline span from
	// emit (or arrival, for untraced peers) through the detection verdict,
	// and the engine's flight recorder runs. The nil tracer keeps every
	// touch point a no-op.
	var tracer *trace.Tracer
	if opts.traceSample > 0 {
		tracer = trace.New(trace.Config{SampleEvery: opts.traceSample})
	}

	// The anomaly sink runs on shard worker goroutines; the mutex serializes
	// report output and latches the first event-log write error (a dead
	// event log must not stop detection mid-stream — the error surfaces at
	// shutdown). The count is an atomic outside it: /statusz and the
	// heartbeat must answer while a stalled stdout pipe or event log holds a
	// worker inside the sink.
	var (
		anomalies atomic.Int64
		sinkMu    sync.Mutex
		sinkErr   error
		events    *report.EventWriter
	)
	emit := func(found []analyzer.Anomaly) {
		anomalies.Add(int64(len(found)))
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for _, a := range found {
			fmt.Println(report.FormatAnomaly(a, dict))
		}
		if events != nil && len(found) > 0 {
			if err := events.WriteAll(found); err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
	}

	// The server decodes v2 frames into pooled synopses and the engine
	// releases each one back after its shard has observed it (shard cores
	// clone anything they retain), so the steady-state receive path
	// allocates nothing per record.
	pool := synopsis.NewPool(32768)
	engineOpts := []analyzer.EngineOption{
		analyzer.WithShards(opts.shards),
		analyzer.WithEngineMetrics(pipe.Analyzer),
		analyzer.WithAnomalySink(emit),
		analyzer.WithSynopsisRelease(pool.Put),
		analyzer.WithSynopsisReleaseBatch(pool.PutN),
	}
	if tracer != nil {
		engineOpts = append(engineOpts, analyzer.WithEngineTracer(tracer))
	}
	if opts.shardQueue > 0 {
		engineOpts = append(engineOpts, analyzer.WithShardQueue(opts.shardQueue))
	}
	if opts.admission.KeepEvery > 0 {
		engineOpts = append(engineOpts, analyzer.WithAdmission(opts.admission))
	}
	var store *lifecycle.Store
	if opts.storeDir != "" {
		opened, err := lifecycle.Open(opts.storeDir)
		if err != nil {
			return err
		}
		store = opened
	}
	var (
		eng         *analyzer.Engine
		servingMeta lifecycle.Meta
		hasServing  bool
	)
	if opts.checkpointPath != "" {
		if _, statErr := os.Stat(opts.checkpointPath); statErr == nil {
			restored, err := analyzer.LoadEngineCheckpointFile(opts.checkpointPath, engineOpts...)
			if err != nil {
				return fmt.Errorf("restore checkpoint %s: %w", opts.checkpointPath, err)
			}
			eng = restored
			fmt.Printf("restored checkpoint %s (%d tasks pending in open windows)\n",
				opts.checkpointPath, eng.PendingTasks())
		}
	}
	if eng == nil && store != nil {
		// Serve the store's latest version; an empty store bootstraps from
		// the -model file, recorded as version 1 so lineage starts there.
		switch model, meta, err := store.LoadLatest(); {
		case err == nil:
			eng = analyzer.NewEngine(model, engineOpts...)
			servingMeta, hasServing = meta, true
			fmt.Printf("serving model version %d from %s\n", meta.Version, opts.storeDir)
		case errors.Is(err, lifecycle.ErrEmptyStore):
			model, err := readModelFile(opts.modelPath)
			if err != nil {
				return err
			}
			meta, err := store.Put(model, lifecycle.PutInfo{})
			if err != nil {
				return err
			}
			eng = analyzer.NewEngine(model, engineOpts...)
			servingMeta, hasServing = meta, true
			fmt.Printf("imported %s into %s as version %d\n", opts.modelPath, opts.storeDir, meta.Version)
		default:
			return err
		}
	}
	if eng == nil {
		model, err := readModelFile(opts.modelPath)
		if err != nil {
			return err
		}
		eng = analyzer.NewEngine(model, engineOpts...)
	}
	model := eng.Model()

	var closers []func() error // teardown for early error returns, LIFO
	fail := func(err error) error {
		for i := len(closers) - 1; i >= 0; i-- {
			_ = closers[i]()
		}
		_ = eng.Close()
		return err
	}

	if store != nil && !hasServing {
		// Restored from a checkpoint, which carries the serving model but
		// not its version: find it in the store, or the manager would
		// report version 0 and record the next retrain as a root.
		meta, same, err := latestIfServing(store, model)
		if err != nil {
			return fail(err)
		}
		if same {
			servingMeta, hasServing = meta, true
			fmt.Printf("restored model is version %d of %s\n", meta.Version, opts.storeDir)
		} else {
			fmt.Printf("restored model is not the latest version in %s: serving it as version 0, lineage restarts\n", opts.storeDir)
		}
	}

	if opts.eventsPath != "" {
		ef, err := os.OpenFile(opts.eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, sync.OnceValue(ef.Close))
		events = report.NewEventWriter(ef, dict, model.Config.Window)
		if opts.peerID != "" {
			// Merged fleet event logs stay attributable to the emitting peer.
			events.SetPeer(opts.peerID)
		}
		if tracer != nil {
			// Each anomaly event carries what the pipeline was doing around
			// emit time: the flight recorder's most recent events.
			events.SetFlightSnapshot(func() []trace.Event { return tracer.FlightSnapshot(64) })
		}
	}
	closeEvents := func() error { return nil }
	if len(closers) > 0 {
		closeEvents = closers[len(closers)-1]
	}

	// With a model store, a lifecycle manager rides shotgun on the stream:
	// it buffers recent synopses for retraining, watches for drift, shadow-
	// evaluates candidates and hot-swaps promoted models into the engine.
	var mgr *lifecycle.Manager
	if store != nil {
		mcfg := lifecycle.ManagerConfig{
			DisableShadow: !opts.shadow,
			KeepVersions:  opts.keepVersions,
		}
		mopts := []lifecycle.ManagerOption{lifecycle.WithLifecycleMetrics(pipe.Lifecycle)}
		if tracer != nil {
			mopts = append(mopts, lifecycle.WithLifecycleTracer(tracer))
		}
		if hasServing {
			mopts = append(mopts, lifecycle.WithServingVersion(servingMeta))
		}
		mgr = lifecycle.NewManager(eng, store, mcfg, mopts...)
	}

	// The engine is the server's sink: each connection handler's Emit routes
	// directly to the owning shard, so connections are decoded in parallel
	// and the per-connection synopsis order is preserved per (host, stage)
	// group — exactly the ordering the detection semantics need. With a
	// lifecycle manager the sink is a tee: engine first (FIFO into the
	// shard), then the manager's observers.
	var sink tracker.Sink = eng
	if mgr != nil {
		sink = &lifecycleTee{eng: eng, mgr: mgr}
	}
	// In a fleet the peer fronts the engine instead: records whose group the
	// consistent-hash ring assigns to this peer feed the engine, the rest are
	// forwarded to their owners, and ring changes move open-window state over
	// the checkpoint-handoff channel.
	var peer *federation.Peer
	var gossiper *federation.Gossiper
	if opts.peerID != "" {
		p, err := federation.NewPeer(federation.PeerConfig{
			Self:       federation.PeerInfo{ID: opts.peerID, HandoffAddr: opts.handoffAddr},
			Engine:     eng,
			Membership: federation.MembershipConfig{VNodes: opts.ringVnodes},
			Metrics:    metrics.NewFederationMetrics(pipe.Registry),
			Release:    pool.Put,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "saad-analyzer: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fail(err)
		}
		peer = p
		closers = append(closers, sync.OnceValue(peer.Close))
		sink = peer
	}
	srvMetrics := metrics.NewTCPServerMetrics(pipe.Registry)
	srvOpts := []stream.ServerOption{
		stream.WithServerMetrics(srvMetrics),
		stream.WithServerPool(pool),
	}
	if opts.readIdleTimeout > 0 {
		srvOpts = append(srvOpts, stream.WithReadIdleTimeout(opts.readIdleTimeout))
	}
	if tracer != nil {
		// Frames from old (trace-unaware) trackers get a partial span
		// originated at arrival, so wire-side latency still shows up.
		srvOpts = append(srvOpts, stream.WithServerSampler(tracer.Sampler()))
	}
	srv, err := stream.Listen(opts.listen, sink, srvOpts...)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, srv.Close)
	fmt.Printf("detecting: listening on %s (model trained on %d synopses, %d shards)\n",
		srv.Addr(), model.TrainedOn, eng.Shards())
	if peer != nil {
		// The ingest address resolves only now (a "-listen :0" binds late);
		// publish it so peers can open forward links, then start gossiping
		// and seed the fleet view.
		peer.Membership().SetSelfIngestAddr(srv.Addr())
		g, err := federation.StartGossiper(peer.Membership(), opts.gossipAddr, 0)
		if err != nil {
			return fail(err)
		}
		gossiper = g
		closers = append(closers, gossiper.Close)
		for _, seed := range seeds {
			if seed.ID == opts.peerID {
				continue // self in a shared seed list
			}
			peer.Membership().AddPeer(seed)
		}
		fmt.Printf("federation: peer %s gossiping on %s, handoff on %s (%d seeds)\n",
			opts.peerID, gossiper.Addr(), peer.Self().HandoffAddr, len(seeds))
	}
	var ready atomic.Bool
	ready.Store(true)

	if opts.httpAddr != "" {
		mux := metrics.NewMux(pipe.Registry)
		if mgr != nil {
			mux.Handle("/model", mgr)
		}
		// Readiness carries the degraded-mode detail: a shedding analyzer is
		// still ready (it keeps a deterministic sample flowing), but the
		// orchestrator can see it is running hot and by how much.
		mux.Handle("/readyz", metrics.ReadyDetailHandler(ready.Load, func() map[string]any {
			return map[string]any{
				"degraded":        eng.Degraded(),
				"degraded_shards": eng.DegradedShards(),
				"shed_synopses":   eng.Shed(),
			}
		}))
		// Trace surfaces are always mounted; with tracing off they serve
		// empty documents rather than a confusing 404.
		mux.Handle("/trace", tracer.SpansHandler())
		mux.Handle("/flight", tracer.FlightHandler(256))
		mux.Handle("/statusz", statuszHandler(statuszInfo{
			engine:      eng,
			tracer:      tracer,
			listen:      srv.Addr(),
			sampleEvery: opts.traceSample,
			trainedOn:   model.TrainedOn,
			start:       time.Now(),
			anomalies:   func() int { return int(anomalies.Load()) },
			connections: srv.Remotes,
			federation: func() *federation.Status {
				if peer == nil {
					return nil
				}
				st := peer.Status()
				return &st
			},
		}))
		msrv, err := metrics.ServeMux(opts.httpAddr, mux)
		if err != nil {
			return fail(err)
		}
		defer func() { _ = msrv.Close() }()
		fmt.Printf("metrics: http://%s/metrics (also /debug/vars, /debug/pprof)\n", msrv.Addr())
		if opts.httpBound != nil {
			opts.httpBound(msrv.Addr())
		}
		if mgr != nil {
			fmt.Printf("model admin: http://%s/model (GET status, POST action=retrain|promote)\n", msrv.Addr())
		}
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)

	var heartbeat <-chan time.Time
	if opts.statsInterval > 0 {
		ticker := time.NewTicker(opts.statsInterval)
		defer ticker.Stop()
		heartbeat = ticker.C
	}
	var checkpoint <-chan time.Time
	if opts.checkpointPath != "" && opts.checkpointInterval > 0 {
		ticker := time.NewTicker(opts.checkpointInterval)
		defer ticker.Stop()
		checkpoint = ticker.C
	}
	var retrain <-chan time.Time
	if mgr != nil && opts.retrainEvery > 0 {
		ticker := time.NewTicker(opts.retrainEvery)
		defer ticker.Stop()
		retrain = ticker.C
	}

	// shutdown is the graceful exit: flip /readyz to not-ready FIRST (so
	// load balancers stop routing new streams while existing ones still
	// work), optionally keep serving through the drain grace, then stop
	// accepting (which waits for the connection handlers, so everything
	// received is enqueued on a shard), flush open windows (their anomalies
	// reach the sink), persist the final checkpoint, stop the shard
	// workers, and close the event log — in that order, collecting the
	// first error without skipping later steps.
	shutdown := func() error {
		ready.Store(false)
		if opts.drainGrace > 0 {
			time.Sleep(opts.drainGrace)
		}
		err := srv.Close()
		if peer != nil {
			// Graceful fleet exit: hand every open group to the survivors
			// (Leave's rebalance runs synchronously), push out anything still
			// buffered on the forward links, then stop gossiping and release
			// the sockets. The engine flush below then closes only windows
			// this peer still owns — for a clean leave, none.
			peer.Leave()
			peer.Flush()
			if gossiper != nil {
				if gErr := gossiper.Close(); err == nil {
					err = gErr
				}
			}
			if pErr := peer.Close(); err == nil {
				err = pErr
			}
		}
		eng.Flush()
		if opts.checkpointPath != "" {
			if ckErr := eng.WriteCheckpointFile(opts.checkpointPath); err == nil {
				err = ckErr
			}
		}
		if closeErr := eng.Close(); err == nil {
			err = closeErr
		}
		sinkMu.Lock()
		if err == nil {
			err = sinkErr
		}
		sinkMu.Unlock()
		if closeErr := closeEvents(); err == nil {
			err = closeErr
		}
		fmt.Printf("processed %d synopses (%d late)\n", eng.Fed(), eng.LateSynopses())
		return err
	}
	for {
		select {
		case <-heartbeat:
			var shardLine strings.Builder
			for _, st := range eng.ShardStats() {
				fmt.Fprintf(&shardLine, " s%d=%d/p%d/q%d", st.Shard, st.Fed, st.Pending, st.QueueLen)
			}
			fmt.Fprintf(os.Stderr, "saad-analyzer: processed=%d anomalies=%d shards=%d goroutines=%d%s\n",
				eng.Fed(), anomalies.Load(), eng.Shards(), runtime.NumGoroutine(), shardLine.String())
		case <-checkpoint:
			// A failed periodic checkpoint must not stop detection; the
			// shutdown checkpoint still gets a chance to persist state.
			if err := eng.WriteCheckpointFile(opts.checkpointPath); err != nil {
				fmt.Fprintln(os.Stderr, "saad-analyzer: checkpoint:", err)
			}
		case <-retrain:
			// A failed retrain (typically too few buffered synopses yet)
			// must not stop detection; the next tick retries.
			if meta, err := mgr.Retrain(); err != nil {
				fmt.Fprintln(os.Stderr, "saad-analyzer: retrain:", err)
			} else {
				fmt.Fprintf(os.Stderr, "saad-analyzer: retrained candidate version %d (parent %d)\n",
					meta.Version, meta.Parent)
			}
		case <-interrupt:
			return shutdown()
		case <-opts.stop:
			return shutdown()
		}
	}
}
