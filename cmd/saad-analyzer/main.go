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
// version a versioned on-disk store records as serving — the last one
// promoted, never a candidate that was only stored (falling back to
// importing -model as version 1 when the store is empty), buffers recent
// synopses, and retrains every -retrain-every. A retrained candidate is
// stored with full lineage metadata and shadow-evaluated side-by-side with
// the serving model on the live stream; when its anomaly rate stays within
// the false-positive budget it is hot-swapped into the engine at a window
// boundary with zero dropped synopses. The /model endpoint on
// -http exposes the lifecycle: GET returns the serving version, lineage and
// shadow verdicts; POST ?action=retrain and ?action=promote drive it
// manually:
//
//	saad-analyzer -listen :7077 -model model.json -model-store ./models \
//	    -retrain-every 30m -http :9090
//
// The store is garbage-collected after each retrain to the newest
// -model-keep versions plus the serving one (default 16; 0 keeps every
// version forever).
//
// Overload (detect mode): a full engine queue blocks the connection handler
// feeding it, which stops reading its socket until the worker catches up —
// nothing received is dropped, and saad_analyzer_shard_overflows_total
// counts each wait. -read-idle-timeout reaps connections whose peer went
// silent (a half-open link behind an asymmetric partition).
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

// storedIfServing reports whether the version the store would serve
// (Store.LoadServing) is the model being served — the two serialise to the
// same bytes — and that version's metadata. An empty store holds no version
// of anything.
func storedIfServing(store *lifecycle.Store, serving *analyzer.Model) (lifecycle.Meta, bool, error) {
	stored, meta, err := store.LoadServing()
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
	if _, err := stored.WriteTo(&b); err != nil {
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
		return trainMode(opts.listen, opts.modelPath, opts.storeDir, opts.trainN, opts.window)
	}
	return detectMode(dict, *opts)
}

// detectOptions is the daemon's configuration: one field per flag, bound by
// bindFlags, and nothing else. The zero value of every detect-mode field
// means "off" or "the default".
type detectOptions struct {
	listen    string
	modelPath string
	dictPath  string
	trainN    int           // train mode: exit after this many synopses (0 = detect mode)
	window    time.Duration // train mode: detection window of the trained model

	httpAddr           string // serve /metrics, /debug/vars, pprof ("" = off)
	eventsPath         string // append anomalies as JSONL ("" = off)
	statsInterval      time.Duration
	checkpointPath     string        // persist/restore detector state ("" = off)
	checkpointInterval time.Duration // 0 = only at shutdown
	traceSample        int           // trace 1 in N synopses end to end (0 = off)
	storeDir           string        // versioned model store ("" = off)
	retrainEvery       time.Duration // periodic live retraining (0 = off)
	keepVersions       int           // store versions retained by GC (0 = unbounded)
	readIdleTimeout    time.Duration // reap silent synopsis connections (0 = off)
	drainGrace         time.Duration // serve not-ready before draining on shutdown (0 = immediate)

	peerID      string // analyzer fleet membership ("" = standalone)
	peers       string // seed peers, "id=gossip-addr,..."
	gossipAddr  string
	handoffAddr string
	ringVnodes  int
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
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /debug/vars and pprof on this address (detect mode; empty = off)")
	fs.StringVar(&o.eventsPath, "events", "", "append anomalies as JSONL to this file (detect mode; empty = off)")
	fs.DurationVar(&o.statsInterval, "stats-interval", 30*time.Second, "stderr stats heartbeat interval (detect mode; 0 = off)")
	fs.StringVar(&o.checkpointPath, "checkpoint", "", "restore detector state from this file at startup and persist it periodically (detect mode; empty = off)")
	fs.DurationVar(&o.checkpointInterval, "checkpoint-interval", 30*time.Second, "how often to persist the checkpoint (detect mode; 0 = only at shutdown)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "trace one in N synopses end to end through the pipeline and run the anomaly flight recorder (detect mode; 0 = off)")
	fs.StringVar(&o.storeDir, "model-store", "", "versioned model store directory: serve the version it records as serving, store retrains as new versions (empty = off)")
	fs.DurationVar(&o.retrainEvery, "retrain-every", 0, "retrain a candidate from the live stream this often (detect mode; needs -model-store; 0 = only via POST /model)")
	fs.IntVar(&o.keepVersions, "model-keep", 16, "model store versions to retain, older ones are garbage-collected after each retrain (0 = keep all, unbounded)")
	fs.DurationVar(&o.readIdleTimeout, "read-idle-timeout", 0, "reap synopsis connections that deliver nothing for this long (0 = off)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 0, "on SIGTERM, keep serving with /readyz not-ready for this long before draining, so load balancers stop routing first (detect mode; 0 = drain immediately)")
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
// file, and as a new version of the model store when one is configured. The
// model is trained at the paper's significance level (DefaultConfig's Alpha).
func trainMode(listen, modelPath, storeDir string, n int, window time.Duration) error {
	cfg := analyzer.DefaultConfig()
	cfg.Window = window
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
		// Train mode is the operator choosing a model: detect mode serves it.
		meta, err := store.PutServing(model)
		if err != nil {
			return err
		}
		fmt.Printf("model stored as version %d in %s\n", meta.Version, storeDir)
	}
	return nil
}

// daemon is detect mode as one value: what start opened, in the fields close
// shuts. The bound addresses are read off it — srv.Addr(), http.Addr(),
// gossiper.Addr(), peer.Self().HandoffAddr.
type daemon struct {
	opts    detectOptions
	dict    *logpoint.Dictionary
	started time.Time
	// tracer is nil without -trace-sample, which keeps every touch point a
	// no-op; with it, one in N synopses carries a pipeline span from emit (or
	// arrival, for untraced peers) through the detection verdict, and the
	// engine's flight recorder runs.
	tracer *trace.Tracer
	eng    *analyzer.Engine
	// trainedOn is /statusz's model_trained_on, read once: Engine.Model
	// copies the model under the control lock, which a scrape must not take.
	trainedOn int
	mgr       *lifecycle.Manager // nil without -model-store
	peer      *federation.Peer   // nil outside a fleet, as is gossiper
	gossiper  *federation.Gossiper
	srv       *stream.Server
	http      *metrics.Server // nil without -http

	// ready is /readyz: true from the end of start until close begins.
	ready  atomic.Bool
	closed bool

	// The anomaly sink runs on the engine's worker goroutine; sinkMu
	// serializes report output and latches the first event-log write error (a
	// dead event log must not stop detection mid-stream — the error surfaces
	// at shutdown). The count is an atomic outside it: /statusz and the
	// heartbeat must answer while a stalled stdout pipe or event log holds
	// the worker inside the sink.
	anomalies  atomic.Int64
	sinkMu     sync.Mutex
	sinkErr    error
	events     *report.EventWriter // nil without -events, as is eventsFile
	eventsFile *os.File
}

// report is the engine's anomaly sink: print, and log when -events is set.
func (d *daemon) report(found []analyzer.Anomaly) {
	d.anomalies.Add(int64(len(found)))
	d.sinkMu.Lock()
	defer d.sinkMu.Unlock()
	for _, a := range found {
		fmt.Println(report.FormatAnomaly(a, d.dict))
	}
	if d.events != nil && len(found) > 0 {
		if err := d.events.WriteAll(found); err != nil && d.sinkErr == nil {
			d.sinkErr = err
		}
	}
}

// statusz serves a one-page JSON operational summary: what this analyzer
// is, how long it has been up, and how much it has processed — the first
// thing to curl when an alert fires.
func (d *daemon) statusz(w http.ResponseWriter, _ *http.Request) {
	st := d.eng.ShardStats()[0]
	doc := struct {
		Mode          string  `json:"mode"`
		Listen        string  `json:"listen"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		TrainedOn     int     `json:"model_trained_on"`
		// QueueLen is the messages queued for the engine's worker; Pending
		// the tasks in its open windows, as of the last message it finished.
		QueueLen    int    `json:"queue_len"`
		Pending     int    `json:"pending"`
		Processed   uint64 `json:"processed"`
		Late        uint64 `json:"late"`
		Anomalies   int    `json:"anomalies"`
		TraceSample int    `json:"trace_sample_every"`
		TracedSpans int    `json:"traced_spans_retained"`
		// Connections lists each live synopsis stream's remote address.
		Connections []string `json:"connections"`
		// Federation is the fleet membership view: peers with state and
		// heartbeat age, this peer's owned hash arcs, the ring epoch and
		// the handoff/forward counters. Absent for a standalone analyzer.
		Federation *federation.Status `json:"federation,omitempty"`
	}{
		Mode:          "detecting",
		Listen:        d.srv.Addr(),
		UptimeSeconds: time.Since(d.started).Seconds(),
		TrainedOn:     d.trainedOn,
		QueueLen:      st.QueueLen,
		Pending:       st.Pending,
		Processed:     d.eng.Fed(),
		Late:          d.eng.LateSynopses(),
		Anomalies:     int(d.anomalies.Load()),
		TraceSample:   d.opts.traceSample,
		TracedSpans:   len(d.tracer.Spans()),
		Connections:   d.srv.Remotes(),
	}
	if d.peer != nil {
		st := d.peer.Status()
		doc.Federation = &st
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// loadEngine builds the serving engine from the first source that has one:
// the checkpoint file (the model and the live window state), the version the
// store records as serving — never a newer one, which is a candidate nothing
// has promoted — or the -model file, which an empty store imports as version
// 1, so lineage starts there. serving is the store version the engine
// serves: nil without a store, and nil when a checkpoint restored a model
// that is not the one the store would serve.
func loadEngine(opts *detectOptions, store *lifecycle.Store, engineOpts []analyzer.EngineOption) (eng *analyzer.Engine, serving *lifecycle.Meta, err error) {
	if _, statErr := os.Stat(opts.checkpointPath); statErr == nil { // no -checkpoint, no file: Stat("") fails
		eng, err = analyzer.LoadEngineCheckpointFile(opts.checkpointPath, engineOpts...)
		if err != nil {
			return nil, nil, fmt.Errorf("restore checkpoint %s: %w", opts.checkpointPath, err)
		}
		fmt.Printf("restored checkpoint %s (%d tasks pending in open windows)\n",
			opts.checkpointPath, eng.PendingTasks())
		if store == nil {
			return eng, nil, nil
		}
		// The checkpoint carries the serving model but not its version: find
		// it in the store, or the manager would report version 0 and record
		// the next retrain as a root.
		meta, same, err := storedIfServing(store, eng.Model())
		if err != nil {
			_ = eng.Close()
			return nil, nil, err
		}
		if !same {
			fmt.Printf("restored model is not the serving version of %s: serving it as version 0, lineage restarts\n", opts.storeDir)
			return eng, nil, nil
		}
		fmt.Printf("restored model is version %d of %s\n", meta.Version, opts.storeDir)
		return eng, &meta, nil
	}
	if store == nil {
		model, err := readModelFile(opts.modelPath)
		if err != nil {
			return nil, nil, err
		}
		return analyzer.NewEngine(model, engineOpts...), nil, nil
	}
	model, meta, err := store.LoadServing()
	switch {
	case err == nil:
		fmt.Printf("serving model version %d from %s\n", meta.Version, opts.storeDir)
	case errors.Is(err, lifecycle.ErrEmptyStore):
		if model, err = readModelFile(opts.modelPath); err != nil {
			return nil, nil, err
		}
		if meta, err = store.Put(model, lifecycle.PutInfo{}); err != nil {
			return nil, nil, err
		}
		fmt.Printf("imported %s into %s as version %d\n", opts.modelPath, opts.storeDir, meta.Version)
	default:
		return nil, nil, err
	}
	return analyzer.NewEngine(model, engineOpts...), &meta, nil
}

// start brings detect mode up and returns once every listener is bound: the
// engine loaded, the sink chain server → {engine | manager → engine | peer →
// engine} assembled, the fleet joined, the observability server mounted. On
// any error it closes what it had opened.
func start(dict *logpoint.Dictionary, opts detectOptions) (_ *daemon, err error) {
	seeds, err := opts.fleetSeeds()
	if err != nil {
		return nil, err
	}
	// The full pipeline family is registered even though the standalone
	// analyzer tracks no tasks itself: every series exists at zero, so the
	// scrape schema is identical to an embedded Monitor's.
	pipe := metrics.NewPipeline(metrics.NewRegistry())
	pipe.Monitor.Mode.Set(2) // detecting
	d := &daemon{opts: opts, dict: dict, started: time.Now()}
	defer func() {
		if err != nil {
			_ = d.close()
		}
	}()
	if opts.traceSample > 0 {
		d.tracer = trace.New(trace.Config{SampleEvery: opts.traceSample})
	}

	// The server decodes v2 frames into pooled synopses and the engine
	// releases each one back after its worker has observed it (the core
	// clones anything it retains), so the steady-state receive path
	// allocates nothing per record.
	pool := synopsis.NewPool(32768)
	engineOpts := []analyzer.EngineOption{
		analyzer.WithEngineMetrics(pipe.Analyzer),
		analyzer.WithAnomalySink(d.report),
		analyzer.WithSynopsisRelease(pool.Put),
		analyzer.WithSynopsisReleaseBatch(pool.PutN),
	}
	if d.tracer != nil {
		engineOpts = append(engineOpts, analyzer.WithEngineTracer(d.tracer))
	}
	var store *lifecycle.Store
	if opts.storeDir != "" {
		if store, err = lifecycle.Open(opts.storeDir); err != nil {
			return nil, err
		}
	}
	var serving *lifecycle.Meta
	if d.eng, serving, err = loadEngine(&opts, store, engineOpts); err != nil {
		return nil, err
	}
	if serving != nil {
		// What this start serves is what the next one must: a freshly
		// imported -model, or the newest version of a store that had no
		// record yet, would otherwise lose to the first retrain's candidate.
		if err = store.MarkServing(serving.Version); err != nil {
			return nil, err
		}
	}
	model := d.eng.Model()
	d.trainedOn = model.TrainedOn

	if opts.eventsPath != "" {
		d.eventsFile, err = os.OpenFile(opts.eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		d.events = report.NewEventWriter(d.eventsFile, dict, model.Config.Window)
		if opts.peerID != "" {
			// Merged fleet event logs stay attributable to the emitting peer.
			d.events.SetPeer(opts.peerID)
		}
		if d.tracer != nil {
			// Each anomaly event carries what the pipeline was doing around
			// emit time: the flight recorder's most recent events.
			d.events.SetFlightSnapshot(func() []trace.Event { return d.tracer.FlightSnapshot(64) })
		}
	}

	// The engine is the server's sink: each connection handler's frame goes
	// onto the engine's queue as one message, so connections are decoded in
	// parallel and the per-connection synopsis order is preserved — exactly
	// the ordering the detection semantics need. With a model store the lifecycle manager stands in front of it:
	// it feeds the engine, then buffers clones for retraining,
	// shadow-evaluates candidates and hot-swaps promoted models in.
	var sink tracker.Sink = d.eng
	if store != nil {
		mcfg := lifecycle.ManagerConfig{KeepVersions: opts.keepVersions}
		mopts := []lifecycle.ManagerOption{lifecycle.WithLifecycleMetrics(pipe.Lifecycle)}
		if serving != nil {
			mopts = append(mopts, lifecycle.WithServingVersion(*serving))
		}
		d.mgr = lifecycle.NewManager(d.eng, store, mcfg, mopts...)
		sink = d.mgr
	}
	// In a fleet the peer fronts the engine instead: records whose group the
	// consistent-hash ring assigns to this peer feed the engine, the rest are
	// forwarded to their owners, and ring changes move open-window state over
	// the checkpoint-handoff channel.
	if opts.peerID != "" {
		d.peer, err = federation.NewPeer(federation.PeerConfig{
			Self:       federation.PeerInfo{ID: opts.peerID, HandoffAddr: opts.handoffAddr},
			Engine:     d.eng,
			Membership: federation.MembershipConfig{VNodes: opts.ringVnodes},
			Metrics:    metrics.NewFederationMetrics(pipe.Registry),
			Release:    pool.Put,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "saad-analyzer: "+format+"\n", args...)
			},
		})
		if err != nil {
			return nil, err
		}
		sink = d.peer
	}
	srvOpts := []stream.ServerOption{
		stream.WithServerMetrics(metrics.NewTCPServerMetrics(pipe.Registry)),
		stream.WithServerPool(pool),
	}
	if opts.readIdleTimeout > 0 {
		srvOpts = append(srvOpts, stream.WithReadIdleTimeout(opts.readIdleTimeout))
	}
	if d.tracer != nil {
		// Frames from old (trace-unaware) trackers get a partial span
		// originated at arrival, so wire-side latency still shows up.
		srvOpts = append(srvOpts, stream.WithServerSampler(d.tracer.Sampler()))
	}
	if d.srv, err = stream.Listen(opts.listen, sink, srvOpts...); err != nil {
		return nil, err
	}
	fmt.Printf("detecting: listening on %s (model trained on %d synopses)\n",
		d.srv.Addr(), model.TrainedOn)
	if d.peer != nil {
		// The ingest address resolves only now (a "-listen :0" binds late);
		// publish it so peers can open forward links, then start gossiping
		// and seed the fleet view.
		d.peer.Membership().SetSelfIngestAddr(d.srv.Addr())
		if d.gossiper, err = federation.StartGossiper(d.peer.Membership(), opts.gossipAddr, 0); err != nil {
			return nil, err
		}
		for _, seed := range seeds {
			if seed.ID == opts.peerID {
				continue // self in a shared seed list
			}
			d.peer.Membership().AddPeer(seed)
		}
		fmt.Printf("federation: peer %s gossiping on %s, handoff on %s (%d seeds)\n",
			opts.peerID, d.gossiper.Addr(), d.peer.Self().HandoffAddr, len(seeds))
	}

	if opts.httpAddr != "" {
		mux := metrics.NewMux(pipe.Registry)
		if d.mgr != nil {
			mux.Handle("/model", d.mgr)
		}
		mux.Handle("/readyz", metrics.ReadyHandler(d.ready.Load))
		// Trace surfaces are always mounted; with tracing off they serve
		// empty documents rather than a confusing 404.
		mux.Handle("/trace", d.tracer.SpansHandler())
		mux.Handle("/flight", d.tracer.FlightHandler(256))
		mux.HandleFunc("/statusz", d.statusz)
		if d.http, err = metrics.ServeMux(opts.httpAddr, mux); err != nil {
			return nil, err
		}
		fmt.Printf("metrics: http://%s/metrics (also /debug/vars, /debug/pprof)\n", d.http.Addr())
		if d.mgr != nil {
			fmt.Printf("model admin: http://%s/model (GET status, POST action=retrain|promote)\n", d.http.Addr())
		}
	}
	d.ready.Store(true)
	return d, nil
}

// close is the only teardown, of a daemon that ran and of one start gave up
// on; a second call does nothing. Its steps, in order, each skipped when
// what it shuts was never opened, the first error kept without skipping
// later steps:
//
//  1. flip /readyz to not-ready, so load balancers stop routing new streams
//     while existing ones still work, and keep serving through -drain-grace;
//  2. stop accepting synopses — which waits for the connection handlers, so
//     everything received is queued for the engine's worker;
//  3. leave the fleet: hand every open group to the survivors (Leave's
//     rebalance runs synchronously), push out what is still buffered on the
//     forward links, stop gossiping, release the sockets;
//  4. flush the open windows this analyzer still owns (for a clean leave,
//     none) — their anomalies reach the sink — and write the final
//     checkpoint;
//  5. stop the engine's worker, surface a latched event-log error, close the
//     event log, print the summary line;
//  6. stop the observability server.
//
// Draining (the grace in 1, the leave in 3, all of 4 and the summary) is
// for a daemon that finished starting; one that did not only lets go.
func (d *daemon) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	ran := d.ready.Swap(false)
	if ran && d.opts.drainGrace > 0 {
		time.Sleep(d.opts.drainGrace)
	}
	if d.srv != nil {
		keep(d.srv.Close())
	}
	if d.peer != nil {
		if ran {
			d.peer.Leave()
			d.peer.Flush()
		}
		if d.gossiper != nil {
			keep(d.gossiper.Close())
		}
		keep(d.peer.Close())
	}
	if d.eng != nil {
		if ran {
			d.eng.Flush()
			if d.opts.checkpointPath != "" {
				keep(d.eng.WriteCheckpointFile(d.opts.checkpointPath))
			}
		}
		keep(d.eng.Close())
	}
	d.sinkMu.Lock()
	keep(d.sinkErr)
	d.sinkMu.Unlock()
	if d.eventsFile != nil {
		keep(d.eventsFile.Close())
	}
	if ran {
		fmt.Printf("processed %d synopses (%d late)\n", d.eng.Fed(), d.eng.LateSynopses())
	}
	if d.http != nil {
		_ = d.http.Close()
	}
	return err
}

// run is the daemon's loop — heartbeat, periodic checkpoint, periodic
// retrain — until stop delivers.
func (d *daemon) run(stop <-chan os.Signal) {
	opts, eng := &d.opts, d.eng
	var tickers []*time.Ticker
	defer func() {
		for _, t := range tickers {
			t.Stop()
		}
	}()
	every := func(on bool, interval time.Duration) <-chan time.Time {
		if !on || interval <= 0 {
			return nil // never fires
		}
		t := time.NewTicker(interval)
		tickers = append(tickers, t)
		return t.C
	}
	heartbeat := every(true, opts.statsInterval)
	checkpoint := every(opts.checkpointPath != "", opts.checkpointInterval)
	retrain := every(d.mgr != nil, opts.retrainEvery)
	for {
		select {
		case <-heartbeat:
			st := eng.ShardStats()[0]
			fmt.Fprintf(os.Stderr, "saad-analyzer: processed=%d anomalies=%d pending=%d queue=%d goroutines=%d\n",
				eng.Fed(), d.anomalies.Load(), st.Pending, st.QueueLen, runtime.NumGoroutine())
		case <-checkpoint:
			// A failed periodic checkpoint must not stop detection; the
			// shutdown checkpoint still gets a chance to persist state.
			if err := eng.WriteCheckpointFile(opts.checkpointPath); err != nil {
				fmt.Fprintln(os.Stderr, "saad-analyzer: checkpoint:", err)
			}
		case <-retrain:
			// A failed retrain (typically too few buffered synopses yet)
			// must not stop detection; the next tick retries.
			if meta, err := d.mgr.Retrain(); err != nil {
				fmt.Fprintln(os.Stderr, "saad-analyzer: retrain:", err)
			} else {
				fmt.Fprintf(os.Stderr, "saad-analyzer: retrained candidate version %d (parent %d)\n",
					meta.Version, meta.Parent)
			}
		case <-stop:
			return
		}
	}
}

// detectMode runs the analyzer until SIGINT or SIGTERM: start, the loop,
// close.
func detectMode(dict *logpoint.Dictionary, opts detectOptions) error {
	d, err := start(dict, opts)
	if err != nil {
		return err
	}
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	d.run(interrupt)
	return d.close()
}
