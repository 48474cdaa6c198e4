package saad

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"saad/internal/analyzer"
	"saad/internal/lifecycle"
	"saad/internal/metrics"
	"saad/internal/stream"
)

// Monitor wires a dictionary, a tracker and the analyzer together for a
// single-process server: instrument stages against Monitor.Tracker(),
// collect a fault-free trace in training mode, call Train, and then poll
// for anomalies while the server runs.
//
// Monitor's Poll/Train methods are meant to be called from one goroutine;
// the tracker side (Begin/Hit/End inside your stages) is safe from any
// number of goroutines.
type Monitor struct {
	dict *Dictionary
	tr   *Tracker
	ch   *stream.Channel

	pipeline *metrics.Pipeline
	msrv     *metrics.Server

	mu       sync.Mutex
	mode     monitorMode
	trainer  *analyzer.Trainer
	model    *Model
	engine   *analyzer.Engine
	opts     monitorOptions // alarm-filter thresholds
	filter   *AlarmFilter
	store    *lifecycle.Store
	modelVer int
}

type monitorMode int

const (
	modeTraining monitorMode = iota + 1
	modeDetecting
)

// Errors returned by Monitor lifecycle methods.
var (
	ErrNotTraining  = errors.New("saad: monitor is not in training mode")
	ErrNotDetecting = errors.New("saad: monitor has no trained model")
)

// monitorBuffer is the capacity of the channel between the monitor's tracker
// and its Poll; past it synopses are dropped and counted (Dropped).
const monitorBuffer = 1 << 16

// MonitorOption customizes a Monitor.
type MonitorOption func(*monitorOptions)

type monitorOptions struct {
	host             uint16
	analyzer         AnalyzerConfig
	filterMinWindows int
	filterSpan       int
	metricsAddr      string
	storeDir         string
}

// WithHost sets the host id stamped on synopses (default 1).
func WithHost(host uint16) MonitorOption {
	return func(o *monitorOptions) { o.host = host }
}

// WithAnalyzerConfig overrides the analyzer settings (default
// DefaultAnalyzerConfig).
func WithAnalyzerConfig(cfg AnalyzerConfig) MonitorOption {
	return func(o *monitorOptions) { o.analyzer = cfg }
}

// WithAlarmFilter de-bounces the monitor's anomalies: Poll and Flush pass
// an anomaly only when its (host, stage, kind) group alarmed in minWindows
// of the last span windows.
func WithAlarmFilter(minWindows, span int) MonitorOption {
	return func(o *monitorOptions) {
		o.filterMinWindows = minWindows
		o.filterSpan = span
	}
}

// WithModelStore versions the monitor's trained models in the on-disk
// store at dir: every Train records the model as a new store version
// (parent-linked to the previous one), and ModelVersion reports which
// version is serving. The directory is created if needed.
func WithModelStore(dir string) MonitorOption {
	return func(o *monitorOptions) { o.storeDir = dir }
}

// WithMetricsAddr serves the monitor's self-observability endpoints
// (Prometheus /metrics, /debug/vars, net/http/pprof) on addr, e.g.
// "127.0.0.1:9090" or ":0" for an ephemeral port (see Monitor.MetricsAddr).
// Metrics are collected regardless of this option; the address only controls
// the HTTP exposure.
func WithMetricsAddr(addr string) MonitorOption {
	return func(o *monitorOptions) { o.metricsAddr = addr }
}

// NewMonitor creates a monitor in training mode.
func NewMonitor(opts ...MonitorOption) (*Monitor, error) {
	o := monitorOptions{host: 1, analyzer: DefaultAnalyzerConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	trainer, err := analyzer.NewTrainer(o.analyzer)
	if err != nil {
		return nil, err
	}
	ch := stream.NewChannel(monitorBuffer)
	pipeline := metrics.NewPipeline(metrics.NewRegistry())
	ch.RegisterMetrics(pipeline.Registry)
	tr := NewTracker(o.host, ch)
	tr.SetMetrics(pipeline.Tracker)
	m := &Monitor{
		dict:     NewDictionary(),
		tr:       tr,
		ch:       ch,
		pipeline: pipeline,
		mode:     modeTraining,
		trainer:  trainer,
		opts:     o,
	}
	pipeline.Monitor.Mode.Set(float64(modeTraining))
	if o.storeDir != "" {
		store, err := lifecycle.Open(o.storeDir)
		if err != nil {
			return nil, fmt.Errorf("saad: model store: %w", err)
		}
		m.store = store
	}
	if o.metricsAddr != "" {
		// The standard mux plus probes: /healthz is unconditional liveness;
		// /readyz turns 200 once a model is trained and detection is live.
		mux := metrics.NewMux(pipeline.Registry)
		mux.Handle("/readyz", metrics.ReadyHandler(m.detecting))
		srv, err := metrics.ServeMux(o.metricsAddr, mux)
		if err != nil {
			return nil, fmt.Errorf("saad: metrics server: %w", err)
		}
		m.msrv = srv
	}
	return m, nil
}

// detecting reports whether the monitor has a trained model installed and
// is in detection mode — the monitor's readiness condition.
func (m *Monitor) detecting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mode == modeDetecting
}

// Metrics returns the monitor's metrics registry, always live regardless of
// WithMetricsAddr; use Snapshot for programmatic reads or WritePrometheus
// to expose it elsewhere.
func (m *Monitor) Metrics() *metrics.Registry { return m.pipeline.Registry }

// MetricsSnapshot returns a point-in-time copy of every pipeline metric.
func (m *Monitor) MetricsSnapshot() metrics.Snapshot { return m.pipeline.Registry.Snapshot() }

// MetricsAddr returns the bound address of the metrics HTTP server, or ""
// when WithMetricsAddr was not used. Useful with ":0".
func (m *Monitor) MetricsAddr() string {
	if m.msrv == nil {
		return ""
	}
	return m.msrv.Addr()
}

// Close stops the metrics HTTP server (if any), the synopsis channel and
// the engine's worker. The tracker side stays safe to call: synopses
// emitted after Close are dropped and counted. Call Flush before Close to
// report the open windows' anomalies.
func (m *Monitor) Close() error {
	m.ch.Close()
	m.mu.Lock()
	eng := m.engine
	m.mu.Unlock()
	if eng != nil {
		_ = eng.Close()
	}
	if m.msrv != nil {
		return m.msrv.Close()
	}
	return nil
}

// Dictionary returns the monitor's dictionary for registering stages and
// log points.
func (m *Monitor) Dictionary() *Dictionary { return m.dict }

// Tracker returns the tracker to instrument stages with.
func (m *Monitor) Tracker() *Tracker { return m.tr }

// NewExecutor starts a producer-consumer stage wired to this monitor.
func (m *Monitor) NewExecutor(name string, workers, queueCap int, now func() time.Time, handler StageHandler) (*Executor, error) {
	return NewExecutor(m.dict, m.tr, name, workers, queueCap, now, handler)
}

// NewSpawner starts a dispatcher-worker stage wired to this monitor.
func (m *Monitor) NewSpawner(name string, now func() time.Time) (*Spawner, error) {
	return NewSpawner(m.dict, m.tr, name, now)
}

// PollTraining drains pending synopses into the training trace and returns
// how many were absorbed. Call it periodically while exercising the system
// fault-free.
func (m *Monitor) PollTraining() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mode != modeTraining {
		return 0, ErrNotTraining
	}
	syns := m.ch.Drain()
	for _, s := range syns {
		m.trainer.Add(s)
	}
	m.pipeline.Monitor.TrainingTraceSize.Set(float64(m.trainer.Count()))
	return len(syns), nil
}

// Train finishes training: it absorbs any pending synopses, builds the
// model and switches the monitor to detection mode.
func (m *Monitor) Train() (*Model, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mode != modeTraining {
		return nil, ErrNotTraining
	}
	for _, s := range m.ch.Drain() {
		m.trainer.Add(s)
	}
	m.pipeline.Monitor.TrainingTraceSize.Set(float64(m.trainer.Count()))
	start := time.Now()
	model, err := m.trainer.Train()
	if err != nil {
		return nil, fmt.Errorf("saad: train monitor: %w", err)
	}
	m.pipeline.Monitor.TrainSeconds.Set(time.Since(start).Seconds())
	m.model = model
	if m.store != nil {
		meta, err := m.store.PutServing(model)
		if err != nil {
			return nil, fmt.Errorf("saad: store trained model: %w", err)
		}
		m.modelVer = meta.Version
		m.pipeline.Lifecycle.ModelVersion.Set(float64(meta.Version))
	}
	m.installDetector(model)
	return model, nil
}

// ModelVersion returns the store version of the serving model, or 0 when
// the monitor has no model store (WithModelStore) or the model never went
// through one.
func (m *Monitor) ModelVersion() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.modelVer
}

// ModelStore returns the monitor's versioned model store, or nil without
// WithModelStore.
func (m *Monitor) ModelStore() *lifecycle.Store { return m.store }

// installDetector starts the analyzer engine (and the alarm filter, when
// one was requested) for model and flips to detection mode.
func (m *Monitor) installDetector(model *Model) {
	if m.engine != nil {
		_ = m.engine.Close() // SetModel over a live engine: retire its workers
	}
	m.engine = analyzer.NewEngine(model, analyzer.WithEngineMetrics(m.pipeline.Analyzer))
	if m.opts.filterMinWindows > 0 {
		m.filter = analyzer.NewAlarmFilter(m.opts.filterMinWindows, m.opts.filterSpan, model.Config.Window)
	}
	m.mode = modeDetecting
	m.pipeline.Monitor.Mode.Set(float64(modeDetecting))
}

// SetModel installs a previously trained model (e.g. loaded with
// ReadModel) and switches to detection mode.
func (m *Monitor) SetModel(model *Model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.model = model
	m.installDetector(model)
	m.trainer = nil
}

// Model returns the trained model (nil while training).
func (m *Monitor) Model() *Model {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.model
}

// Poll drains pending synopses through the engine and returns any
// anomalies from windows that closed, in the engine's canonical order: by
// host, then stage, then window (analyzer.SortAnomalies). Under
// WithAlarmFilter the earlier-window anomalies a burst had held back come
// out immediately before the one that confirmed it.
func (m *Monitor) Poll() ([]Anomaly, error) {
	return m.detect((*analyzer.Engine).Drain)
}

// detect feeds the pending synopses to the engine and passes what collect
// (Drain or Flush) returns through the optional de-bouncer.
func (m *Monitor) detect(collect func(*analyzer.Engine) []Anomaly) ([]Anomaly, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mode != modeDetecting {
		return nil, ErrNotDetecting
	}
	if syns := m.ch.Drain(); len(syns) > 0 && !m.engine.Closed() {
		m.engine.FeedBatch(syns)
	}
	anoms := collect(m.engine)
	if m.filter != nil {
		anoms = m.filter.Filter(anoms)
		m.pipeline.Analyzer.FilterHeld.Set(float64(m.filter.Suppressed()))
	}
	m.pipeline.Analyzer.FilterPassed.Add(uint64(len(anoms)))
	return anoms, nil
}

// Flush closes all open detection windows and returns their anomalies, in
// the same order as Poll; call at shutdown.
func (m *Monitor) Flush() ([]Anomaly, error) {
	return m.detect((*analyzer.Engine).Flush)
}

// Dropped reports synopses lost to buffer overflow (monitoring never
// applies backpressure to the server).
func (m *Monitor) Dropped() uint64 { return m.ch.Dropped() }
