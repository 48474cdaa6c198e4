// Package saad is Stage-Aware Anomaly Detection: a low-overhead real-time
// anomaly detector for staged, multi-threaded servers, reproducing
// Ghanbari, Hashemi and Amza, "Stage-Aware Anomaly Detection through
// Tracking Log Points" (Middleware 2014).
//
// SAAD treats every log statement as a tracepoint. A thin task execution
// tracker sits between server code and the logger, records which log
// points each task (one runtime execution of a stage) encounters and for
// how long, and emits a few-tens-of-bytes synopsis per task. A statistical
// analyzer clusters synopses by (stage, signature) — the signature is the
// set of distinct log points hit — learns which flows and durations are
// normal from a fault-free trace, and at runtime flags stages whose
// proportion of rare flows or slow tasks is statistically significant
// (one-sided proportion test, significance 0.001).
//
// The package re-exports the building blocks (dictionary, tracker, stage
// runtime, analyzer, transports) and offers the Monitor convenience type
// that wires them together for a single process; see examples/quickstart.
package saad

import (
	"io"
	"time"

	"saad/internal/analyzer"
	"saad/internal/lifecycle"
	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/report"
	"saad/internal/stage"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// Core types re-exported from the implementation packages.
type (
	// Dictionary is the log-point and stage dictionary produced by the
	// instrumentation pass.
	Dictionary = logpoint.Dictionary
	// LogPoint describes one registered log statement.
	LogPoint = logpoint.Point
	// LogPointID identifies a log statement.
	LogPointID = logpoint.ID
	// StageID identifies a stage.
	StageID = logpoint.StageID
	// Level is a log verbosity level.
	Level = logpoint.Level
	// StagingModel distinguishes producer-consumer from dispatcher-worker
	// stages.
	StagingModel = logpoint.StagingModel

	// Synopsis is the per-task execution summary.
	Synopsis = synopsis.Synopsis
	// Signature is the canonical set of distinct log points a task hit.
	Signature = synopsis.Signature

	// Tracker is the task execution tracker.
	Tracker = tracker.Tracker
	// Task is one tracked task.
	Task = tracker.Task
	// Sink consumes synopses.
	Sink = tracker.Sink
	// SinkFunc adapts a function to Sink.
	SinkFunc = tracker.SinkFunc

	// AnalyzerConfig holds the statistical knobs (percentile thresholds,
	// significance, k-fold settings, window).
	AnalyzerConfig = analyzer.Config
	// Model is the trained outlier model.
	Model = analyzer.Model
	// Detector is the windowed online anomaly detector.
	Detector = analyzer.Detector
	// Engine is the concurrent analyzer: any number of goroutines feed one
	// worker that owns a Detector, with detection semantics bit-identical
	// to that Detector fed the same stream.
	Engine = analyzer.Engine
	// EngineOption configures NewEngine (queue size, anomaly sink).
	EngineOption = analyzer.EngineOption
	// ShardStat is the engine worker's live load snapshot.
	ShardStat = analyzer.ShardStat
	// Anomaly is one detected flow or performance anomaly.
	Anomaly = analyzer.Anomaly
	// AnomalyKind is flow or performance.
	AnomalyKind = analyzer.AnomalyKind
	// AlarmFilter de-bounces isolated single-window alarms (the
	// false-positive suppression extension of paper Section 5.6).
	AlarmFilter = analyzer.AlarmFilter

	// ModelStore is the versioned on-disk model store of the adaptive
	// model lifecycle: atomic writes, monotonically increasing versions,
	// parent lineage.
	ModelStore = lifecycle.Store
	// ModelMeta describes one stored model version.
	ModelMeta = lifecycle.Meta

	// Executor is the producer-consumer stage runtime.
	Executor = stage.Executor
	// Spawner is the dispatcher-worker stage runtime.
	Spawner = stage.Spawner
	// StageCtx is the per-task context handed to stage handlers.
	StageCtx = stage.Ctx
	// StageHandler processes one request inside a stage.
	StageHandler = stage.Handler

	// MetricsRegistry holds the self-observability counters, gauges and
	// histograms; see internal/metrics.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every registered metric.
	MetricsSnapshot = metrics.Snapshot

	// AnomalyEvent is the JSONL (one JSON object per line) form of an
	// anomaly written by EventWriter.
	AnomalyEvent = report.AnomalyEvent
	// EventWriter streams anomalies as JSONL for machine consumption.
	EventWriter = report.EventWriter

	// StreamClientOption customizes DialAnalyzer (timeouts, metrics,
	// reconnect behaviour).
	StreamClientOption = stream.ClientOption
	// ReconnectConfig tunes the self-healing transport enabled by
	// WithReconnect: backoff schedule and spill-ring capacity.
	ReconnectConfig = stream.ReconnectConfig
)

// Log levels (log4j-compatible).
const (
	LevelDebug = logpoint.LevelDebug
	LevelInfo  = logpoint.LevelInfo
	LevelWarn  = logpoint.LevelWarn
	LevelError = logpoint.LevelError
)

// Staging models.
const (
	ProducerConsumer = logpoint.ProducerConsumer
	DispatcherWorker = logpoint.DispatcherWorker
)

// Anomaly kinds.
const (
	FlowAnomaly        = analyzer.FlowAnomaly
	PerformanceAnomaly = analyzer.PerformanceAnomaly
)

// NewDictionary returns an empty log-point/stage dictionary.
func NewDictionary() *Dictionary { return logpoint.NewDictionary() }

// ReadDictionary parses a dictionary written with Dictionary.WriteTo.
func ReadDictionary(r io.Reader) (*Dictionary, error) { return logpoint.ReadDictionary(r) }

// NewTracker returns an enabled tracker stamping synopses with host.
func NewTracker(host uint16, sink Sink) *Tracker { return tracker.New(host, sink) }

// DefaultAnalyzerConfig returns the paper's analyzer settings: 99th
// percentile outlier thresholds, significance 0.001, 5-fold
// cross-validation, 1-minute windows.
func DefaultAnalyzerConfig() AnalyzerConfig { return analyzer.DefaultConfig() }

// Train builds the outlier model from a fault-free training trace.
func Train(cfg AnalyzerConfig, trace []*Synopsis) (*Model, error) {
	return analyzer.Train(cfg, trace)
}

// ReadModel parses a model written with Model.WriteTo.
func ReadModel(r io.Reader) (*Model, error) { return analyzer.ReadModel(r) }

// NewDetector returns an online detector for the trained model.
func NewDetector(m *Model) *Detector { return analyzer.NewDetector(m) }

// ReadCheckpoint rebuilds a detector — model plus live window state — from
// a checkpoint written with Detector.WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Detector, error) { return analyzer.ReadCheckpoint(r) }

// LoadCheckpointFile rebuilds a detector from a checkpoint file written
// atomically by Detector.WriteCheckpointFile.
func LoadCheckpointFile(path string) (*Detector, error) { return analyzer.LoadCheckpointFile(path) }

// NewEngine returns a running analyzer engine for the trained model; it
// implements Sink, so it can terminate a synopsis transport directly. See
// WithAnomalySink.
func NewEngine(m *Model, opts ...EngineOption) *Engine { return analyzer.NewEngine(m, opts...) }

// WithAnomalySink delivers every anomaly batch to fn as windows close,
// called from the engine's worker goroutine.
func WithAnomalySink(fn func([]Anomaly)) EngineOption { return analyzer.WithAnomalySink(fn) }

// NewEngineFromDetector lifts a detector (typically restored from a
// checkpoint) into a running engine: the detector becomes its core.
func NewEngineFromDetector(d *Detector, opts ...EngineOption) *Engine {
	return analyzer.NewEngineFromDetector(d, opts...)
}

// ReadEngineCheckpoint rebuilds a running engine from any checkpoint
// written by Detector.WriteCheckpoint or Engine.WriteCheckpoint (the
// formats are identical).
func ReadEngineCheckpoint(r io.Reader, opts ...EngineOption) (*Engine, error) {
	return analyzer.ReadEngineCheckpoint(r, opts...)
}

// LoadEngineCheckpointFile rebuilds a running engine from a checkpoint
// file.
func LoadEngineCheckpointFile(path string, opts ...EngineOption) (*Engine, error) {
	return analyzer.LoadEngineCheckpointFile(path, opts...)
}

// OpenModelStore opens (creating if needed) a versioned model store at
// dir; see Monitor's WithModelStore for the integrated flow.
func OpenModelStore(dir string) (*ModelStore, error) { return lifecycle.Open(dir) }

// NewAlarmFilter returns an anomaly de-bouncer: anomalies pass only when
// the same (host, stage, kind) group alarmed in minWindows of the last
// span windows.
func NewAlarmFilter(minWindows, span int, window time.Duration) *AlarmFilter {
	return analyzer.NewAlarmFilter(minWindows, span, window)
}

// NewExecutor starts a producer-consumer stage with the given worker pool.
func NewExecutor(dict *Dictionary, tr *Tracker, name string, workers, queueCap int, now func() time.Time, handler StageHandler) (*Executor, error) {
	return stage.NewExecutor(dict, tr, name, workers, queueCap, now, handler)
}

// NewSpawner returns a dispatcher-worker stage.
func NewSpawner(dict *Dictionary, tr *Tracker, name string, now func() time.Time) (*Spawner, error) {
	return stage.NewSpawner(dict, tr, name, now)
}

// NewChannelSink returns an in-process buffered synopsis transport.
func NewChannelSink(capacity int) *stream.Channel { return stream.NewChannel(capacity) }

// DialAnalyzer connects a synopsis stream to a remote analyzer (see
// cmd/saad-analyzer). flushEvery bounds how long a synopsis pends in the
// client's batch (0: only the size trigger, Flush and Close write — or,
// with WithReconnect, a 2 ms tick). With WithReconnect the client survives
// analyzer outages: a failed write parks its batch, and what is emitted
// after it, in a bounded in-memory ring that is replayed in order after
// redialling with backoff; everything else about delivery is the same.
func DialAnalyzer(addr string, flushEvery time.Duration, opts ...StreamClientOption) (*stream.Client, error) {
	return stream.Dial(addr, flushEvery, opts...)
}

// WithReconnect makes DialAnalyzer self-healing: the client redials with
// capped exponential backoff + jitter and buffers synopses in a bounded
// spill ring (drop-oldest) across outages. The zero ReconnectConfig selects
// the documented defaults.
func WithReconnect(cfg ReconnectConfig) StreamClientOption { return stream.WithReconnect(cfg) }

// WithDialTimeout bounds each connection attempt of DialAnalyzer.
func WithDialTimeout(d time.Duration) StreamClientOption { return stream.WithDialTimeout(d) }

// WithWriteTimeout bounds each synopsis flush of DialAnalyzer so a stalled
// analyzer cannot block the tracker indefinitely.
func WithWriteTimeout(d time.Duration) StreamClientOption { return stream.WithWriteTimeout(d) }

// ListenSynopses starts a TCP server delivering decoded synopses to sink.
func ListenSynopses(addr string, sink Sink) (*stream.Server, error) {
	return stream.Listen(addr, sink)
}

// FormatAnomaly renders an anomaly with stage names and log templates for
// root-cause inspection.
func FormatAnomaly(a Anomaly, dict *Dictionary) string {
	return report.FormatAnomaly(a, dict)
}

// NewEventWriter returns a writer emitting one self-describing JSON object
// per anomaly to w (JSONL). dict may be nil; window sizes window_end.
func NewEventWriter(w io.Writer, dict *Dictionary, window time.Duration) *EventWriter {
	return report.NewEventWriter(w, dict, window)
}

// ReadAnomalyEvents parses a JSONL anomaly event stream written by
// EventWriter.
func ReadAnomalyEvents(r io.Reader) ([]AnomalyEvent, error) {
	return report.ReadEvents(r)
}
