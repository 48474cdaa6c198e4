package metrics

// This file defines the metric bundles each SAAD pipeline layer is
// instrumented with. The bundles live here (not in the instrumented
// packages) so that tracker/stream/analyzer depend only on this leaf
// package and every metric name is declared — and documented — in one
// place. All bundle pointers may be nil: the instrumented code calls
// nil-safe Counter/Gauge/Histogram methods unconditionally.

// TrackerMetrics instruments the task execution tracker.
type TrackerMetrics struct {
	// TasksBegun counts Tracker.Begin calls that minted a task.
	TasksBegun *Counter
	// TasksEnded counts task terminations (synopsis emissions included
	// and suppressed alike).
	TasksEnded *Counter
	// PointHits counts log-point encounters registered via Task.Hit.
	PointHits *Counter
	// SynopsesEmitted counts synopses handed to the tracker's sink.
	SynopsesEmitted *Counter
}

// NewTrackerMetrics registers the tracker metric family on r.
func NewTrackerMetrics(r *Registry) *TrackerMetrics {
	return &TrackerMetrics{
		TasksBegun:      r.NewCounter("saad_tracker_tasks_begun_total", "Tasks begun by the task execution tracker."),
		TasksEnded:      r.NewCounter("saad_tracker_tasks_ended_total", "Tasks terminated by the task execution tracker."),
		PointHits:       r.NewCounter("saad_tracker_log_point_hits_total", "Log point encounters recorded by tracked tasks."),
		SynopsesEmitted: r.NewCounter("saad_tracker_synopses_emitted_total", "Task synopses emitted to the tracker's sink."),
	}
}

// RegisterChannel exposes the in-process channel transport: the channel
// already keeps native atomic emit/drop counters, so the registry reads
// them (and the live buffer depth) at scrape time and the emit hot path
// pays nothing for observability. Typically called via
// stream.Channel.RegisterMetrics.
func RegisterChannel(r *Registry, emitted, dropped func() uint64, depth, capacity func() int) {
	r.NewCounterFunc("saad_stream_channel_emits_total", "Synopses accepted into the in-process channel buffer.", emitted)
	r.NewCounterFunc("saad_stream_channel_drops_total", "Synopses dropped by the in-process channel (full buffer or closed).", dropped)
	r.NewGaugeFunc("saad_stream_channel_depth", "Synopses currently buffered in the in-process channel.",
		func() float64 { return float64(depth()) })
	r.NewGaugeFunc("saad_stream_channel_capacity", "Buffer capacity of the in-process channel.",
		func() float64 { return float64(capacity()) })
}

// TCPClientMetrics instruments the TCP synopsis stream client.
type TCPClientMetrics struct {
	// Dials counts successful connection establishments; with a
	// reconnecting client this is 1 + Reconnects.
	Dials *Counter
	// Reconnects counts successful re-establishments after the initial
	// connection (always 0 for a client without WithReconnect).
	Reconnects *Counter
	// FramesSent counts synopsis records encoded onto the connection.
	FramesSent *Counter
	// FramesDropped counts synopses the client discarded: emits after a
	// latched error or Close, spill-ring drop-oldest evictions, and
	// frames still spilled when the client shut down. Every synopsis
	// handed to Emit is eventually counted in FramesSent or here.
	FramesDropped *Counter
	// BytesSent counts bytes written to the connection (measured after
	// the encoder's user-space buffer, i.e. flushed wire bytes).
	BytesSent *Counter
	// SpillDepth tracks synopses currently parked in the reconnect spill
	// ring awaiting (re)delivery.
	SpillDepth *Gauge
	// Errors counts transport errors. Without WithReconnect the client
	// latches the first error and drops subsequent emits, so nonzero
	// means the stream is dead; with reconnect enabled each error is one
	// failed write or dial, after which the client spills and redials.
	Errors *Counter
	// ProtocolVersion is the wire protocol of the current connection: 2
	// while connected, 0 while disconnected.
	ProtocolVersion *Gauge
	// BatchRecords observes the record count of each v2 batch frame
	// written, so the adaptive flush sizing is visible.
	BatchRecords *Histogram
	// InternedHeaders counts records sent as an intern-table reference to a
	// known (stage, host, signature) flow instead of an inline definition.
	InternedHeaders *Counter
}

// BatchSizeBuckets buckets v2 batch frame sizes, spanning the adaptive
// range from single-record flushes to MaxBatchRecords.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// NewTCPClientMetrics registers the TCP client metric family on r.
func NewTCPClientMetrics(r *Registry) *TCPClientMetrics {
	return &TCPClientMetrics{
		Dials:           r.NewCounter("saad_stream_tcp_client_dials_total", "Successful TCP connections to the analyzer (1 + reconnects)."),
		Reconnects:      r.NewCounter("saad_stream_tcp_client_reconnects_total", "Successful TCP reconnections after the initial connect."),
		FramesSent:      r.NewCounter("saad_stream_tcp_client_frames_sent_total", "Synopsis records encoded onto the TCP stream."),
		FramesDropped:   r.NewCounter("saad_stream_tcp_client_frames_dropped_total", "Synopses discarded by the TCP client (post-error emits, spill-ring evictions, undelivered at close)."),
		BytesSent:       r.NewCounter("saad_stream_tcp_client_bytes_sent_total", "Bytes written to the analyzer TCP connection."),
		SpillDepth:      r.NewGauge("saad_stream_tcp_client_spill_depth", "Synopses parked in the reconnect spill ring."),
		Errors:          r.NewCounter("saad_stream_tcp_client_errors_total", "TCP client transport errors (latched without reconnect; per-attempt with it)."),
		ProtocolVersion: r.NewGauge("saad_stream_tcp_client_protocol_version", "Wire protocol of the current connection (0 disconnected, 2 connected)."),
		BatchRecords:    r.NewHistogram("saad_stream_tcp_client_batch_records", "Records per v2 batch frame written.", BatchSizeBuckets),
		InternedHeaders: r.NewCounter("saad_stream_tcp_client_interned_headers_total", "Records sent as an intern-table reference to a known (stage, host, signature) flow."),
	}
}

// TCPServerMetrics instruments the TCP synopsis stream server.
type TCPServerMetrics struct {
	// Connections counts accepted connections; client reconnects surface
	// here as additional connections.
	Connections *Counter
	// OpenConnections tracks currently open connections.
	OpenConnections *Gauge
	// FramesReceived counts synopsis records decoded across all
	// connections.
	FramesReceived *Counter
	// BytesReceived counts bytes read across all connections.
	BytesReceived *Counter
	// ConnErrors counts connections dropped on a decode error other than
	// a clean EOF (protocol errors, truncated streams) or refused at the
	// handshake (no hello, or one offering less than protocol v2).
	ConnErrors *Counter
	// Resyncs counts connections accepted after an earlier connection had
	// already ended — with SAAD's long-lived per-node streams these are
	// client reconnects resuming an interrupted stream.
	Resyncs *Counter
	// AcceptErrors counts transient listener Accept failures the server
	// retried past without dying.
	AcceptErrors *Counter
	// IdleReaps counts connections closed by the server's idle read
	// deadline — half-dead clients (e.g. behind an asymmetric partition)
	// that stopped sending frames but never closed.
	IdleReaps *Counter
	// BatchRecords observes the record count of each v2 batch frame
	// received.
	BatchRecords *Histogram
	// InternedHeaders counts records received as intern-table references
	// to a known (stage, host, signature) flow instead of inline
	// definitions.
	InternedHeaders *Counter
}

// NewTCPServerMetrics registers the TCP server metric family on r.
func NewTCPServerMetrics(r *Registry) *TCPServerMetrics {
	return &TCPServerMetrics{
		Connections:     r.NewCounter("saad_stream_tcp_server_connections_total", "TCP synopsis stream connections accepted."),
		OpenConnections: r.NewGauge("saad_stream_tcp_server_open_connections", "TCP synopsis stream connections currently open."),
		FramesReceived:  r.NewCounter("saad_stream_tcp_server_frames_received_total", "Synopsis records decoded from TCP streams."),
		BytesReceived:   r.NewCounter("saad_stream_tcp_server_bytes_received_total", "Bytes read from TCP synopsis streams."),
		ConnErrors:      r.NewCounter("saad_stream_tcp_server_conn_errors_total", "TCP connections dropped on a decode/protocol error."),
		Resyncs:         r.NewCounter("saad_stream_tcp_server_resyncs_total", "Connections accepted after a previous stream ended (client reconnects)."),
		AcceptErrors:    r.NewCounter("saad_stream_tcp_server_accept_errors_total", "Transient listener accept errors retried by the server."),
		IdleReaps:       r.NewCounter("saad_stream_tcp_server_idle_reaps_total", "Connections closed after exceeding the idle read deadline."),
		BatchRecords:    r.NewHistogram("saad_stream_tcp_server_batch_records", "Records per v2 batch frame received.", BatchSizeBuckets),
		InternedHeaders: r.NewCounter("saad_stream_tcp_server_interned_headers_total", "Records received as intern-table references to a known (stage, host, signature) flow."),
	}
}

// AnalyzerMetrics instruments the statistical analyzer's online detector.
type AnalyzerMetrics struct {
	// SynopsesFed counts synopses consumed by Detector.Feed.
	SynopsesFed *Counter
	// WindowsClosed counts detection windows closed (per host/stage
	// group).
	WindowsClosed *Counter
	// WindowCloseLatency observes the wall-clock seconds spent closing a
	// window (running the proportion tests); a growing tail means the
	// analyzer is falling behind.
	WindowCloseLatency *Histogram
	// Anomalies counts anomalies raised, labeled by kind (flow or
	// performance) and stage id, before any alarm filtering.
	Anomalies *CounterVec
	// FilterHeld tracks anomalies currently held back by the alarm
	// filter awaiting burst confirmation.
	FilterHeld *Gauge
	// FilterPassed counts anomalies that cleared the alarm filter.
	FilterPassed *Counter
	// LateSynopses counts synopses dropped because their Start preceded
	// the group's open window — late/out-of-order arrivals the detector
	// refuses to misattribute to the current window.
	LateSynopses *Counter
	// The four shard families carry one series each, shard="0": the engine
	// has one worker, and the label stays for the readers that select it.
	//
	// ShardQueueDepth tracks the messages queued for the engine's worker.
	ShardQueueDepth *GaugeVec
	// ShardBusyNanos counts nanoseconds the worker spent processing (vs
	// blocked on its queue).
	ShardBusyNanos *CounterVec
	// ShardSynopses counts synopses the worker processed.
	ShardSynopses *CounterVec
	// ShardOverflows counts feeds that found the queue full and had to block
	// (backpressure events).
	ShardOverflows *CounterVec
	// DetectionLatency observes the end-to-end seconds from a sampled
	// synopsis's earliest pipeline stamp (tracker emit when the span
	// originated there, receive otherwise) to its detection verdict,
	// labeled by stage id. Only span-sampled synopses are observed.
	DetectionLatency *HistogramVec
}

// NewAnalyzerMetrics registers the analyzer metric family on r.
func NewAnalyzerMetrics(r *Registry) *AnalyzerMetrics {
	return &AnalyzerMetrics{
		SynopsesFed:        r.NewCounter("saad_analyzer_synopses_fed_total", "Synopses consumed by the online detector."),
		WindowsClosed:      r.NewCounter("saad_analyzer_windows_closed_total", "Detection windows closed."),
		WindowCloseLatency: r.NewHistogram("saad_analyzer_window_close_seconds", "Wall-clock seconds spent closing one detection window.", LatencyBuckets),
		Anomalies:          r.NewCounterVec("saad_analyzer_anomalies_total", "Anomalies raised before alarm filtering.", "kind", "stage"),
		FilterHeld:         r.NewGauge("saad_analyzer_filter_held", "Anomalies currently suppressed by the alarm filter."),
		FilterPassed:       r.NewCounter("saad_analyzer_filter_passed_total", "Anomalies that passed the alarm filter."),
		LateSynopses:       r.NewCounter("saad_analyzer_late_synopses_total", "Synopses dropped because they arrived after their window closed."),
		ShardQueueDepth:    r.NewGaugeVec("saad_analyzer_shard_queue_depth", "Synopses queued per engine shard.", "shard"),
		ShardBusyNanos:     r.NewCounterVec("saad_analyzer_shard_busy_nanos_total", "Nanoseconds each engine shard spent processing synopses.", "shard"),
		ShardSynopses:      r.NewCounterVec("saad_analyzer_shard_synopses_total", "Synopses processed per engine shard.", "shard"),
		ShardOverflows:     r.NewCounterVec("saad_analyzer_shard_overflows_total", "Feeds that found a full shard queue and blocked (backpressure).", "shard"),
		DetectionLatency:   r.NewHistogramVec("saad_detection_latency_seconds", "End-to-end seconds from sampled synopsis emission (or receive) to detection verdict, per stage.", LatencyBuckets, "stage"),
	}
}

// MonitorMetrics instruments the Monitor lifecycle.
type MonitorMetrics struct {
	// Mode is 1 while training, 2 while detecting.
	Mode *Gauge
	// TrainingTraceSize tracks synopses absorbed into the training trace.
	TrainingTraceSize *Gauge
	// TrainSeconds records the wall-clock duration of the last model
	// build.
	TrainSeconds *Gauge
}

// NewMonitorMetrics registers the monitor metric family on r.
func NewMonitorMetrics(r *Registry) *MonitorMetrics {
	return &MonitorMetrics{
		Mode:              r.NewGauge("saad_monitor_mode", "Monitor mode: 1 training, 2 detecting."),
		TrainingTraceSize: r.NewGauge("saad_monitor_training_trace_size", "Synopses absorbed into the training trace."),
		TrainSeconds:      r.NewGauge("saad_monitor_train_seconds", "Wall-clock seconds the last model build took."),
	}
}

// LifecycleMetrics instruments the adaptive model lifecycle: versioned
// store, shadow evaluation and hot swaps.
type LifecycleMetrics struct {
	// ModelVersion is the store version currently serving (0 when the
	// serving model never came from a store).
	ModelVersion *Gauge
	// ShadowDivergence is the candidate-minus-serving anomaly-rate
	// divergence of the most recent shadow verdict.
	ShadowDivergence *Gauge
	// Swaps counts hot model swaps applied to the serving engine.
	Swaps *Counter
	// Retrains counts candidate models trained from the live stream.
	Retrains *Counter
}

// NewLifecycleMetrics registers the model-lifecycle metric family on r.
func NewLifecycleMetrics(r *Registry) *LifecycleMetrics {
	return &LifecycleMetrics{
		ModelVersion:     r.NewGauge("saad_lifecycle_model_version", "Store version of the model currently serving."),
		ShadowDivergence: r.NewGauge("saad_lifecycle_shadow_divergence", "Candidate minus serving anomaly-rate divergence of the last shadow verdict."),
		Swaps:            r.NewCounter("saad_lifecycle_model_swaps_total", "Hot model swaps applied to the serving engine."),
		Retrains:         r.NewCounter("saad_lifecycle_retrains_total", "Candidate models trained from the live synopsis stream."),
	}
}

// FederationMetrics instruments the analyzer fleet's coordination layer:
// membership, ring topology and checkpoint handoff.
type FederationMetrics struct {
	// PeersAlive tracks the local view's non-dead member count (self
	// included).
	PeersAlive *Gauge
	// RingEpoch is the local ring's topology version; fleet-wide
	// divergence between peers' epochs marks an in-flight transition.
	RingEpoch *Gauge
	// Handoffs counts group-state handoffs completed, labeled by
	// direction ("export" or "import").
	Handoffs *CounterVec
	// HandoffGroups counts (host, stage) groups moved in handoffs, same
	// labels.
	HandoffGroups *CounterVec
	// HandoffConflicts counts imports dropped because a group's window
	// was already open locally (a racing transition; the moved window is
	// sacrificed and counted here).
	HandoffConflicts *Counter
	// Forwards counts synopses forwarded peer-to-peer because this peer
	// did not own their group.
	Forwards *Counter
	// ForwardsParked counts synopses parked during an in-flight rebalance
	// and drained afterwards (a subset of Forwards plus re-fed own
	// records).
	ForwardsParked *Counter
}

// NewFederationMetrics registers the federation metric family on r.
func NewFederationMetrics(r *Registry) *FederationMetrics {
	return &FederationMetrics{
		PeersAlive:       r.NewGauge("saad_federation_peers_alive", "Fleet members not considered dead in the local view (self included)."),
		RingEpoch:        r.NewGauge("saad_federation_ring_epoch", "Topology version of the local consistent-hash ring."),
		Handoffs:         r.NewCounterVec("saad_federation_handoffs_total", "Group-state handoffs completed, by direction.", "direction"),
		HandoffGroups:    r.NewCounterVec("saad_federation_handoff_groups_total", "(host, stage) groups moved by handoffs, by direction.", "direction"),
		HandoffConflicts: r.NewCounter("saad_federation_handoff_conflicts_total", "Imports dropped because the group's window was already open locally."),
		Forwards:         r.NewCounter("saad_federation_forwards_total", "Synopses forwarded peer-to-peer to their ring owner."),
		ForwardsParked:   r.NewCounter("saad_federation_parked_total", "Synopses parked during a rebalance and drained afterwards."),
	}
}

// Pipeline bundles the in-process pipeline metric families sharing one
// registry — the full set a Monitor (or the standalone analyzer) exposes.
// The channel transport registers its scrape-time counters separately
// (RegisterChannel), since they read the channel's own atomics.
type Pipeline struct {
	Registry  *Registry
	Tracker   *TrackerMetrics
	Analyzer  *AnalyzerMetrics
	Monitor   *MonitorMetrics
	Lifecycle *LifecycleMetrics
}

// NewPipeline registers every in-process pipeline metric family on r; all
// series exist (at zero) from startup, so scrapes see a stable schema.
func NewPipeline(r *Registry) *Pipeline {
	return &Pipeline{
		Registry:  r,
		Tracker:   NewTrackerMetrics(r),
		Analyzer:  NewAnalyzerMetrics(r),
		Monitor:   NewMonitorMetrics(r),
		Lifecycle: NewLifecycleMetrics(r),
	}
}
