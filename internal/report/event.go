package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/trace"
)

// AnomalyEvent is the machine-readable form of one anomaly: a single
// self-describing JSON object carrying everything the human-readable report
// shows, plus the window bounds. One event per line (JSONL) makes the log
// greppable and trivially consumable by jq, log shippers, or a notebook.
type AnomalyEvent struct {
	// Time is the wall-clock time the event was written (not the window).
	Time time.Time `json:"time"`
	// Peer is the id of the analyzer fleet member that emitted the event,
	// "" for a standalone analyzer. In a federated deployment a group's
	// events migrate between peers as the ring rebalances; the field keeps
	// merged event logs attributable.
	Peer string `json:"peer,omitempty"`
	// Kind is "flow" or "performance".
	Kind string `json:"kind"`
	// Host is the reporting node's id.
	Host uint16 `json:"host"`
	// StageID and Stage identify the stage numerically and by dictionary
	// name ("" when no dictionary is attached).
	StageID uint16 `json:"stage_id"`
	Stage   string `json:"stage,omitempty"`
	// WindowStart/WindowEnd bound the detection window in virtual time.
	WindowStart time.Time `json:"window_start"`
	WindowEnd   time.Time `json:"window_end"`
	// NewSignature marks flow anomalies triggered by a signature never seen
	// in training.
	NewSignature bool `json:"new_signature,omitempty"`
	// Signature is the offending signature in readable form, e.g. "{3,7,12}"
	// (log point ids); "" for proportion-driven flow anomalies spanning
	// several rare signatures.
	Signature string `json:"signature,omitempty"`
	// SignaturePoints lists the signature's log point ids numerically.
	SignaturePoints []uint16 `json:"signature_points,omitempty"`
	// Outliers and Tasks are the window's outlier and total task counts for
	// the tested group.
	Outliers int `json:"outliers"`
	Tasks    int `json:"tasks"`
	// ObservedProportion/ExpectedProportion/PValue carry the proportion-test
	// outcome; all zero for new-signature anomalies, which need no test.
	ObservedProportion float64 `json:"observed_proportion,omitempty"`
	ExpectedProportion float64 `json:"expected_proportion,omitempty"`
	PValue             float64 `json:"p_value,omitempty"`
	// Span is the sampled end-to-end pipeline span of one of the anomaly's
	// example outliers (absent when no example was span-sampled): how long
	// the evidence behind this alarm took from log point to verdict.
	Span *SpanRecord `json:"span,omitempty"`
	// Flight is the anomaly flight recorder's snapshot at emit time, newest
	// first: what was flowing through the pipeline when the alarm fired.
	Flight []FlightEvent `json:"flight,omitempty"`
}

// SpanRecord is the JSON form of a sampled pipeline span: the raw unix-nano
// stamps plus the derived per-hop breakdown. Zero stamps (omitted) mean the
// span did not traverse that hop.
type SpanRecord struct {
	Stage  uint16 `json:"stage"`
	Host   uint16 `json:"host"`
	TaskID uint64 `json:"task_id"`

	EmitNs    int64 `json:"emit_ns,omitempty"`
	SendNs    int64 `json:"send_ns,omitempty"`
	RecvNs    int64 `json:"recv_ns,omitempty"`
	EnqueueNs int64 `json:"enqueue_ns,omitempty"`
	DetectNs  int64 `json:"detect_ns,omitempty"`
	DoneNs    int64 `json:"done_ns,omitempty"`

	EmitToSendNs int64 `json:"emit_to_send_ns,omitempty"`
	WireNs       int64 `json:"wire_ns,omitempty"`
	QueueWaitNs  int64 `json:"queue_wait_ns,omitempty"`
	DetectTimeNs int64 `json:"detect_time_ns,omitempty"`
	TotalNs      int64 `json:"total_ns,omitempty"`
	Complete     bool  `json:"complete"`
}

// NewSpanRecord converts a completed span to its event form (nil for nil).
func NewSpanRecord(sp *trace.Span) *SpanRecord {
	if sp == nil {
		return nil
	}
	return &SpanRecord{
		Stage:        sp.Stage,
		Host:         sp.Host,
		TaskID:       sp.TaskID,
		EmitNs:       sp.Emit,
		SendNs:       sp.Send,
		RecvNs:       sp.Recv,
		EnqueueNs:    sp.Enqueue,
		DetectNs:     sp.Detect,
		DoneNs:       sp.Done,
		EmitToSendNs: sp.EmitToSend(),
		WireNs:       sp.Wire(),
		QueueWaitNs:  sp.QueueWait(),
		DetectTimeNs: sp.DetectTime(),
		TotalNs:      sp.Total(),
		Complete:     sp.Complete(),
	}
}

// FlightEvent is the JSON form of one flight-recorder event.
type FlightEvent struct {
	Seq   uint64 `json:"seq"`
	Nanos int64  `json:"nanos"`
	Kind  string `json:"kind"`
	Stage uint16 `json:"stage"`
	Host  uint16 `json:"host"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
}

// NewFlightEvents converts flight-recorder events to their event form.
func NewFlightEvents(evs []trace.Event) []FlightEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]FlightEvent, len(evs))
	for i, ev := range evs {
		out[i] = FlightEvent{
			Seq:   ev.Seq,
			Nanos: ev.Nanos,
			Kind:  ev.Kind.String(),
			Stage: ev.Stage,
			Host:  ev.Host,
			A:     ev.A,
			B:     ev.B,
		}
	}
	return out
}

// EventWriter streams anomalies as JSONL to an io.Writer. It is safe for
// concurrent use. Construct with NewEventWriter.
type EventWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	dict   *logpoint.Dictionary
	window time.Duration
	now    func() time.Time
	flight func() []trace.Event
	peer   string
}

// NewEventWriter returns a writer emitting one JSON object per anomaly to w.
// dict (may be nil) resolves stage names; window sizes the window_end field.
func NewEventWriter(w io.Writer, dict *logpoint.Dictionary, window time.Duration) *EventWriter {
	bw := bufio.NewWriter(w)
	return &EventWriter{
		bw:     bw,
		enc:    json.NewEncoder(bw),
		dict:   dict,
		window: window,
		now:    time.Now,
	}
}

// SetFlightSnapshot attaches a flight-recorder snapshot source (nil
// disables): every subsequent event carries the pipeline events recorded
// around emit time. fn is typically Tracer.FlightSnapshot bounded to a few
// dozen events; it is called once per anomaly, never per synopsis. Call
// before the writer is shared — the field is read without synchronization
// by Event.
func (ew *EventWriter) SetFlightSnapshot(fn func() []trace.Event) { ew.flight = fn }

// SetPeer stamps every subsequent event with the originating fleet member
// id (federated deployments; "" keeps the field absent). Call before the
// writer is shared — the field is read without synchronization by Event.
func (ew *EventWriter) SetPeer(id string) { ew.peer = id }

// Event converts one anomaly to its event form without writing it.
func (ew *EventWriter) Event(a analyzer.Anomaly) AnomalyEvent {
	e := AnomalyEvent{
		Time:         ew.now().UTC(),
		Peer:         ew.peer,
		Kind:         a.Kind.String(),
		Host:         a.Host,
		StageID:      uint16(a.Stage),
		WindowStart:  a.Window,
		WindowEnd:    a.Window.Add(ew.window),
		NewSignature: a.NewSignature,
		Outliers:     a.Outliers,
		Tasks:        a.Tasks,
	}
	if a.Signature != "" {
		e.Signature = a.Signature.String()
		for _, id := range a.Signature.Points() {
			e.SignaturePoints = append(e.SignaturePoints, uint16(id))
		}
	}
	if ew.dict != nil {
		e.Stage = ew.dict.StageName(a.Stage)
	}
	if a.Test.N > 0 {
		e.ObservedProportion = a.Test.PHat
		e.ExpectedProportion = a.Test.P0
		e.PValue = a.Test.PValue
	}
	// Attach the span of the first span-sampled example. Examples come from
	// the window the verdict closed, so their spans were completed — on this
	// goroutine — before the anomaly was emitted; reading them here is
	// race-free.
	for _, ex := range a.Examples {
		if sp := ex.Trace; sp != nil && sp.Done > 0 {
			e.Span = NewSpanRecord(sp)
			break
		}
	}
	if ew.flight != nil {
		e.Flight = NewFlightEvents(ew.flight())
	}
	return e
}

// Write appends one anomaly as a JSON line and flushes, so a tail -f on the
// event log sees anomalies as they are detected.
func (ew *EventWriter) Write(a analyzer.Anomaly) error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if err := ew.enc.Encode(ew.Event(a)); err != nil {
		return fmt.Errorf("report: encode event: %w", err)
	}
	// The mutex intentionally covers the flush: EventWriter serializes
	// whole JSON lines, exactly like log.Logger holds its mutex across the
	// underlying Write. Event writes happen per anomaly, not per synopsis.
	if err := ew.bw.Flush(); err != nil {
		return fmt.Errorf("report: flush event: %w", err)
	}
	return nil
}

// WriteAll appends a batch of anomalies, flushing once at the end.
func (ew *EventWriter) WriteAll(anomalies []analyzer.Anomaly) error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	for _, a := range anomalies {
		if err := ew.enc.Encode(ew.Event(a)); err != nil {
			return fmt.Errorf("report: encode event: %w", err)
		}
	}
	// Under the mutex, as in Write: the batch lands in the file as one unit.
	if err := ew.bw.Flush(); err != nil {
		return fmt.Errorf("report: flush events: %w", err)
	}
	return nil
}

// ReadEvents parses a JSONL anomaly event stream back into events; the
// inverse of EventWriter for tests and offline analysis.
func ReadEvents(r io.Reader) ([]AnomalyEvent, error) {
	var out []AnomalyEvent
	dec := json.NewDecoder(r)
	for {
		var e AnomalyEvent
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("report: decode event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
