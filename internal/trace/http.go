package trace

import (
	"encoding/json"
	"net/http"
)

// spanJSON is the /trace wire shape: identity, raw stamps, and the derived
// per-hop breakdown in nanoseconds.
type spanJSON struct {
	Stage  uint16 `json:"stage"`
	Host   uint16 `json:"host"`
	TaskID uint64 `json:"task_id"`

	Emit    int64 `json:"emit_ns,omitempty"`
	Send    int64 `json:"send_ns,omitempty"`
	Recv    int64 `json:"recv_ns,omitempty"`
	Enqueue int64 `json:"enqueue_ns,omitempty"`
	Detect  int64 `json:"detect_ns,omitempty"`
	Done    int64 `json:"done_ns,omitempty"`

	EmitToSend int64 `json:"emit_to_send_ns,omitempty"`
	Wire       int64 `json:"wire_ns,omitempty"`
	QueueWait  int64 `json:"queue_wait_ns,omitempty"`
	DetectTime int64 `json:"detect_time_ns,omitempty"`
	Total      int64 `json:"total_ns,omitempty"`
	Complete   bool  `json:"complete"`
}

func toSpanJSON(sp *Span) *spanJSON {
	if sp == nil {
		return nil
	}
	return &spanJSON{
		Stage:      sp.Stage,
		Host:       sp.Host,
		TaskID:     sp.TaskID,
		Emit:       sp.Emit,
		Send:       sp.Send,
		Recv:       sp.Recv,
		Enqueue:    sp.Enqueue,
		Detect:     sp.Detect,
		Done:       sp.Done,
		EmitToSend: sp.EmitToSend(),
		Wire:       sp.Wire(),
		QueueWait:  sp.QueueWait(),
		DetectTime: sp.DetectTime(),
		Total:      sp.Total(),
		Complete:   sp.Complete(),
	}
}

// eventJSON is the /flight wire shape.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	Nanos int64  `json:"nanos"`
	Kind  string `json:"kind"`
	Stage uint16 `json:"stage"`
	Host  uint16 `json:"host"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
}

// EventsJSON converts flight events to their JSON-facing shape (shared by
// /flight and the anomaly event writer).
func EventsJSON(evs []Event) []any {
	out := make([]any, len(evs))
	for i, ev := range evs {
		out[i] = eventJSON{
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

// SpansHandler serves the tracer's recent completed spans as JSON:
// {"sample_every": N, "spans": [...]}, newest first.
func (t *Tracer) SpansHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		spans := t.Spans()
		body := make([]*spanJSON, len(spans))
		for i, sp := range spans {
			body[i] = toSpanJSON(sp)
		}
		every := 0
		if t != nil {
			every = t.cfg.SampleEvery
		}
		writeJSON(w, map[string]any{"sample_every": every, "spans": body})
	})
}

// FlightHandler serves the merged flight-recorder dump as JSON:
// {"events": [...]}, newest first, bounded to max events (<= 0 = all).
func (t *Tracer) FlightHandler(max int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"events": EventsJSON(t.FlightSnapshot(max))})
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
