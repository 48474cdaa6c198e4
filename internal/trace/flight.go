package trace

import (
	"sync/atomic"
	"time"
)

// EventKind classifies flight-recorder events.
type EventKind uint8

// Flight-recorder event kinds.
const (
	// EventSynopsis is a sampled synopsis arriving at a detector core
	// (A = task id, B = span queue wait in nanoseconds).
	EventSynopsis EventKind = iota + 1
	// EventWindowOpen is a detection window opening for a (host, stage)
	// group (A = window start unix nanos).
	EventWindowOpen
	// EventWindowClose is a detection window closing (A = window task
	// count, B = anomalies the close emitted).
	EventWindowClose
	// EventModelSwap is a shard cutting over to a new model (A = model
	// store version when known).
	EventModelSwap
	// EventLateDrop is a synopsis dropped as a late arrival (A = task id).
	EventLateDrop
)

// String implements fmt.Stringer with the JSON-facing names.
func (k EventKind) String() string {
	switch k {
	case EventSynopsis:
		return "synopsis"
	case EventWindowOpen:
		return "window_open"
	case EventWindowClose:
		return "window_close"
	case EventModelSwap:
		return "model_swap"
	case EventLateDrop:
		return "late_drop"
	default:
		return "unknown"
	}
}

// Event is one recorded pipeline event. A and B are kind-specific payload
// words (see the kind constants).
type Event struct {
	// Seq is the ring-global sequence number (monotonic per ring).
	Seq uint64
	// Nanos is the wall-clock unix-nanosecond record time.
	Nanos int64
	// Kind classifies the event; Stage and Host locate it (0 when not
	// applicable).
	Kind  EventKind
	Stage uint16
	Host  uint16
	// A and B carry the kind-specific payload.
	A, B uint64
}

// slot is one ring entry. Every field is an atomic so concurrent
// snapshots race with writers only in the benign, detected-and-discarded
// sense: the seq field implements a per-slot seqlock — a writer stores the
// odd claim value, the payload, then the even release value, and a reader
// accepts a slot only when it observes the same even value before and
// after reading the payload.
type slot struct {
	seq   atomic.Uint64
	nanos atomic.Int64
	meta  atomic.Uint64 // kind<<32 | stage<<16 | host
	a, b  atomic.Uint64
}

// FlightRing is a fixed-size lock-free ring of recent pipeline events —
// the anomaly flight recorder. Record never allocates and never blocks:
// writers claim slots with one atomic add and publish with a per-slot
// seqlock, so the engine's hot path can record events while /flight and
// the anomaly event writer snapshot concurrently. Capacity is rounded up
// to a power of two. Multiple writers are safe (slots are claimed
// atomically); a reader that races an in-flight write simply skips that
// slot.
type FlightRing struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64
}

// NewFlightRing returns a ring retaining the last capacity events
// (rounded up to a power of two, minimum 16).
func NewFlightRing(capacity int) *FlightRing {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &FlightRing{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Record appends one event, overwriting the oldest when full. It is safe
// from any goroutine, allocation-free, and nil-receiver-safe. The event
// timestamp is the wall clock at the call.
func (r *FlightRing) Record(kind EventKind, stage, host uint16, a, b uint64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1) - 1
	s := &r.slots[seq&r.mask]
	// Claim odd, publish even; both values are derived from seq, so a
	// reader can also verify WHICH write it observed (a slot lapped by a
	// later wrap shows a different even value and is discarded).
	s.seq.Store(2*seq + 1)
	s.nanos.Store(time.Now().UnixNano())
	s.meta.Store(uint64(kind)<<32 | uint64(stage)<<16 | uint64(host))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(2*seq + 2)
}

// Len returns how many events are currently retained.
func (r *FlightRing) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns the retained events, newest first. Slots being written
// (or lapped) during the read are skipped, so the snapshot is always
// internally consistent without blocking writers.
func (r *FlightRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	count := uint64(len(r.slots))
	if n < count {
		count = n
	}
	out := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		seq := n - 1 - i
		s := &r.slots[seq&r.mask]
		want := 2*seq + 2
		if s.seq.Load() != want {
			continue
		}
		ev := Event{
			Seq:   seq,
			Nanos: s.nanos.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
		}
		meta := s.meta.Load()
		if s.seq.Load() != want {
			continue // torn by a concurrent wrap; discard
		}
		ev.Kind = EventKind(meta >> 32)
		ev.Stage = uint16(meta >> 16)
		ev.Host = uint16(meta)
		out = append(out, ev)
	}
	return out
}
