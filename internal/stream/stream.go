// Package stream moves task synopses from the per-node task execution
// trackers to the centralized statistical analyzer (paper Section 3.1: the
// synopses are "streamed out to a centralized statistical analyzer",
// in-memory, with no persistent storage on the way).
//
// Two transports are provided: an in-process channel transport used by the
// simulation harness, and a TCP transport (client + server) used by
// cmd/saad-analyzer to demonstrate the deployment shape the paper describes.
package stream

import (
	"sync/atomic"

	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// Channel is an in-process transport: trackers emit into it and a consumer
// drains it. It implements tracker.Sink. The zero value is not usable;
// construct with NewChannel.
//
// Emit is lock-free: the dropped counter and closed flag are atomics, so
// concurrent emitters — every worker thread of every instrumented stage —
// never serialize on a mutex just to account for their synopsis. To keep
// Emit safe against a concurrent Close without a lock, the buffer channel
// itself is never closed; Close instead closes the separate Done signal
// channel. Receivers selecting on C() should therefore also select on
// Done() (or use Drain, which never blocks).
type Channel struct {
	ch      chan *synopsis.Synopsis
	done    chan struct{}
	closed  atomic.Bool
	emitted atomic.Uint64
	dropped atomic.Uint64
}

var _ tracker.Sink = (*Channel)(nil)

// NewChannel returns a channel transport with the given buffer capacity.
// Capacity 0 is clamped to 1 so emitters in the simulated hot path never
// block forever on an abandoned consumer.
func NewChannel(capacity int) *Channel {
	if capacity < 1 {
		capacity = 1
	}
	return &Channel{ch: make(chan *synopsis.Synopsis, capacity), done: make(chan struct{})}
}

// RegisterMetrics exposes the channel's native emit/drop counters and live
// buffer depth on r. The counters are read at scrape time, so enabling
// metrics adds zero cost to the emit hot path.
func (c *Channel) RegisterMetrics(r *metrics.Registry) {
	metrics.RegisterChannel(r, c.Emitted, c.Dropped, c.Len, c.Cap)
}

// Emit implements tracker.Sink. When the buffer is full or the channel is
// closed the synopsis is dropped and counted: SAAD is a monitoring layer
// and must never apply backpressure to the server it observes.
func (c *Channel) Emit(s *synopsis.Synopsis) {
	// An emitter that loads closed as false while Close runs may still
	// win the send; that synopsis is buffered and remains drainable, so
	// accounting stays exact. The buffer channel is never closed, so the
	// send can never panic.
	if c.closed.Load() {
		c.dropped.Add(1)
		return
	}
	select {
	case c.ch <- s:
		c.emitted.Add(1)
	default:
		c.dropped.Add(1)
	}
}

// C returns the receive side.
func (c *Channel) C() <-chan *synopsis.Synopsis { return c.ch }

// Len returns the number of synopses currently buffered.
func (c *Channel) Len() int { return len(c.ch) }

// Cap returns the buffer capacity.
func (c *Channel) Cap() int { return cap(c.ch) }

// Emitted returns the number of synopses accepted into the buffer.
func (c *Channel) Emitted() uint64 { return c.emitted.Load() }

// Dropped returns the number of synopses dropped due to a full buffer or a
// closed channel.
func (c *Channel) Dropped() uint64 { return c.dropped.Load() }

// Done is closed when the channel is closed; receivers blocked on C()
// should select on it and then Drain any remainder.
func (c *Channel) Done() <-chan struct{} { return c.done }

// Close stops the channel: Emit calls after Close count as drops, and
// Done() is closed to wake receivers. Synopses already buffered remain
// available through C() and Drain. Close is idempotent and safe to call
// concurrently with Emit.
func (c *Channel) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.done)
	}
}

// Drain consumes everything currently buffered without blocking and returns
// it; useful for step-driven simulations that alternate produce/consume.
func (c *Channel) Drain() []*synopsis.Synopsis {
	var out []*synopsis.Synopsis
	for {
		select {
		case s := <-c.ch:
			out = append(out, s)
		default:
			return out
		}
	}
}
