package stream

import (
	"net"
	"time"

	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// ReconnectConfig tunes the self-healing transport enabled by
// WithReconnect: exponential backoff with jitter between dial attempts, and
// a bounded in-memory spill ring that parks synopses across outages and
// replays them once the analyzer is reachable again.
type ReconnectConfig struct {
	// InitialBackoff is the delay before the first redial attempt
	// (default 50ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction so a fleet of
	// trackers does not redial in lockstep (default 0.2).
	Jitter float64
	// SpillCapacity bounds the synopses buffered across an outage
	// (default 8192). When full the oldest synopsis is evicted and
	// counted in TCPClientMetrics.FramesDropped: fresh evidence beats
	// stale evidence for anomaly detection.
	SpillCapacity int
	// BatchSize is the frame size, in records, of the replay that drains
	// the spill ring after a reconnect (default 128): a write that fails
	// mid-replay returns at most that many to the ring. On a live link the
	// frame is the client's adaptive pending batch, as without
	// WithReconnect.
	BatchSize int
	// Seed seeds the deterministic jitter generator (default 1).
	Seed uint64
}

// withDefaults fills unset fields with the documented defaults.
func (rc ReconnectConfig) withDefaults() ReconnectConfig {
	if rc.InitialBackoff <= 0 {
		rc.InitialBackoff = 50 * time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 5 * time.Second
	}
	if rc.MaxBackoff < rc.InitialBackoff {
		rc.MaxBackoff = rc.InitialBackoff
	}
	if rc.Multiplier < 1 {
		rc.Multiplier = 2
	}
	if rc.Jitter <= 0 || rc.Jitter >= 1 {
		rc.Jitter = 0.2
	}
	if rc.SpillCapacity <= 0 {
		rc.SpillCapacity = 8192
	}
	if rc.BatchSize <= 0 {
		rc.BatchSize = 128
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	return rc
}

// spillRing is a fixed-capacity deque of synopses awaiting delivery. Push
// appends at the tail evicting the oldest entry when full (drop-oldest);
// popBatch removes from the head; pushFront returns an undeliverable batch
// to the head for replay after a reconnect. Callers synchronize access
// (the Client uses its mutex: Emit pushes while the background goroutine
// drains).
type spillRing struct {
	buf        []*synopsis.Synopsis
	head, n    int
	depthGauge func(int)
}

func newSpillRing(capacity int, depth func(int)) *spillRing {
	if depth == nil {
		depth = func(int) {}
	}
	return &spillRing{buf: make([]*synopsis.Synopsis, capacity), depthGauge: depth}
}

// len is the ring's depth; a nil ring (no WithReconnect) is empty.
func (r *spillRing) len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// push appends s, evicting the oldest entry when full; it returns the
// number of evicted synopses (0 or 1).
func (r *spillRing) push(s *synopsis.Synopsis) int {
	evicted := 0
	if r.n == len(r.buf) {
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		evicted = 1
	}
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
	r.depthGauge(r.n)
	return evicted
}

// popBatch removes and returns up to max synopses from the head (oldest
// first).
func (r *spillRing) popBatch(max int) []*synopsis.Synopsis {
	if max > r.n {
		max = r.n
	}
	if max <= 0 {
		return nil
	}
	out := make([]*synopsis.Synopsis, max)
	for i := range out {
		out[i] = r.buf[r.head]
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
	}
	r.n -= max
	r.depthGauge(r.n)
	return out
}

// pushFront returns batch (oldest first) to the head for replay. If the
// ring cannot hold everything, the oldest frames of batch are discarded —
// the drop-oldest policy again — and the number discarded is returned.
func (r *spillRing) pushFront(batch []*synopsis.Synopsis) int {
	room := len(r.buf) - r.n
	evicted := 0
	if len(batch) > room {
		evicted = len(batch) - room
		batch = batch[evicted:]
	}
	for i := len(batch) - 1; i >= 0; i-- {
		r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
		r.buf[r.head] = batch[i]
	}
	r.n += len(batch)
	r.depthGauge(r.n)
	return evicted
}

// dial is one connection attempt of a WithReconnect client: the outcome is
// recorded in Err and the metrics, and a new link gets its death probe. It
// runs on the background goroutine, or in Close once that has exited.
func (c *Client) dial() *link {
	l, err := c.open()
	if err != nil {
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
		if m := c.metrics; m != nil {
			m.Errors.Inc()
		}
		return nil
	}
	if m := c.metrics; m != nil && c.everConnected {
		m.Reconnects.Inc()
	}
	c.everConnected = true
	// Death probe: the synopsis protocol is strictly one-way after the
	// hello ack (already consumed by open), so a returning Read means the
	// analyzer hung up (FIN/RST). Closing the connection here makes the
	// next write fail locally and spill its batch, instead of flushing
	// frames into a dead socket where they would be lost unaccounted.
	go func(nc net.Conn) {
		var b [1]byte
		_, _ = nc.Read(b[:])
		_ = nc.Close()
	}(l.conn)
	return l
}

// redial brings a down client back: it dials, sleeping the jittered backoff
// after each attempt that failed (at the dial, or later during the replay),
// until a link is up with the whole ring replayed through it. It returns
// false when the client closed meanwhile.
func (c *Client) redial() bool {
	rc := c.reconnect
	backoff := rc.InitialBackoff
	for {
		if l := c.dial(); l != nil {
			if c.replay(l) {
				return true
			}
			backoff = rc.InitialBackoff // the analyzer did answer
		}
		d := jitter(backoff, rc.Jitter, c.rng)
		backoff = min(time.Duration(float64(backoff)*rc.Multiplier), rc.MaxBackoff)
		select {
		case <-time.After(d):
		case <-c.stop:
			return false
		}
	}
}

// replay writes the spill ring to l, oldest first in BatchSize frames, and
// installs l as the client's link in the critical section that finds the
// ring empty — so nothing can spill behind a link that is already up, and
// emit order holds across the outage. The writes run outside c.mu (l is
// nobody else's yet): emits keep spilling while the backlog drains. A failed
// write returns its frame to the ring head, shuts l and reports false.
func (c *Client) replay(l *link) bool {
	for {
		c.mu.Lock()
		if c.ring.len() == 0 {
			c.link, c.err = l, nil
			c.mu.Unlock()
			return true
		}
		batch := c.ring.popBatch(c.reconnect.BatchSize)
		c.mu.Unlock()
		if err := c.write(l, batch); err != nil {
			c.mu.Lock()
			c.err = err
			c.drop(c.ring.pushFront(batch))
			c.mu.Unlock()
			_ = c.shut(l)
			return false
		}
	}
}

// jitter returns d randomized by ±frac.
func jitter(d time.Duration, frac float64, rng *vtime.RNG) time.Duration {
	if frac <= 0 {
		return d
	}
	f := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}
