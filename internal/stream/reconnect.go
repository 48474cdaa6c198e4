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
	// BatchSize bounds the frames encoded per flush (default 128); a
	// flush failure replays at most one batch.
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
// (the Client uses its mutex: Emit pushes while the writer goroutine
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

func (r *spillRing) len() int { return r.n }

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

// runReconnect is the supervised delivery loop of a WithReconnect client:
// it owns the connection, dials (and redials) with capped exponential
// backoff + jitter, drains the spill ring in batches, and replays the
// in-flight batch after a transport error. It exits on Close after a final
// best-effort drain; synopses still spilled then are counted as dropped.
func (c *Client) runReconnect() {
	defer close(c.done)
	rc := c.reconnect
	rng := vtime.NewRNG(rc.Seed)
	backoff := rc.InitialBackoff
	var l *link // the live link, nil while down

	dropLink := func() {
		if l != nil {
			_ = c.shut(l)
			l = nil
		}
	}
	defer dropLink()

	// connect performs one dial attempt.
	connect := func() bool {
		nl, err := c.open()
		if err != nil {
			c.setErr(err)
			if m := c.metrics; m != nil {
				m.Errors.Inc()
			}
			return false
		}
		if m := c.metrics; m != nil && c.everConnected {
			m.Reconnects.Inc()
		}
		c.everConnected = true
		backoff = rc.InitialBackoff
		l = nl
		// Death probe: the synopsis protocol is strictly one-way after the
		// hello ack (already consumed by open), so a returning Read means the
		// analyzer hung up (FIN/RST). Closing the connection here makes the
		// supervisor's next write fail locally and replay its batch,
		// instead of flushing frames into a dead socket where they would
		// be lost unaccounted.
		go func(nc net.Conn) {
			var b [1]byte
			_, _ = nc.Read(b[:])
			_ = nc.Close()
		}(nl.conn)
		return true
	}

	// ensure dials until connected, sleeping the jittered backoff between
	// attempts; it returns false when the client closed meanwhile.
	ensure := func() bool {
		for l == nil {
			if connect() {
				return true
			}
			d := jitter(backoff, rc.Jitter, rng)
			backoff = time.Duration(float64(backoff) * rc.Multiplier)
			if backoff > rc.MaxBackoff {
				backoff = rc.MaxBackoff
			}
			select {
			case <-time.After(d):
			case <-c.stop:
				return false
			}
		}
		return true
	}

	popBatch := func() []*synopsis.Synopsis {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Load-responsive drain: a deep ring (post-outage backlog) is
		// flushed in larger frames so the catch-up amortizes framing and
		// write syscalls, bounded by the protocol's frame limit.
		target := rc.BatchSize
		if depth := c.ring.len(); depth > 4*rc.BatchSize {
			target = min(depth, 8*rc.BatchSize, synopsis.MaxBatchRecords)
		}
		return c.ring.popBatch(target)
	}
	replay := func(batch []*synopsis.Synopsis) {
		c.mu.Lock()
		evicted := c.ring.pushFront(batch)
		c.mu.Unlock()
		if m := c.metrics; m != nil && evicted > 0 {
			m.FramesDropped.Add(uint64(evicted))
		}
	}

	// deliver writes one batch; on failure the batch goes back to the ring
	// head and the link is torn down for redial.
	deliver := func(batch []*synopsis.Synopsis) {
		if err := c.write(l, batch); err != nil {
			c.setErr(err)
			dropLink()
			replay(batch)
		}
	}

	// finalize is the shutdown drain: at most one fresh dial and one
	// attempt per batch — shutdown must not hang on a dead analyzer.
	// deliver tears the link down on error, which ends the loop;
	// whatever stays spilled is counted as dropped, keeping the
	// sent+dropped accounting complete.
	finalize := func() {
		if l == nil {
			connect()
		}
		for l != nil {
			batch := popBatch()
			if len(batch) == 0 {
				break
			}
			deliver(batch)
		}
		c.mu.Lock()
		remaining := c.ring.len()
		c.ring.popBatch(remaining)
		c.mu.Unlock()
		if m := c.metrics; m != nil && remaining > 0 {
			m.FramesDropped.Add(uint64(remaining))
		}
	}

	for {
		select {
		case <-c.stop:
			finalize()
			return
		case <-c.wake:
		}
		for {
			batch := popBatch()
			if len(batch) == 0 {
				break
			}
			if l == nil {
				// Frames must not be stranded outside the ring while we
				// dial; return them (accounted) and reclaim after.
				replay(batch)
				if !ensure() {
					finalize()
					return
				}
				continue
			}
			deliver(batch)
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
