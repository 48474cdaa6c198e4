package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/trace"
	"saad/internal/tracker"
	"saad/internal/vtime"
)

// DefaultDialTimeout bounds connection establishment; a monitoring client
// must never hang indefinitely on an unreachable analyzer.
const DefaultDialTimeout = 10 * time.Second

// DefaultWriteTimeout bounds how long a single encode/flush may block on a
// wedged connection before it is treated as a transport error.
const DefaultWriteTimeout = 10 * time.Second

// Adaptive batching bounds: the pending batch is written when it reaches the
// current target (size trigger) or on the background flush tick (latency
// trigger); the target doubles on size triggers and halves when a tick finds
// the batch underfilled, so batch size tracks offered load.
const (
	minDirectBatch     = 8
	initialDirectBatch = 16
	maxDirectBatch     = 2048
)

// readBufferSize is a server connection's read buffer. The decoder reads
// each frame whole into a scratch of its own, and bufio reads a frame larger
// than the buffer straight into that scratch, so the buffer only batches the
// reads of small frames: 4 KiB holds a frame of several hundred records.
const readBufferSize = 4 << 10

// reconnectFlushEvery is the flush tick of a WithReconnect client dialed
// with flushEvery <= 0. Such a client always has a background goroutine (it
// redials), and a tick is what bounds how long a synopsis pends on it.
const reconnectFlushEvery = 2 * time.Millisecond

// errNotConnected is a WithReconnect client's Err until its first dial
// attempt resolves: Dial returns before making one.
var errNotConnected = errors.New("stream: not connected yet")

// countingWriter charges bytes written to a counter; it wraps the client
// connection, so it observes wire bytes.
type countingWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// countingReader charges bytes read to a counter.
type countingReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

// Client streams synopses to a remote analyzer over TCP in batch frames
// (DESIGN §15). It implements tracker.Sink. There is one delivery path:
// every Emit pends into an adaptive batch, and the batch is written to the
// link as one frame by the size trigger, the flush tick, Flush or Close — on
// the emitter's goroutine or the client's one background goroutine, under
// the client's lock. Emit blocks on the network no further than the kernel
// send buffer and the write timeout, because a monitoring layer must not
// take the server down with it.
//
// What a failed write means is the only thing WithReconnect changes (DESIGN
// §9). Without it the link is shut, the batch is dropped and counted, and
// the error latches: every later Emit is dropped and counted too. With it
// the link is shut, the batch moves in order into a bounded spill ring and
// later emits spill behind it; the background goroutine redials with capped
// exponential backoff + jitter, replays the ring oldest first and installs
// the new link at the instant the ring is empty — a non-empty ring means
// there is no link. When the ring overflows the oldest synopsis is dropped
// and counted.
type Client struct {
	addr         string
	dialTimeout  time.Duration
	writeTimeout time.Duration
	metrics      *metrics.TCPClientMetrics

	mu     sync.Mutex
	err    error
	closed bool

	// link is nil when there is nothing to write to: a failed write shut
	// it, or a WithReconnect client has not connected yet. pending is empty
	// whenever link is nil.
	link        *link
	pending     []*synopsis.Synopsis
	batchTarget int

	// ring holds what a WithReconnect client could not write (nil without
	// the option). Non-empty only while link is nil.
	reconnect     ReconnectConfig
	ring          *spillRing
	down          chan struct{} // a failed write tells run to redial now, not at the next tick
	rng           *vtime.RNG    // backoff jitter; run goroutine only
	everConnected bool          // run goroutine, then Close once it has exited

	stop chan struct{}
	done chan struct{}
}

var _ tracker.Sink = (*Client)(nil)

// link is one negotiated connection. The frame encoder lives and dies with
// it, so a new connection starts with an empty intern table on both ends.
type link struct {
	conn         net.Conn
	w            io.Writer // conn, counted when the client is instrumented
	enc          *synopsis.BatchEncoder
	frame        []byte // reusable frame scratch
	lastInterned uint64
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithClientMetrics instruments the client: dials, frames and wire bytes
// sent, drops, spill depth, and transport errors.
func WithClientMetrics(m *metrics.TCPClientMetrics) ClientOption {
	return func(c *Client) { c.metrics = m }
}

// WithDialTimeout bounds connection establishment, hello exchange included
// (default DefaultDialTimeout; d <= 0 keeps the default).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithWriteTimeout bounds each frame write on the connection (default
// DefaultWriteTimeout; d <= 0 keeps the default).
func WithWriteTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.writeTimeout = d
		}
	}
}

// WithProtocol is a no-op: protocol v2 is the only wire format. The name
// survives because benchmark/ calls it; it goes when benchmark/ is next
// edited (ROADMAP item 7).
func WithProtocol(int) ClientOption { return func(*Client) {} }

// WithReconnect makes the client self-healing: a failed write parks its
// batch in the spill ring for replay over a new connection instead of
// dropping it and latching (see Client). The zero ReconnectConfig selects
// the documented defaults. With reconnect enabled, Dial returns immediately
// without a synchronous connection attempt: the background goroutine
// establishes (and re-establishes) the connection, so the client is usable,
// spilling, even while the analyzer is down.
func WithReconnect(cfg ReconnectConfig) ClientOption {
	return func(c *Client) { c.reconnect = cfg.withDefaults() }
}

// Dial connects to a synopsis server at addr. flushEvery bounds how long a
// synopsis may sit in the pending batch. Without WithReconnect, 0 disables
// the background flusher (the size trigger, Flush and Close still write) and
// the client runs no goroutine at all; with it, flushEvery <= 0 selects a
// 2 ms tick.
func Dial(addr string, flushEvery time.Duration, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:         addr,
		dialTimeout:  DefaultDialTimeout,
		writeTimeout: DefaultWriteTimeout,
		batchTarget:  initialDirectBatch,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.reconnect.SpillCapacity > 0 {
		c.ring = newSpillRing(c.reconnect.SpillCapacity, func(n int) {
			if m := c.metrics; m != nil {
				m.SpillDepth.Set(float64(n))
			}
		})
		c.down = make(chan struct{}, 1)
		c.rng = vtime.NewRNG(c.reconnect.Seed)
		c.err = errNotConnected
		if flushEvery <= 0 {
			flushEvery = reconnectFlushEvery
		}
	} else {
		l, err := c.open()
		if err != nil {
			return nil, err
		}
		c.link = l
	}
	if flushEvery > 0 {
		go c.run(flushEvery)
	} else {
		close(c.done)
	}
	return c, nil
}

// connByteReader adapts a net.Conn to io.ByteReader for the hello ack —
// one byte per read, so no read-ahead can swallow post-handshake bytes the
// death probe must see.
type connByteReader struct{ c net.Conn }

func (r connByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r.c, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// open establishes one link: dial, send the hello, require the server to
// ack protocol v2. The whole exchange is bounded by the dial timeout. A
// server that hangs up on the hello or acks anything else is a failed dial
// like any other — there is no older framing to fall back to.
func (c *Client) open() (*link, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Now().Add(c.dialTimeout))
	var hb [16]byte
	_, err = conn.Write(synopsis.AppendHello(hb[:0], synopsis.ProtocolV2))
	var ver int
	if err == nil {
		ver, err = synopsis.ReadHelloAck(connByteReader{c: conn})
	}
	if err == nil && ver != synopsis.ProtocolV2 {
		err = fmt.Errorf("server acked protocol v%d, want v%d", ver, synopsis.ProtocolV2)
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: negotiate %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	l := &link{conn: conn, w: conn, enc: synopsis.NewBatchEncoder()}
	if m := c.metrics; m != nil {
		m.Dials.Inc()
		m.ProtocolVersion.Set(synopsis.ProtocolV2)
		l.w = countingWriter{w: conn, c: m.BytesSent}
	}
	return l, nil
}

// shut closes l's connection and zeroes the protocol gauge. Finding it
// closed already is no error: the death probe got there first.
func (c *Client) shut(l *link) error {
	if m := c.metrics; m != nil {
		m.ProtocolVersion.Set(0)
	}
	if err := l.conn.Close(); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// write sends one batch on l as v2 frames, bounded by the write timeout.
// Send is stamped (and on a replay re-stamped) at the encode that actually
// reaches the wire, so Send-Emit includes any spill-ring dwell. What a
// failed write means for the batch — drop or replay — is the caller's
// policy.
func (c *Client) write(l *link, batch []*synopsis.Synopsis) error {
	var now int64
	for _, s := range batch {
		if sp := s.Trace; sp != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sp.Send = now
		}
	}
	l.frame = l.enc.AppendFrames(l.frame[:0], batch)
	_ = l.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	_, err := l.w.Write(l.frame)
	if m := c.metrics; m != nil {
		if err != nil {
			m.Errors.Inc()
			return err
		}
		m.FramesSent.Add(uint64(len(batch)))
		m.BatchRecords.Observe(float64(len(batch)))
		if refs := l.enc.InternedRefs(); refs > l.lastInterned {
			m.InternedHeaders.Add(refs - l.lastInterned)
			l.lastInterned = refs
		}
	}
	return err
}

// run is the client's one background goroutine. Each tick is the latency
// trigger: it writes whatever pended since the last one and shrinks the size
// target when load is light. Finding the link gone — at a tick, or told so
// at once by the write that failed — ends the goroutine (no WithReconnect:
// the error is latched and there is nothing left to write, ever) or redials
// before the next tick.
func (c *Client) run(every time.Duration) {
	defer close(c.done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	down := c.ring != nil // a WithReconnect client starts without a link
	for {
		if down && (c.ring == nil || !c.redial()) {
			return
		}
		select {
		case <-ticker.C:
		case <-c.down:
		case <-c.stop:
			return
		}
		c.mu.Lock()
		underfilled := len(c.pending) < c.batchTarget/4
		c.flushPendingLocked()
		if underfilled && c.batchTarget > minDirectBatch {
			c.batchTarget /= 2
		}
		down = c.link == nil
		c.mu.Unlock()
	}
}

// Emit implements tracker.Sink. It never blocks beyond the configured write
// timeout; synopses that cannot be delivered (or buffered for delivery) are
// dropped and counted in FramesDropped.
func (c *Client) Emit(s *synopsis.Synopsis) {
	if !c.offer(s) {
		c.drop(1)
	}
}

// drop counts n synopses the client gave up on.
func (c *Client) drop(n int) {
	if m := c.metrics; m != nil && n > 0 {
		m.FramesDropped.Add(uint64(n))
	}
}

// offer takes s for delivery. It returns false, leaving s unaccounted, when
// the client can take nothing any more: it is closed, or a failed write
// latched (a WithReconnect client spills instead while it has no link).
func (c *Client) offer(s *synopsis.Synopsis) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if c.link == nil {
		if c.ring == nil {
			return false
		}
		c.drop(c.ring.push(s))
		return true
	}
	// Pend into the adaptive batch; the size trigger writes a full batch,
	// the background tick bounds latency.
	c.pending = append(c.pending, s)
	if len(c.pending) >= c.batchTarget {
		c.flushPendingLocked()
		if c.link != nil && c.batchTarget < maxDirectBatch {
			c.batchTarget *= 2 // size-triggered: load supports bigger batches
		}
	}
	return true
}

// flushPendingLocked writes the pending batch to the link as one frame.
// Callers hold c.mu. A failed write shuts the link and decides the batch's
// fate, the one place the two kinds of client differ: without WithReconnect
// it is dropped and counted and the error stays latched; with it the batch
// becomes the head of the spill ring (empty until now, so emit order holds)
// for the background goroutine to replay. Either way every Emit ends in
// FramesSent or FramesDropped.
func (c *Client) flushPendingLocked() {
	if len(c.pending) == 0 {
		return // always the case while link is nil
	}
	if err := c.write(c.link, c.pending); err != nil {
		c.err = err
		_ = c.shut(c.link)
		c.link = nil
		if c.ring == nil {
			c.drop(len(c.pending))
		} else {
			c.drop(c.ring.pushFront(c.pending))
			select {
			case c.down <- struct{}{}:
			default: // run has one to read already
			}
		}
	}
	clear(c.pending)
	c.pending = c.pending[:0]
}

// Flush writes the pending batch to the link: a delivery barrier for
// callers that need bounded handoff latency (the federation forward path
// uses it before control-plane transitions). A nil return means everything
// taken so far has been written. A non-nil one is Err: the latched error,
// or under WithReconnect the reason the client is down, with what it took
// parked in the spill ring.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushPendingLocked()
	return c.err
}

// Err returns the latched transport error or, under WithReconnect, the
// error behind the current outage: the failed write that opened it or the
// latest failed dial. It is nil while such a client is connected.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Spilled returns the number of synopses currently parked in the reconnect
// spill ring (always 0 without WithReconnect).
func (c *Client) Spilled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.len()
}

// Close refuses further emits, stops the background goroutine, writes the
// pending batch and closes the connection. A WithReconnect client that is
// down makes one last dial and replay of its spill ring (bounded by the dial
// and write timeouts, never by the backoff schedule); what it still cannot
// deliver is counted in FramesDropped, not returned.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done

	c.mu.Lock()
	c.flushPendingLocked()
	spilled := c.ring.len() > 0
	c.mu.Unlock()
	if spilled {
		if l := c.dial(); l != nil {
			c.replay(l)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.ring.len(); n > 0 {
		c.ring.popBatch(n)
		c.drop(n)
	}
	var closeErr error
	if c.link != nil {
		closeErr = c.shut(c.link)
	}
	if c.ring == nil && c.err != nil {
		return fmt.Errorf("stream: close flush: %w", c.err)
	}
	if closeErr != nil {
		return fmt.Errorf("stream: close conn: %w", closeErr)
	}
	return nil
}

// Server accepts TCP connections carrying synopsis streams and forwards
// every decoded synopsis to a sink. Construct with Listen; stop with Close,
// which waits for connection handlers to exit. The server is built to
// outlive its clients: a connection that fails mid-stream is dropped
// without disturbing the listener or other connections, and transient
// accept errors are retried with backoff instead of killing the accept
// loop.
type Server struct {
	ln       net.Listener
	metrics  *metrics.TCPServerMetrics
	sampler  *trace.Sampler
	readIdle time.Duration

	// batchSink is the frame entry point of the sink NewServer was given:
	// the sink itself when it is a BatchSink, an adapter otherwise.
	batchSink BatchSink

	// pool, when set, recycles decoded synopses: the handler draws each
	// record's synopsis from the pool and the sink (an engine built
	// WithSynopsisRelease) returns it after detection — the zero-alloc
	// receive path.
	pool *synopsis.Pool

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	closing chan struct{} // closed by Close: cuts the accept back-off short
	ended   uint64        // connections that have come and gone

	wg sync.WaitGroup
}

// BatchSink is the batch extension of tracker.Sink, and the only way the
// server hands anything on: each decoded frame is one EmitBatch call, whole
// or — when the connection fails before the frame's last record — not at
// all. The engine maps the call to FeedBatch, amortizing per-record queue
// operations; a tracker.Sink without EmitBatch is fed record by record by an
// adapter, under the same whole-frame rule. Ownership of the synopses passes
// to the sink; the slice is only lent. The sink may overwrite its elements
// during the call (synopsis.Pool.PutN clears them) and must not keep the
// slice once EmitBatch returns: the connection refills it with the next
// frame.
type BatchSink interface {
	EmitBatch(batch []*synopsis.Synopsis)
}

// perRecordSink feeds a plain tracker.Sink a frame at a time.
type perRecordSink struct{ sink tracker.Sink }

func (p perRecordSink) EmitBatch(batch []*synopsis.Synopsis) {
	for _, s := range batch {
		p.sink.Emit(s)
	}
}

// discardSink stands in for a nil sink: the frame is counted and its
// records go straight back to the receive pool, if there is one.
type discardSink struct{ pool *synopsis.Pool }

func (d discardSink) EmitBatch(batch []*synopsis.Synopsis) { d.pool.PutN(batch) }

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithServerMetrics instruments the server: accepted and open connections,
// frames and wire bytes received, per-connection protocol errors, client
// resyncs and retried accept errors.
func WithServerMetrics(m *metrics.TCPServerMetrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// WithServerSampler originates pipeline spans at the receive boundary for
// arrivals that do not already carry one: 1 in N untraced frames gets a
// span stamped at Recv, so an analyzer can measure its own share
// (queue wait + detect) even when trackers are old peers that never heard
// of tracing. Frames that arrive with a span keep it regardless of the
// sampler.
func WithServerSampler(sp *trace.Sampler) ServerOption {
	return func(s *Server) { s.sampler = sp }
}

// WithReadIdleTimeout reaps connections that go silent: each frame read
// arms a deadline of d, and a connection that delivers nothing for that
// long is closed and counted in IdleReaps. Half-open peers (a tracker
// behind an asymmetric partition, a crashed host whose FIN never arrived)
// otherwise pin a handler goroutine and a socket forever. d <= 0 disables
// reaping (the default): trackers with sparse workloads may legitimately
// idle, so reaping is opt-in and d should comfortably exceed the client's
// flush interval.
func WithReadIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.readIdle = d
		}
	}
}

// WithServerProtocol is a no-op, kept for benchmark/ like WithProtocol.
func WithServerProtocol(int) ServerOption { return func(*Server) {} }

// WithServerPool recycles decoded synopses through p. Pair it with an
// engine built analyzer.WithSynopsisRelease(p.Put): the handler draws from
// the pool, the engine releases after detection, and the steady-state
// receive path allocates nothing. Without the engine-side release the pool
// simply stays empty and every Get falls back to allocation — safe, just
// not free.
func WithServerPool(p *synopsis.Pool) ServerOption {
	return func(s *Server) { s.pool = p }
}

// Listen starts a server on addr (e.g. "127.0.0.1:0") delivering synopses
// to sink.
func Listen(addr string, sink tracker.Sink, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	return NewServer(ln, sink, opts...), nil
}

// NewServer starts a server over an existing listener (an inherited socket,
// or a fault-injection wrapper in the chaos tests) delivering synopses to
// sink. The server takes ownership of ln.
func NewServer(ln net.Listener, sink tracker.Sink, opts ...ServerOption) *Server {
	s := &Server{
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	switch bs, ok := sink.(BatchSink); {
	case ok:
		s.batchSink = bs
	case sink != nil:
		s.batchSink = perRecordSink{sink}
	default:
		s.batchSink = discardSink{s.pool}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	retry := 5 * time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (e.g. out of file descriptors,
			// connection aborted before accept): back off briefly and
			// keep listening — the analyzer must not go dark because one
			// accept failed.
			if m := s.metrics; m != nil {
				m.AcceptErrors.Inc()
			}
			select {
			case <-time.After(retry):
			case <-s.closing:
				return
			}
			retry = min(2*retry, time.Second)
			continue
		}
		retry = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		resync := s.ended > 0
		s.mu.Unlock()
		if m := s.metrics; m != nil {
			// A resync is an accept after a prior connection came and went —
			// on this server, or (visible through the shared metric bundle as
			// total connections exceeding currently open ones) on a previous
			// incarnation before a restart.
			if resync || float64(m.Connections.Value()) > m.OpenConnections.Value() {
				m.Resyncs.Inc()
			}
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// classifyReadErr maps a decode/read error to handler disposition,
// counting idle reaps and protocol errors. It always means "stop serving
// this connection".
func (s *Server) classifyReadErr(err error) {
	m := s.metrics
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		// The peer went silent past the idle budget: reap the
		// connection so half-open peers can't pin handlers forever.
		if m != nil {
			m.IdleReaps.Inc()
		}
		return
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		// Truncated stream on teardown is routine; anything else is
		// a protocol error from this connection — drop the
		// connection either way, monitoring must keep running.
		if m != nil {
			m.ConnErrors.Inc()
		}
	}
}

// stampRecv stamps (or samples) the receive boundary on one decoded
// synopsis.
func (s *Server) stampRecv(syn *synopsis.Synopsis) {
	if sp := syn.Trace; sp != nil {
		sp.Recv = time.Now().UnixNano()
	} else if s.sampler.Sample() {
		syn.Trace = &trace.Span{
			Stage:  uint16(syn.Stage),
			Host:   syn.Host,
			TaskID: syn.TaskID,
			Recv:   time.Now().UnixNano(),
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	m := s.metrics
	if m != nil {
		m.Connections.Inc()
		m.OpenConnections.Add(1)
	}
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.ended++
		s.mu.Unlock()
		if m != nil {
			m.OpenConnections.Add(-1)
		}
	}()
	r := io.Reader(conn)
	if m != nil {
		r = countingReader{r: conn, c: m.BytesReceived}
	}
	br := bufio.NewReaderSize(r, readBufferSize)

	// The hello is mandatory. A peer that opens with anything else, or
	// offers only a version below 2, is counted and hung up on without a
	// byte written: there is no older framing to fall back to.
	if s.readIdle > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.readIdle))
	}
	maxVer, isHello, err := synopsis.PeekHello(br)
	if err != nil {
		s.classifyReadErr(err)
		return
	}
	if !isHello || maxVer < synopsis.ProtocolV2 {
		if m != nil {
			m.ConnErrors.Inc()
		}
		return
	}
	// The ack is the server's only write, ever: the stream stays strictly
	// one-way after the handshake, so the client death probe keeps working
	// (any later inbound byte still means "server gone").
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	var ab [16]byte
	if _, err := conn.Write(synopsis.AppendHelloAck(ab[:0], synopsis.ProtocolV2)); err != nil {
		if m != nil {
			m.ConnErrors.Inc()
		}
		return
	}
	s.receive(conn, br)
}

// receive is the per-connection receive loop. Once the decoder has read a
// frame, the frame's records are drawn from the pool in one GetN, decoded
// into, and handed to the sink in one EmitBatch — so a frame is delivered
// whole or not at all, a client replaying a batch after a cut cannot
// duplicate records the server already passed on, and the connection holds
// no pool record between frames. The batch slice is the connection's own,
// lent to the sink one frame at a time (see BatchSink), so a frame costs no
// allocation here.
func (s *Server) receive(conn net.Conn, br *bufio.Reader) {
	m := s.metrics
	dec := synopsis.NewBatchDecoder(br)
	var batch []*synopsis.Synopsis
	var lastInterned uint64
	for {
		// The idle deadline is armed once a frame: the decoder reads each
		// frame whole, so a peer stalling mid-frame trips the deadline armed
		// at its frame's start.
		if s.readIdle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readIdle))
		}
		n, err := dec.Next()
		if err != nil {
			s.classifyReadErr(err)
			return
		}
		if cap(batch) < n {
			// A frame larger than any before it (the decoder admits at most
			// synopsis.MaxBatchRecords).
			batch = make([]*synopsis.Synopsis, n)
		}
		batch = batch[:n]
		s.pool.GetN(batch)
		for _, syn := range batch {
			if err := dec.Decode(syn); err != nil {
				// A malformed record ends the connection mid-frame: the
				// frame's records are still the server's and all go back.
				s.pool.PutN(batch)
				s.classifyReadErr(err)
				return
			}
			s.stampRecv(syn)
		}
		if m != nil {
			// Record counters update once per frame, not per record.
			m.FramesReceived.Add(uint64(n))
			m.BatchRecords.Observe(float64(n))
		}
		s.batchSink.EmitBatch(batch)
		clear(batch) // the records are the sink's now
		if m != nil {
			if refs := dec.InternedRefs(); refs > lastInterned {
				m.InternedHeaders.Add(refs - lastInterned)
				lastInterned = refs
			}
		}
	}
}

// Remotes lists the remote address of every live connection, sorted, for
// /statusz.
func (s *Server) Remotes() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.conns))
	for conn := range s.conns {
		out = append(out, conn.RemoteAddr().String())
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Close stops accepting, closes live connections and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.closing)
	err := s.ln.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if err != nil {
		return fmt.Errorf("stream: close listener: %w", err)
	}
	return nil
}
