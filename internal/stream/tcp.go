package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/trace"
	"saad/internal/tracker"
)

// DefaultDialTimeout bounds connection establishment; a monitoring client
// must never hang indefinitely on an unreachable analyzer.
const DefaultDialTimeout = 10 * time.Second

// DefaultWriteTimeout bounds how long a single encode/flush may block on a
// wedged connection before it is treated as a transport error.
const DefaultWriteTimeout = 10 * time.Second

// Direct-mode adaptive batching bounds (protocol v2): the pending batch is
// flushed when it reaches the current target (size trigger) or on the
// background flush tick (latency trigger); the target doubles on size
// triggers and halves when a tick finds the batch underfilled, so batch
// size tracks offered load.
const (
	minDirectBatch     = 8
	initialDirectBatch = 16
	maxDirectBatch     = 2048
)

// v1ReprobeEvery is how often a reconnecting client that latched a v1 peer
// re-attempts the hello (every Nth dial): a legacy analyzer replaced by an
// upgraded one is re-detected within a few reconnects, while the steady
// v1 cost stays one wasted probe connection per N dials.
const v1ReprobeEvery = 16

// countingWriter charges bytes written to a counter; it wraps the client
// connection below the encoder's bufio layer, so it observes flushed wire
// bytes, not buffered user-space bytes.
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

// Client streams synopses to a remote analyzer over TCP using the compact
// binary codec. It implements tracker.Sink. Emit never blocks on the
// network beyond the kernel send buffer plus the encoder's user-space
// buffer, because a monitoring layer must not take the server down with it.
//
// Without WithReconnect the client latches the first transport error and
// drops (and counts) every subsequent emit. With WithReconnect the client
// is self-healing: emits are parked in a bounded spill ring, a supervisor
// goroutine redials with capped exponential backoff + jitter, and spilled
// synopses are replayed after reconnecting; when the ring overflows the
// oldest synopsis is dropped and counted.
type Client struct {
	addr         string
	flushEvery   time.Duration
	dialTimeout  time.Duration
	writeTimeout time.Duration
	metrics      *metrics.TCPClientMetrics

	// protoMax caps the negotiated wire protocol (WithProtocol); 1 selects
	// the legacy framing with no hello.
	protoMax int

	mu     sync.Mutex
	conn   net.Conn // direct mode only; the reconnect supervisor owns its own
	enc    *synopsis.Encoder
	err    error
	closed bool

	// Direct-mode v2 state: records pend in a batch and are flushed by
	// size trigger, the background flush tick, or Close.
	proto        int // negotiated protocol of the live connection (0 = none)
	w            io.Writer
	benc         *synopsis.BatchEncoder
	pending      []*synopsis.Synopsis
	frame        []byte
	batchTarget  int
	lastInterned uint64

	// Reconnect mode state (nil ring = direct mode).
	reconnect     ReconnectConfig
	ring          *spillRing
	wake          chan struct{}
	everConnected bool // supervisor goroutine only

	stop chan struct{}
	done chan struct{}
}

var _ tracker.Sink = (*Client)(nil)

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithClientMetrics instruments the client: dials, frames and wire bytes
// sent, drops, spill depth, and transport errors.
func WithClientMetrics(m *metrics.TCPClientMetrics) ClientOption {
	return func(c *Client) { c.metrics = m }
}

// WithDialTimeout bounds connection establishment (default
// DefaultDialTimeout; d <= 0 keeps the default).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithWriteTimeout bounds each encode/flush on the connection (default
// DefaultWriteTimeout; d <= 0 keeps the default).
func WithWriteTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.writeTimeout = d
		}
	}
}

// WithProtocol caps the wire protocol version the client negotiates
// (default synopsis.MaxProtocolVersion). WithProtocol(1) speaks the legacy
// per-record framing and sends no hello — byte-identical on the wire to a
// pre-v2 client, which is what the interop tests (and genuinely old
// analyzers) rely on.
func WithProtocol(v int) ClientOption {
	return func(c *Client) {
		if v >= synopsis.ProtocolV1 && v <= synopsis.MaxProtocolVersion {
			c.protoMax = v
		}
	}
}

// WithReconnect makes the client self-healing (see Client). The zero
// ReconnectConfig selects the documented defaults. With reconnect enabled,
// Dial returns immediately without a synchronous connection attempt: the
// supervisor establishes (and re-establishes) the connection in the
// background, so the client is usable even while the analyzer is down.
func WithReconnect(cfg ReconnectConfig) ClientOption {
	return func(c *Client) { c.reconnect = cfg.withDefaults() }
}

// Dial connects to a synopsis server at addr. flushEvery bounds how long a
// synopsis may sit in the user-space buffer (0 disables the background
// flusher; Close still flushes). In reconnect mode delivery is batched and
// flushed per batch, and flushEvery is ignored.
func Dial(addr string, flushEvery time.Duration, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:         addr,
		flushEvery:   flushEvery,
		dialTimeout:  DefaultDialTimeout,
		writeTimeout: DefaultWriteTimeout,
		protoMax:     synopsis.MaxProtocolVersion,
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
		c.wake = make(chan struct{}, 1)
		go c.runReconnect()
		return c, nil
	}
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	ver := synopsis.ProtocolV1
	if c.protoMax >= synopsis.ProtocolV2 {
		v, nerr := negotiate(conn, c.protoMax, c.dialTimeout)
		switch {
		case nerr == nil:
			ver = v
		case peerSpeaksV1(nerr):
			// Legacy analyzer: it read the hello magic as an oversized v1
			// record and hung up. Redial speaking v1.
			_ = conn.Close()
			conn, err = net.DialTimeout("tcp", addr, c.dialTimeout)
			if err != nil {
				return nil, fmt.Errorf("stream: redial %s as v1: %w", addr, err)
			}
		default:
			_ = conn.Close()
			return nil, fmt.Errorf("stream: negotiate %s: %w", addr, nerr)
		}
	}
	c.conn = conn
	c.proto = ver
	w := io.Writer(conn)
	if m := c.metrics; m != nil {
		m.Dials.Inc()
		m.ProtocolVersion.Set(float64(ver))
		w = countingWriter{w: conn, c: m.BytesSent}
	}
	c.w = w
	if ver >= synopsis.ProtocolV2 {
		c.benc = synopsis.NewBatchEncoder()
		c.batchTarget = initialDirectBatch
	} else {
		c.enc = synopsis.NewEncoder(w)
	}
	if flushEvery > 0 {
		go c.flushLoop(flushEvery)
	} else {
		close(c.done)
	}
	return c, nil
}

// Protocol returns the wire protocol version of the live connection (0
// while a reconnecting client is between connections).
func (c *Client) Protocol() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proto
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

// negotiate performs the client half of the hello exchange on nc: write
// the hello, read the ack, return the version the server chose. The whole
// exchange is bounded by timeout.
func negotiate(nc net.Conn, maxVer int, timeout time.Duration) (int, error) {
	if timeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = nc.SetDeadline(time.Time{}) }()
	}
	var hb [16]byte
	if _, err := nc.Write(synopsis.AppendHello(hb[:0], maxVer)); err != nil {
		return 0, err
	}
	return synopsis.ReadHelloAck(connByteReader{c: nc})
}

// peerSpeaksV1 classifies a failed hello exchange. A pre-v2 server reads
// the hello magic as an oversized record length and drops the connection
// immediately, surfacing here as an EOF or reset — the deterministic
// downgrade signal. A timeout or any other transport error is NOT a
// downgrade signal: the peer's version is unknown, so the caller should
// treat it as an ordinary connection failure and retry.
func peerSpeaksV1(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

func (c *Client) flushLoop(every time.Duration) {
	defer close(c.done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.mu.Lock()
			if c.err == nil && !c.closed {
				if c.benc != nil {
					// Latency trigger: ship whatever pended since the last
					// tick, and shrink the size target when load is light.
					underfilled := len(c.pending) < c.batchTarget/4
					c.flushPendingLocked()
					if underfilled && c.batchTarget > minDirectBatch {
						c.batchTarget /= 2
					}
				} else {
					c.armWriteDeadline()
					c.err = c.enc.Flush()
					if m := c.metrics; m != nil && c.err != nil {
						m.Errors.Inc()
					}
				}
			}
			c.mu.Unlock()
		case <-c.stop:
			return
		}
	}
}

// armWriteDeadline refreshes the direct-mode connection's write deadline;
// callers hold c.mu and are about to write.
func (c *Client) armWriteDeadline() {
	if c.writeTimeout > 0 && c.conn != nil {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// Emit implements tracker.Sink. It never blocks beyond the configured write
// timeout; synopses that cannot be delivered (or buffered for delivery) are
// dropped and counted in FramesDropped.
func (c *Client) Emit(s *synopsis.Synopsis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil {
		if c.closed {
			if m := c.metrics; m != nil {
				m.FramesDropped.Inc()
			}
			return
		}
		if evicted := c.ring.push(s); evicted > 0 {
			if m := c.metrics; m != nil {
				m.FramesDropped.Add(uint64(evicted))
			}
		}
		select {
		case c.wake <- struct{}{}:
		default:
		}
		return
	}
	if c.err != nil || c.closed {
		if m := c.metrics; m != nil {
			m.FramesDropped.Inc()
		}
		return
	}
	if c.benc != nil {
		// v2 direct mode: pend into the adaptive batch; the size trigger
		// flushes a full batch, the background tick bounds latency.
		c.pending = append(c.pending, s)
		if len(c.pending) >= c.batchTarget {
			c.flushPendingLocked()
			if c.err == nil && c.batchTarget < maxDirectBatch {
				c.batchTarget *= 2 // size-triggered: load supports bigger batches
			}
		}
		return
	}
	c.armWriteDeadline()
	if sp := s.Trace; sp != nil {
		sp.Send = time.Now().UnixNano()
	}
	c.err = c.enc.Encode(s)
	if m := c.metrics; m != nil {
		if c.err != nil {
			m.Errors.Inc()
		} else {
			m.FramesSent.Inc()
		}
	}
}

// flushPendingLocked encodes the pending direct-mode batch as v2 frames
// and writes them to the connection. Callers hold c.mu. On a write error
// the pending records are dropped and counted — the direct-mode contract
// (first transport error latches, every Emit lands in FramesSent or
// FramesDropped) is unchanged from v1.
func (c *Client) flushPendingLocked() {
	if len(c.pending) == 0 || c.err != nil {
		return
	}
	n := len(c.pending)
	var now int64
	for _, s := range c.pending {
		if sp := s.Trace; sp != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sp.Send = now
		}
	}
	c.frame = c.benc.AppendFrames(c.frame[:0], c.pending)
	for i := range c.pending {
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
	c.armWriteDeadline()
	_, err := c.w.Write(c.frame)
	m := c.metrics
	if err != nil {
		c.err = err
		if m != nil {
			m.Errors.Inc()
			m.FramesDropped.Add(uint64(n))
		}
		return
	}
	if m != nil {
		m.FramesSent.Add(uint64(n))
		m.BatchRecords.Observe(float64(n))
		if refs := c.benc.InternedRefs(); refs > c.lastInterned {
			m.InternedHeaders.Add(refs - c.lastInterned)
			c.lastInterned = refs
		}
	}
}

// Flush pushes everything buffered so far onto the wire: the v2 pending
// batch (direct mode) or the encoder's user-space buffer. A delivery
// barrier for callers that need bounded handoff latency — the federation
// forward path uses it before control-plane transitions. In reconnect
// mode delivery is the supervisor's business and Flush is a no-op.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil || c.closed || c.err != nil {
		return c.err
	}
	if c.benc != nil {
		c.flushPendingLocked()
		return c.err
	}
	c.armWriteDeadline()
	c.err = c.enc.Flush()
	if m := c.metrics; m != nil && c.err != nil {
		m.Errors.Inc()
	}
	return c.err
}

// Err returns the latched transport error (direct mode) or the most recent
// transport error observed by the reconnect supervisor, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// setErr records the most recent transport error (reconnect supervisor).
func (c *Client) setErr(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// Spilled returns the number of synopses currently parked in the reconnect
// spill ring (always 0 in direct mode).
func (c *Client) Spilled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		return 0
	}
	return c.ring.len()
}

// Close flushes buffered synopses, stops the background goroutine and
// closes the connection. In reconnect mode it performs one final
// best-effort drain of the spill ring (bounded by the dial and write
// timeouts, never by the backoff schedule); synopses it cannot deliver are
// counted in FramesDropped.
func (c *Client) Close() error {
	if c.ring != nil {
		c.mu.Lock()
		alreadyClosed := c.closed
		c.closed = true
		c.mu.Unlock()
		if !alreadyClosed {
			close(c.stop)
		}
		<-c.done
		// An Emit racing Close may have pushed after the supervisor's
		// final drain; sweep the ring so every synopsis is accounted.
		c.mu.Lock()
		if remaining := c.ring.len(); remaining > 0 {
			c.ring.popBatch(remaining)
			if m := c.metrics; m != nil {
				m.FramesDropped.Add(uint64(remaining))
			}
		}
		c.mu.Unlock()
		return nil
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	var flushErr error
	if c.benc != nil {
		c.flushPendingLocked()
		flushErr = c.err
	} else {
		c.armWriteDeadline()
		flushErr = c.enc.Flush()
	}
	closeErr := c.conn.Close()
	if m := c.metrics; m != nil {
		m.ProtocolVersion.Set(0)
	}
	c.proto = 0
	c.mu.Unlock()

	close(c.stop)
	<-c.done

	if flushErr != nil {
		return fmt.Errorf("stream: close flush: %w", flushErr)
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
	sink     tracker.Sink
	metrics  *metrics.TCPServerMetrics
	sampler  *trace.Sampler
	readIdle time.Duration

	// protoMax caps the protocol the server negotiates
	// (WithServerProtocol); 1 reproduces a pre-v2 server exactly — no
	// hello peek, so a v2 client's hello is rejected as an oversized
	// record and the client downgrades.
	protoMax int
	// pool, when set, recycles decoded synopses: the handler draws each
	// record's synopsis from the pool and the sink (an engine built
	// WithSynopsisRelease) returns it after detection — the zero-alloc
	// receive path.
	pool *synopsis.Pool
	// batchSink is sink's batch extension, when it has one: a whole v2
	// frame is delivered in one call, amortizing sink synchronization.
	batchSink BatchSink

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	connVers  map[net.Conn]int
	closed    bool
	ended     uint64 // connections that have come and gone
	verCounts [synopsis.MaxProtocolVersion + 1]uint64

	wg sync.WaitGroup
}

// BatchSink is the batch extension of tracker.Sink: a sink that also
// implements EmitBatch receives each decoded v2 batch frame as one call —
// the engine maps it to FeedBatch, amortizing per-record queue operations.
// Ownership of the slice and the synopses passes to the sink.
type BatchSink interface {
	EmitBatch(batch []*synopsis.Synopsis)
}

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

// WithServerProtocol caps the wire protocol version the server negotiates
// (default synopsis.MaxProtocolVersion). WithServerProtocol(1) reproduces
// a pre-v2 server byte-for-byte: no hello detection, v2 clients are
// rejected into their v1 fallback.
func WithServerProtocol(v int) ServerOption {
	return func(s *Server) {
		if v >= synopsis.ProtocolV1 && v <= synopsis.MaxProtocolVersion {
			s.protoMax = v
		}
	}
}

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
		ln:       ln,
		sink:     sink,
		conns:    make(map[net.Conn]struct{}),
		connVers: make(map[net.Conn]int),
		protoMax: synopsis.MaxProtocolVersion,
	}
	for _, opt := range opts {
		opt(s)
	}
	if bs, ok := sink.(BatchSink); ok {
		s.batchSink = bs
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
			time.Sleep(retry)
			if retry < time.Second {
				retry *= 2
			}
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
		delete(s.connVers, conn)
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
	br := bufio.NewReaderSize(r, 64<<10)

	ver := synopsis.ProtocolV1
	if s.protoMax >= synopsis.ProtocolV2 {
		if s.readIdle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readIdle))
		}
		maxVer, isHello, err := synopsis.PeekHello(br)
		if err != nil {
			s.classifyReadErr(err)
			return
		}
		if isHello {
			if maxVer > s.protoMax {
				maxVer = s.protoMax
			}
			ver = maxVer
			_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
			var ab [16]byte
			if _, err := conn.Write(synopsis.AppendHelloAck(ab[:0], ver)); err != nil {
				if m != nil {
					m.ConnErrors.Inc()
				}
				return
			}
			// The ack is the server's only write, ever: v2 stays strictly
			// one-way after the handshake, so the client death probe keeps
			// working (any later inbound byte still means "server gone").
		}
		// No hello: a v1 client; the peeked bytes stay buffered for the
		// legacy decoder, and the server never writes — exactly the old
		// wire contract.
	}
	s.mu.Lock()
	s.connVers[conn] = ver
	s.verCounts[ver]++
	s.mu.Unlock()
	if m != nil {
		m.ProtocolConnections.With(strconv.Itoa(ver)).Inc()
	}
	if ver >= synopsis.ProtocolV2 {
		s.serveV2(conn, br)
		return
	}
	s.serveV1(conn, br)
}

// connRefill is the per-connection free-list chunk size: the receive loop
// takes one shared-pool lock per this many records.
const connRefill = 256

// connPool is a per-connection free list layered over the shared synopsis
// pool: get pops locally and refills in connRefill-sized chunks, so shared
// pool synchronization amortizes across the chunk. Not safe for concurrent
// use — each connection handler owns exactly one.
type connPool struct {
	shared *synopsis.Pool
	local  []*synopsis.Synopsis
	next   int
}

func newConnPool(shared *synopsis.Pool) *connPool {
	return &connPool{shared: shared}
}

func (c *connPool) get() *synopsis.Synopsis {
	if c.shared == nil {
		return &synopsis.Synopsis{}
	}
	if c.next == len(c.local) {
		if c.local == nil {
			c.local = make([]*synopsis.Synopsis, connRefill)
		}
		c.shared.GetN(c.local)
		c.next = 0
	}
	s := c.local[c.next]
	c.local[c.next] = nil
	c.next++
	return s
}

// release returns the unconsumed remainder of the current chunk to the
// shared pool when the connection ends.
func (c *connPool) release() {
	if c.shared == nil || c.local == nil {
		return
	}
	c.shared.PutN(c.local[c.next:])
	c.local = nil
}

// serveV1 is the legacy per-record receive loop.
func (s *Server) serveV1(conn net.Conn, br *bufio.Reader) {
	m := s.metrics
	dec := synopsis.NewDecoder(br)
	free := newConnPool(s.pool)
	defer free.release()
	for {
		if s.readIdle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readIdle))
		}
		syn := free.get()
		if err := dec.Decode(syn); err != nil {
			s.classifyReadErr(err)
			return
		}
		if m != nil {
			m.FramesReceived.Inc()
		}
		s.stampRecv(syn)
		if s.sink != nil {
			s.sink.Emit(syn)
		}
	}
}

// serveV2 is the batched receive loop: records decode into pool-drawn
// synopses and whole frames are handed to the sink's batch entry point
// when it has one, so queue synchronization amortizes across the batch.
func (s *Server) serveV2(conn net.Conn, br *bufio.Reader) {
	m := s.metrics
	dec := synopsis.NewBatchDecoder(br)
	if m != nil {
		dec.SetFrameHook(func(records int) {
			m.BatchRecords.Observe(float64(records))
		})
	}
	var batch []*synopsis.Synopsis
	var lastInterned uint64
	free := newConnPool(s.pool)
	defer free.release()
	for {
		// Re-arm the idle deadline only at frame boundaries: mid-frame the
		// bytes are already in flight (usually buffered), and per-record
		// deadline syscalls are a large fraction of the old loop's cost. A
		// peer stalling mid-frame still trips the deadline armed at its
		// frame's start.
		if s.readIdle > 0 && dec.Remaining() == 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readIdle))
		}
		syn := free.get()
		if err := dec.Decode(syn); err != nil {
			s.classifyReadErr(err)
			return
		}
		s.stampRecv(syn)
		if s.sink == nil {
			if m != nil {
				m.FramesReceived.Inc()
			}
			continue
		}
		if s.batchSink == nil {
			if m != nil {
				m.FramesReceived.Inc()
			}
			s.sink.Emit(syn)
			continue
		}
		if batch == nil {
			// The frame's first record: size the batch for the whole frame
			// once instead of growing it record by record.
			batch = make([]*synopsis.Synopsis, 0, dec.Remaining()+1)
		}
		batch = append(batch, syn)
		if dec.Remaining() == 0 {
			// Record counters update once per frame, not per record.
			if m != nil {
				m.FramesReceived.Add(uint64(len(batch)))
			}
			s.batchSink.EmitBatch(batch)
			batch = nil // ownership passed to the sink
			if m != nil {
				if refs := dec.InternedRefs(); refs > lastInterned {
					m.InternedHeaders.Add(refs - lastInterned)
					lastInterned = refs
				}
			}
		}
	}
}

// ConnProtocol is one live connection's negotiated protocol, for /statusz.
type ConnProtocol struct {
	Remote  string `json:"remote"`
	Version int    `json:"version"`
}

// ProtocolStats snapshots the negotiated protocol version of every live
// connection (sorted by remote address) plus cumulative per-version
// connection counts indexed by version (index 0 unused).
func (s *Server) ProtocolStats() ([]ConnProtocol, []uint64) {
	s.mu.Lock()
	out := make([]ConnProtocol, 0, len(s.connVers))
	for conn, ver := range s.connVers {
		out = append(out, ConnProtocol{Remote: conn.RemoteAddr().String(), Version: ver})
	}
	counts := append([]uint64(nil), s.verCounts[:]...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Remote < out[j].Remote })
	return out, counts
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
