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
)

// DefaultDialTimeout bounds connection establishment; a monitoring client
// must never hang indefinitely on an unreachable analyzer.
const DefaultDialTimeout = 10 * time.Second

// DefaultWriteTimeout bounds how long a single encode/flush may block on a
// wedged connection before it is treated as a transport error.
const DefaultWriteTimeout = 10 * time.Second

// Direct-mode adaptive batching bounds: the pending batch is flushed when it
// reaches the current target (size trigger) or on the background flush tick
// (latency trigger); the target doubles on size triggers and halves when a
// tick finds the batch underfilled, so batch size tracks offered load.
const (
	minDirectBatch     = 8
	initialDirectBatch = 16
	maxDirectBatch     = 2048
)

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
// (DESIGN §15). It implements tracker.Sink. Emit never blocks on the
// network beyond the kernel send buffer, because a monitoring layer must
// not take the server down with it.
//
// Without WithReconnect the client latches the first transport error and
// drops (and counts) every subsequent emit. With WithReconnect the client
// is self-healing: emits are parked in a bounded spill ring, a supervisor
// goroutine redials with capped exponential backoff + jitter, and spilled
// synopses are replayed after reconnecting; when the ring overflows the
// oldest synopsis is dropped and counted.
type Client struct {
	addr         string
	dialTimeout  time.Duration
	writeTimeout time.Duration
	metrics      *metrics.TCPClientMetrics

	mu     sync.Mutex
	err    error
	closed bool

	// Direct mode: records pend in a batch and are flushed onto link by
	// size trigger, the background flush tick, or Close. The reconnect
	// supervisor owns its own link.
	link        *link
	pending     []*synopsis.Synopsis
	batchTarget int

	// Reconnect mode state (nil ring = direct mode).
	reconnect     ReconnectConfig
	ring          *spillRing
	wake          chan struct{}
	everConnected bool // supervisor goroutine only

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
// edited (ROADMAP item 2).
func WithProtocol(int) ClientOption { return func(*Client) {} }

// WithReconnect makes the client self-healing (see Client). The zero
// ReconnectConfig selects the documented defaults. With reconnect enabled,
// Dial returns immediately without a synchronous connection attempt: the
// supervisor establishes (and re-establishes) the connection in the
// background, so the client is usable even while the analyzer is down.
func WithReconnect(cfg ReconnectConfig) ClientOption {
	return func(c *Client) { c.reconnect = cfg.withDefaults() }
}

// Dial connects to a synopsis server at addr. flushEvery bounds how long a
// synopsis may sit in the pending batch (0 disables the background
// flusher; Close still flushes). In reconnect mode delivery is batched and
// flushed per batch, and flushEvery is ignored.
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
		c.wake = make(chan struct{}, 1)
		go c.runReconnect()
		return c, nil
	}
	l, err := c.open()
	if err != nil {
		return nil, err
	}
	c.link = l
	if flushEvery > 0 {
		go c.flushLoop(flushEvery)
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

// shut closes l's connection and zeroes the protocol gauge.
func (c *Client) shut(l *link) error {
	if m := c.metrics; m != nil {
		m.ProtocolVersion.Set(0)
	}
	return l.conn.Close()
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

func (c *Client) flushLoop(every time.Duration) {
	defer close(c.done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.mu.Lock()
			if c.err == nil && !c.closed {
				// Latency trigger: ship whatever pended since the last
				// tick, and shrink the size target when load is light.
				underfilled := len(c.pending) < c.batchTarget/4
				c.flushPendingLocked()
				if underfilled && c.batchTarget > minDirectBatch {
					c.batchTarget /= 2
				}
			}
			c.mu.Unlock()
		case <-c.stop:
			return
		}
	}
}

// Emit implements tracker.Sink. It never blocks beyond the configured write
// timeout; synopses that cannot be delivered (or buffered for delivery) are
// dropped and counted in FramesDropped.
func (c *Client) Emit(s *synopsis.Synopsis) {
	if !c.offer(s) {
		if m := c.metrics; m != nil {
			m.FramesDropped.Inc()
		}
	}
}

// offer takes s for delivery. It returns false, leaving s unaccounted, when
// the client can take nothing any more: it is closed, or it is a
// direct-mode client with a latched error (in reconnect mode an error is
// one failed attempt and the ring keeps accepting).
func (c *Client) offer(s *synopsis.Synopsis) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || (c.ring == nil && c.err != nil) {
		return false
	}
	if c.ring != nil {
		if evicted := c.ring.push(s); evicted > 0 {
			if m := c.metrics; m != nil {
				m.FramesDropped.Add(uint64(evicted))
			}
		}
		select {
		case c.wake <- struct{}{}:
		default:
		}
		return true
	}
	// Direct mode: pend into the adaptive batch; the size trigger flushes
	// a full batch, the background tick bounds latency.
	c.pending = append(c.pending, s)
	if len(c.pending) >= c.batchTarget {
		c.flushPendingLocked()
		if c.err == nil && c.batchTarget < maxDirectBatch {
			c.batchTarget *= 2 // size-triggered: load supports bigger batches
		}
	}
	return true
}

// flushPendingLocked writes the pending direct-mode batch to the link.
// Callers hold c.mu. A write error latches and the batch is dropped and
// counted: the direct-mode contract is that every Emit lands in FramesSent
// or FramesDropped.
func (c *Client) flushPendingLocked() {
	if len(c.pending) == 0 || c.err != nil {
		return
	}
	n := len(c.pending)
	c.err = c.write(c.link, c.pending)
	clear(c.pending)
	c.pending = c.pending[:0]
	if m := c.metrics; m != nil && c.err != nil {
		m.FramesDropped.Add(uint64(n))
	}
}

// Flush pushes the pending direct-mode batch onto the wire. A delivery
// barrier for callers that need bounded handoff latency — the federation
// forward path uses it before control-plane transitions. In reconnect
// mode delivery is the supervisor's business and Flush is a no-op.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil && !c.closed {
		c.flushPendingLocked()
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
	c.flushPendingLocked()
	flushErr := c.err
	closeErr := c.shut(c.link)
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

	// pool, when set, recycles decoded synopses: the handler draws each
	// record's synopsis from the pool and the sink (an engine built
	// WithSynopsisRelease) returns it after detection — the zero-alloc
	// receive path.
	pool *synopsis.Pool
	// batchSink is sink's batch extension, when it has one: a whole
	// frame is delivered in one call, amortizing sink synchronization.
	batchSink BatchSink

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	ended  uint64 // connections that have come and gone

	wg sync.WaitGroup
}

// BatchSink is the batch extension of tracker.Sink: a sink that also
// implements EmitBatch receives each decoded v2 batch frame as one call —
// the engine maps it to FeedBatch, amortizing per-record queue operations.
// Ownership of the synopses passes to the sink; the slice is only lent. The
// sink may overwrite its elements during the call (synopsis.Pool.PutN clears
// them) and must not keep the slice once EmitBatch returns: the connection
// refills it with the next frame.
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
		ln:    ln,
		sink:  sink,
		conns: make(map[net.Conn]struct{}),
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

// receive is the per-connection receive loop: records decode into
// pool-drawn synopses and whole frames are handed to the sink's batch entry
// point when it has one, so queue synchronization amortizes across the
// batch. The batch slice is the connection's own, lent to the sink one frame
// at a time (see BatchSink), so a frame costs no allocation here.
func (s *Server) receive(conn net.Conn, br *bufio.Reader) {
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
			// The connection is over, possibly mid-frame: the record in hand
			// and those already decoded for the frame are still the
			// server's, and go back ahead of the unconsumed refill chunk.
			s.pool.Put(syn)
			s.pool.PutN(batch)
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
		if frame := dec.Remaining() + 1; len(batch) == 0 && cap(batch) < frame {
			// The first record of a frame larger than any before it: size
			// the slice for the whole frame (the decoder admits at most
			// synopsis.MaxBatchRecords) instead of growing it by append.
			batch = make([]*synopsis.Synopsis, 0, frame)
		}
		batch = append(batch, syn)
		if dec.Remaining() == 0 {
			// Record counters update once per frame, not per record.
			if m != nil {
				m.FramesReceived.Add(uint64(len(batch)))
			}
			s.batchSink.EmitBatch(batch)
			clear(batch) // the records are the sink's now
			batch = batch[:0]
			if m != nil {
				if refs := dec.InternedRefs(); refs > lastInterned {
					m.InternedHeaders.Add(refs - lastInterned)
					lastInterned = refs
				}
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
