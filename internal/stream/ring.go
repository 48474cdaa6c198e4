package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// Router decides which analyzer peer owns a synopsis' (host, stage) group.
// The federation layer implements it over its membership view; a static
// implementation suffices for trackers that are configured with a fixed
// peer list (stale routes are healed by receiver-side peer forwarding).
//
// The interface lives here, not in internal/federation, so the stream
// package never imports the federation package (federation builds on
// stream for its forwarding links).
type Router interface {
	// Route returns the ingest address of the peer that owns the group. An
	// empty address means no owner is reachable (the caller drops and
	// counts).
	Route(host uint16, stage logpoint.StageID) string
}

// RingClient is the federation fan-out: one lazily-dialed Client per peer
// address. A tracker uses it as a tracker.Sink that routes every synopsis
// to the analyzer peer owning its (host, stage) group; an analyzer peer
// forwards through one with Send, having resolved the owner itself. It
// sends records as they are: a receiving peer whose topology disagrees
// routes by its own ring and forwards peer-to-peer instead of mis-binning.
type RingClient struct {
	router     Router
	flushEvery time.Duration
	opts       []ClientOption

	mu      sync.Mutex
	clients map[string]*Client
	closed  bool

	dropped atomic.Uint64
}

// NewRingClient builds a routing client. flushEvery and opts are applied
// to every per-peer link it dials. router may be nil for a caller that
// only uses Send.
func NewRingClient(router Router, flushEvery time.Duration, opts ...ClientOption) *RingClient {
	return &RingClient{
		router:     router,
		flushEvery: flushEvery,
		opts:       opts,
		clients:    make(map[string]*Client),
	}
}

// Emit routes one synopsis to its owning peer. Records with no reachable
// owner, or that Send could not hand to a link, are dropped and counted,
// never blocked on.
func (rc *RingClient) Emit(s *synopsis.Synopsis) {
	addr := rc.router.Route(s.Host, s.Stage)
	if addr == "" || !rc.Send(addr, s) {
		rc.dropped.Add(1)
	}
}

// Send hands s to the link for addr, dialing when there is none, and
// reports whether the link took it. It did not when the dial failed, the
// ring client is closed, or the link can take nothing any more (without
// WithReconnect a link latches its first failed write): that link is closed
// and evicted, so the next record redials and a peer that restarted on the
// same address is found again.
func (rc *RingClient) Send(addr string, s *synopsis.Synopsis) bool {
	c := rc.client(addr)
	if c == nil {
		return false
	}
	if c.offer(s) {
		return true
	}
	rc.mu.Lock()
	if rc.clients[addr] == c {
		delete(rc.clients, addr)
	}
	rc.mu.Unlock()
	_ = c.Close()
	return false
}

// client returns the link to addr, dialing when there is none; nil if the
// dial failed or the ring client is closed. The dial runs outside rc.mu, so
// one unreachable peer never stalls emits to the others.
func (rc *RingClient) client(addr string) *Client {
	rc.mu.Lock()
	c, closed := rc.clients[addr], rc.closed
	rc.mu.Unlock()
	if c != nil || closed {
		return c
	}
	nc, err := Dial(addr, rc.flushEvery, rc.opts...)
	if err != nil {
		return nil
	}
	rc.mu.Lock()
	keep := rc.clients[addr] // a raced dial's link wins; nil after Close
	if keep == nil && !rc.closed {
		keep = nc
		rc.clients[addr] = nc
	}
	rc.mu.Unlock()
	if keep != nc {
		_ = nc.Close()
	}
	return keep
}

// Dropped reports how many synopses Emit could not deliver: no routable
// owner, or a link that did not take them.
func (rc *RingClient) Dropped() uint64 { return rc.dropped.Load() }

// Flush writes every link's pending batch, so everything taken so far has
// been written (test/shutdown barrier; Close also flushes) — on every link
// that is up: a WithReconnect link that is down keeps what it took in its
// spill ring. A link's write error is its own to latch or heal: a latched
// link is evicted by the next Send.
func (rc *RingClient) Flush() {
	rc.mu.Lock()
	clients := make([]*Client, 0, len(rc.clients))
	for _, c := range rc.clients {
		clients = append(clients, c)
	}
	rc.mu.Unlock()
	for _, c := range clients {
		_ = c.Flush()
	}
}

// Close flushes and closes every peer link; the first error wins.
func (rc *RingClient) Close() error {
	rc.mu.Lock()
	clients := rc.clients
	rc.clients = make(map[string]*Client)
	rc.closed = true
	rc.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
