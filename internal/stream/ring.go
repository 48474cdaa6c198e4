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
	// Route returns the ingest address of the peer that owns the group and
	// the ring epoch the decision was made under. An empty address means no
	// owner is reachable (the caller drops and counts).
	Route(host uint16, stage logpoint.StageID) (addr string, epoch uint64)
}

// RingClient is the tracker-side federation fan-out: a tracker.Sink that
// routes every synopsis to the analyzer peer owning its (host, stage)
// group, maintaining one lazily-dialed Client per peer address. Each
// outgoing record is stamped with the routing ring epoch so a receiving
// peer whose topology disagrees can detect staleness and forward
// peer-to-peer instead of mis-binning.
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
// to every per-peer link it dials.
func NewRingClient(router Router, flushEvery time.Duration, opts ...ClientOption) *RingClient {
	return &RingClient{
		router:     router,
		flushEvery: flushEvery,
		opts:       opts,
		clients:    make(map[string]*Client),
	}
}

// Emit routes one synopsis to its owning peer. Records with no reachable
// owner are dropped and counted, never blocked on. So is a record that
// meets a link which can take nothing any more (a direct-mode link latches
// its first transport error): that link is closed and evicted, so the next
// record redials and a peer that restarted on the same address is found
// again.
func (rc *RingClient) Emit(s *synopsis.Synopsis) {
	addr, epoch := rc.router.Route(s.Host, s.Stage)
	if addr == "" {
		rc.dropped.Add(1)
		return
	}
	c := rc.client(addr)
	if c == nil {
		rc.dropped.Add(1)
		return
	}
	s.RingEpoch = epoch
	if !c.offer(s) {
		rc.dropped.Add(1)
		rc.mu.Lock()
		if rc.clients[addr] == c {
			delete(rc.clients, addr)
		}
		rc.mu.Unlock()
		_ = c.Close()
	}
}

// EmitBatch routes each record of a batch individually — a batch from one
// tracker spans whatever groups its host produced, which the ring may
// scatter across peers.
func (rc *RingClient) EmitBatch(batch []*synopsis.Synopsis) {
	for _, s := range batch {
		rc.Emit(s)
	}
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

// Dropped reports how many synopses had no routable owner or met a dead
// link.
func (rc *RingClient) Dropped() uint64 { return rc.dropped.Load() }

// Links reports how many peer links are currently open.
func (rc *RingClient) Links() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.clients)
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
