package federation

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/stream"
	"saad/internal/synopsis"
)

// Peer is one analyzer fleet member: it fronts a local analyzer.Engine
// with ring-ownership routing. Records for groups this peer owns feed the
// engine; records the ring assigns elsewhere — trackers with stale routes,
// records in flight across a topology change — are forwarded peer-to-peer
// over the ordinary synopsis wire protocol rather than dropped. On every
// ring change the peer exports the open-window state of groups it no
// longer owns and hands it to the new owners over the checkpoint-handoff
// channel, so per-group detection state survives rebalancing.
//
// Peer implements tracker.Sink and stream.BatchSink: plug it in as the
// stream.Server sink where a standalone engine would go.
type Peer struct {
	cfg    PeerConfig
	selfID string
	ms     *Membership
	eng    *analyzer.Engine
	m      *metrics.FederationMetrics
	logf   func(string, ...any)

	handoffLn   listener
	handoffDone chan struct{}

	// fwd holds the forward links, one per owner ingest address.
	fwd *stream.RingClient

	// parkMu guards the rebalance parking buffer. While a rebalance is in
	// flight (parkDepth > 0) arriving frames are parked whole and routed
	// once the handoffs complete, preserving per-group FIFO order across
	// the ownership transfer.
	parkMu    sync.Mutex
	parkDepth int
	parkedBuf []*synopsis.Synopsis

	// rbMu serializes rebalances: ring changes can arrive from gossip and
	// direct membership calls concurrently.
	rbMu sync.Mutex

	// statusz counters (mirrored into metrics; kept locally so Status()
	// works without a registry scrape).
	forwards    atomic.Uint64
	fwdDropped  atomic.Uint64
	parked      atomic.Uint64
	handoffsOut atomic.Uint64
	handoffsIn  atomic.Uint64
	groupsOut   atomic.Uint64
	groupsIn    atomic.Uint64
	conflicts   atomic.Uint64
}

// PeerConfig configures a fleet member.
type PeerConfig struct {
	// Self is this peer's identity. ID is required; HandoffAddr is the
	// bind address for the handoff listener (default "127.0.0.1:0", with
	// the resolved address published to the fleet via gossip).
	Self PeerInfo
	// Engine is the local analyzer engine (required). The peer does not
	// close it; ownership stays with the caller.
	Engine *analyzer.Engine
	// Membership tunes the failure detector.
	Membership MembershipConfig
	// Metrics receives federation counters (optional; a private registry
	// is used when nil so the instrumentation paths stay live).
	Metrics *metrics.FederationMetrics
	// FlushEvery is the forward-link flush cadence (default 2ms — forwards
	// are a correction path, latency matters more than batching).
	FlushEvery time.Duration
	// Release recycles a synopsis this peer does not feed to its own
	// engine (pool hook). When set, forwarded records are cloned before
	// the link retains them and the original is released immediately.
	Release func(*synopsis.Synopsis)
	// Logf logs control-plane events (optional).
	Logf func(string, ...any)
}

// NewPeer binds the handoff listener, publishes the resolved address in
// Self, and starts serving handoffs. The fleet is joined separately:
// statically via AddPeer on Membership(), or live via StartGossiper.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Self.ID == "" {
		return nil, fmt.Errorf("federation: peer needs a Self.ID")
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("federation: peer needs an Engine")
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 2 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewFederationMetrics(metrics.NewRegistry())
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := listenHandoff(cfg.Self.HandoffAddr)
	if err != nil {
		return nil, err
	}
	cfg.Self.HandoffAddr = ln.Addr().String()
	p := &Peer{
		cfg:         cfg,
		eng:         cfg.Engine,
		m:           cfg.Metrics,
		logf:        cfg.Logf,
		handoffLn:   ln,
		handoffDone: make(chan struct{}),
		fwd:         stream.NewRingClient(nil, cfg.FlushEvery),
	}
	p.selfID = cfg.Self.ID
	p.ms = NewMembership(cfg.Self, cfg.Membership)
	p.ms.Subscribe(p.onRingChange)
	p.m.PeersAlive.Set(1)
	p.m.RingEpoch.Set(float64(p.ms.Epoch()))
	go p.acceptHandoffs()
	return p, nil
}

// Membership exposes the peer's fleet view (join it to the fleet with
// AddPeer, drive it with a Gossiper, inspect it for /statusz).
func (p *Peer) Membership() *Membership { return p.ms }

// Self returns this peer's identity with resolved addresses.
func (p *Peer) Self() PeerInfo { return p.ms.Self() }

// Emit implements tracker.Sink: the one-record case of EmitBatch.
func (p *Peer) Emit(s *synopsis.Synopsis) {
	one := [1]*synopsis.Synopsis{s}
	p.EmitBatch(one[:])
}

// EmitBatch implements stream.BatchSink. A frame is handled as a frame: one
// park decision — while a rebalance is moving state the whole frame waits in
// the parking buffer, behind what is already there — and otherwise one
// routing pass. The records pass to the peer; the borrowed slice may be
// reordered (route) and is not kept.
func (p *Peer) EmitBatch(batch []*synopsis.Synopsis) {
	p.parkMu.Lock()
	parking := p.parkDepth > 0
	if parking {
		p.parkedBuf = append(p.parkedBuf, batch...)
	}
	p.parkMu.Unlock()
	if parking {
		p.parked.Add(uint64(len(batch)))
		p.m.ForwardsParked.Add(uint64(len(batch)))
		return
	}
	p.route(batch)
}

// route splits batch by ownership under ONE ring snapshot: records of groups
// this peer owns are packed, in frame order, into a prefix of the slice and
// reach the engine in one FeedBatch; the others are forwarded to their
// owners as they are met, also in frame order. A group has one owner per
// ring, so per-group FIFO order holds on both sides. A frame that is all
// local — every frame, while trackers route by the ring the fleet agrees on
// — is handed over exactly as it came: nothing moved, nothing written.
func (p *Peer) route(batch []*synopsis.Synopsis) {
	ring := p.ms.Ring()
	local := 0
	for i, s := range batch {
		owner := ring.OwnerOfHash(KeyHash(s.Host, s.Stage))
		if owner != p.selfID {
			p.forward(s, owner)
			continue
		}
		if local != i {
			batch[local] = s
		}
		local++
	}
	switch local {
	case 0:
	case 1:
		// A lone record needs no feed buffer behind it while it is queued.
		p.eng.Emit(batch[0])
	default:
		p.eng.FeedBatch(batch[:local])
	}
}

// forward pushes a misrouted record to its owner; one the owner's link does
// not take (no known address, failed dial, latched error) is dropped and
// counted. With a Release hook in play the record is cloned first: the
// outbound link retains pointers until its next flush, while the original
// goes straight back to the receive pool.
func (p *Peer) forward(s *synopsis.Synopsis, owner string) {
	rec := s
	if p.cfg.Release != nil {
		rec = s.Clone()
		p.cfg.Release(s)
	}
	info, _ := p.ms.Info(owner) // an unknown owner has no address
	if info.Addr == "" || !p.fwd.Send(info.Addr, rec) {
		p.fwdDropped.Add(1)
		return
	}
	p.forwards.Add(1)
	p.m.Forwards.Inc()
}

// onRingChange is the membership subscriber: park arrivals, move the
// open-window state of groups the new ring assigns elsewhere, then drain
// the parked records through the fresh topology.
func (p *Peer) onRingChange(_, _ *Ring) {
	p.rbMu.Lock()
	defer p.rbMu.Unlock()
	p.parkMu.Lock()
	p.parkDepth++
	p.parkMu.Unlock()
	defer p.drainParked()

	cur := p.ms.Ring() // reload under rbMu: coalesce back-to-back changes
	p.m.PeersAlive.Set(float64(p.ms.AliveCount()))
	p.m.RingEpoch.Set(float64(cur.Epoch()))
	p.rebalance(cur)
}

// rebalance exports every open group whose owner under cur is not self and
// hands each batch to its new owner.
func (p *Peer) rebalance(cur *Ring) {
	self := p.selfID
	byOwner := make(map[string][]analyzer.GroupKey)
	for _, g := range p.eng.OpenGroups() {
		if o := cur.Owner(g.Host, g.Stage); o != self {
			byOwner[o] = append(byOwner[o], g)
		}
	}
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		moving := make(map[analyzer.GroupKey]bool, len(byOwner[owner]))
		for _, g := range byOwner[owner] {
			moving[g] = true
		}
		blob, n, err := p.eng.ExportGroups(func(h uint16, st logpoint.StageID) bool {
			return moving[analyzer.GroupKey{Host: h, Stage: st}]
		})
		if err != nil {
			p.logf("federation: export %d groups for %s: %v", len(moving), owner, err)
			continue
		}
		if n == 0 {
			continue
		}
		if err := p.sendHandoff(owner, blob); err != nil {
			p.logf("federation: handoff %d groups to %s failed, re-adopting: %v", n, owner, err)
			// The new owner is unreachable (likely mid-death churn). Adopt
			// the state back rather than lose it; the next ring change —
			// or the group's own window close — resolves it.
			if _, _, ierr := p.eng.ImportGroups(blob); ierr != nil {
				p.logf("federation: re-adopt after failed handoff: %v", ierr)
			}
			continue
		}
		p.handoffsOut.Add(1)
		p.groupsOut.Add(uint64(n))
		p.m.Handoffs.With("export").Inc()
		p.m.HandoffGroups.With("export").Add(uint64(n))
		p.logf("federation: handed %d groups to %s (epoch %d)", n, owner, cur.Epoch())
	}
}

// drainParked routes everything parked during the rebalance, as one batch in
// arrival order, through the post-rebalance topology.
func (p *Peer) drainParked() {
	p.parkMu.Lock()
	p.parkDepth--
	var batch []*synopsis.Synopsis
	if p.parkDepth == 0 {
		batch, p.parkedBuf = p.parkedBuf, nil
	}
	p.parkMu.Unlock()
	p.route(batch)
}

// Leave gracefully exits the fleet: this peer's own view drops self, the
// derived ring assigns every group elsewhere, and the subscribed rebalance
// hands all open-window state to the survivors. Close still must be called
// to release sockets. No-op for a sole fleet member (nowhere to hand off).
func (p *Peer) Leave() {
	p.ms.RemovePeer(p.selfID)
}

// Flush drains the forward links so everything emitted so far is on the
// wire (test/shutdown barrier; Close also flushes).
func (p *Peer) Flush() { p.fwd.Flush() }

// Close flushes and closes the forward links and stops the handoff
// listener. The engine stays open — its anomalies are the caller's to
// collect.
func (p *Peer) Close() error {
	first := p.fwd.Close()
	if err := p.handoffLn.Close(); err != nil && first == nil {
		first = err
	}
	<-p.handoffDone
	return first
}

// Status is the /statusz federation view.
type Status struct {
	Self        string         `json:"self"`
	RingEpoch   uint64         `json:"ringEpoch"`
	RingPeers   []string       `json:"ringPeers"`
	Members     []MemberStatus `json:"members"`
	OwnedRanges []string       `json:"ownedRanges"`

	Forwards         uint64 `json:"forwards"`
	ForwardsDropped  uint64 `json:"forwardsDropped"`
	Parked           uint64 `json:"parked"`
	HandoffsOut      uint64 `json:"handoffsOut"`
	HandoffsIn       uint64 `json:"handoffsIn"`
	GroupsOut        uint64 `json:"groupsOut"`
	GroupsIn         uint64 `json:"groupsIn"`
	HandoffConflicts uint64 `json:"handoffConflicts"`
}

// Status snapshots the peer for /statusz: membership table, ring epoch,
// this peer's owned hash arcs, and the handoff/forward counters.
func (p *Peer) Status() Status {
	ring := p.ms.Ring()
	ranges := ring.OwnedRanges(p.selfID)
	hexRanges := make([]string, len(ranges))
	for i, r := range ranges {
		hexRanges[i] = fmt.Sprintf("(%016x, %016x]", r[0], r[1])
	}
	return Status{
		Self:             p.selfID,
		RingEpoch:        ring.Epoch(),
		RingPeers:        ring.Peers(),
		Members:          p.ms.Snapshot(),
		OwnedRanges:      hexRanges,
		Forwards:         p.forwards.Load(),
		ForwardsDropped:  p.fwdDropped.Load(),
		Parked:           p.parked.Load(),
		HandoffsOut:      p.handoffsOut.Load(),
		HandoffsIn:       p.handoffsIn.Load(),
		GroupsOut:        p.groupsOut.Load(),
		GroupsIn:         p.groupsIn.Load(),
		HandoffConflicts: p.conflicts.Load(),
	}
}
