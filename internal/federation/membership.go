package federation

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PeerState is a member's failure-detector state.
type PeerState int8

const (
	// StateAlive: heartbeats arriving within SuspectAfter.
	StateAlive PeerState = iota
	// StateSuspect: silent past SuspectAfter but not yet written off; a
	// suspect peer keeps its ring ownership (most silences are transient).
	StateSuspect
	// StateDead: silent past DeadAfter. Dead peers leave the ring; their
	// groups rehash to survivors. They are re-probed with exponential
	// falloff and resurrect if a newer heartbeat ever arrives.
	StateDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int8(s))
	}
}

// PeerInfo is a member's identity and addresses.
type PeerInfo struct {
	// ID names the peer uniquely across the fleet (e.g. "analyzer-1").
	ID string `json:"id"`
	// Addr is the peer's synopsis ingest address (TCP, protocol v2) —
	// where trackers route and peers forward misrouted records.
	Addr string `json:"addr"`
	// HandoffAddr is the peer's checkpoint-handoff address (TCP).
	HandoffAddr string `json:"handoffAddr"`
	// GossipAddr is the peer's gossip address (UDP).
	GossipAddr string `json:"gossipAddr"`
}

// member is one peer's local bookkeeping.
type member struct {
	info      PeerInfo
	heartbeat uint64
	state     PeerState
	lastHeard time.Time
	// probeEvery/nextProbe implement exponential falloff for dead peers:
	// each unanswered probe doubles the interval up to ProbeMax, so a
	// permanently gone peer costs asymptotically nothing while a rebooted
	// one is still rediscovered.
	probeEvery time.Duration
	nextProbe  time.Time
}

// MembershipConfig tunes the failure detector.
type MembershipConfig struct {
	// SuspectAfter is the heartbeat silence that turns alive into suspect
	// (default 2s).
	SuspectAfter time.Duration
	// DeadAfter is the silence that turns suspect into dead (default 6s).
	DeadAfter time.Duration
	// ProbeBase is the first dead-peer probe interval (default 1s); it
	// doubles per silent probe up to ProbeMax (default 30s).
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// VNodes is the per-peer virtual node count for derived rings
	// (default DefaultVirtualNodes).
	VNodes int
	// Now is the clock (default time.Now; injectable for tests).
	Now func() time.Time
}

func (c *MembershipConfig) applyDefaults() {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * time.Second
	}
	if c.ProbeBase <= 0 {
		c.ProbeBase = time.Second
	}
	if c.ProbeMax <= 0 {
		c.ProbeMax = 30 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVirtualNodes
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Membership is one peer's local view of the fleet: who exists, how alive
// they are, and the consistent-hash ring derived from that view. It is the
// shared core under both drive modes — the UDP Gossiper in production, and
// direct Add/Remove/Tick calls in deterministic tests and in-process
// fleets. Ring() is wait-free for the routing hot path; every topology
// change atomically installs a new ring with a bumped epoch and notifies
// subscribers (the rebalance trigger).
type Membership struct {
	mu      sync.Mutex
	cfg     MembershipConfig
	self    PeerInfo
	members map[string]*member // self included
	beat    uint64             // self heartbeat counter
	epoch   uint64
	ring    atomic.Pointer[Ring]
	subs    []func(old, new *Ring)
}

// NewMembership builds a view containing only self (alive).
func NewMembership(self PeerInfo, cfg MembershipConfig) *Membership {
	cfg.applyDefaults()
	m := &Membership{
		cfg:     cfg,
		self:    self,
		members: map[string]*member{self.ID: {info: self, state: StateAlive, lastHeard: cfg.Now()}},
		epoch:   1,
	}
	m.ring.Store(NewRing([]string{self.ID}, cfg.VNodes, 1))
	return m
}

// Self returns this peer's identity.
func (m *Membership) Self() PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

// SetSelfIngestAddr publishes the bound synopsis-ingest address in the
// self entry (a "-listen :0" resolves only after the server binds).
func (m *Membership) SetSelfIngestAddr(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.self.Addr = addr
	if mb := m.members[m.self.ID]; mb != nil {
		mb.info.Addr = addr
	}
}

// SetSelfGossipAddr publishes the bound gossip address in the self entry,
// so the gossiped table tells peers where to reach this member. Called by
// StartGossiper once its socket is bound (":0" resolves late).
func (m *Membership) SetSelfGossipAddr(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.self.GossipAddr = addr
	if mb := m.members[m.self.ID]; mb != nil {
		mb.info.GossipAddr = addr
	}
}

// Ring returns the current ring. Wait-free; safe from any goroutine.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Epoch returns the current topology version.
func (m *Membership) Epoch() uint64 { return m.Ring().Epoch() }

// Info returns a member's identity and whether it is known.
func (m *Membership) Info(id string) (PeerInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	if !ok {
		return PeerInfo{}, false
	}
	return mb.info, true
}

// Subscribe registers fn to run after every ring change, with the old and
// new rings. Callbacks run synchronously on the goroutine that caused the
// change, outside the membership lock — they may call back into the
// membership (and typically trigger rebalance work).
func (m *Membership) Subscribe(fn func(old, new *Ring)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// ringMembersLocked returns the ids that should own key space: alive and
// suspect members (suspicion is usually transient; only death moves keys).
func (m *Membership) ringMembersLocked() []string {
	ids := make([]string, 0, len(m.members))
	for id, mb := range m.members {
		if mb.state != StateDead {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// rebuildLocked installs a new ring if the owning member set changed.
// It returns the (old, new) pair to notify with, or (nil, nil). Callers
// must invoke notify() AFTER releasing m.mu.
func (m *Membership) rebuildLocked() (old, cur *Ring) {
	ids := m.ringMembersLocked()
	old = m.ring.Load()
	if equalStrings(ids, old.Peers()) {
		return nil, nil
	}
	m.epoch++
	cur = NewRing(ids, m.cfg.VNodes, m.epoch)
	m.ring.Store(cur)
	return old, cur
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// notify runs the subscribers for a ring change (nil-safe: no-op when old
// is nil).
func (m *Membership) notify(old, cur *Ring) {
	if old == nil {
		return
	}
	m.mu.Lock()
	subs := make([]func(*Ring, *Ring), len(m.subs))
	copy(subs, m.subs)
	m.mu.Unlock()
	for _, fn := range subs {
		fn(old, cur)
	}
}

// AddPeer introduces (or refreshes) a peer as alive. This is the static
// seeding path (-peers flag, tests); gossip discovery lands in Merge.
func (m *Membership) AddPeer(info PeerInfo) {
	m.mu.Lock()
	now := m.cfg.Now()
	if mb, ok := m.members[info.ID]; ok {
		mb.info = info
		mb.state = StateAlive
		mb.lastHeard = now
	} else {
		m.members[info.ID] = &member{info: info, state: StateAlive, lastHeard: now}
	}
	old, cur := m.rebuildLocked()
	m.mu.Unlock()
	m.notify(old, cur)
}

// RemovePeer forgets a peer entirely (graceful leave). Removing self
// models this peer's own departure: the ring it derives afterwards no
// longer contains it, which is what drives its final handoff.
func (m *Membership) RemovePeer(id string) {
	m.mu.Lock()
	if _, ok := m.members[id]; !ok || id == m.self.ID && len(m.members) == 1 {
		m.mu.Unlock()
		return
	}
	delete(m.members, id)
	old, cur := m.rebuildLocked()
	m.mu.Unlock()
	m.notify(old, cur)
}

// Beat advances and returns the self heartbeat counter.
func (m *Membership) Beat() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beat++
	if mb := m.members[m.self.ID]; mb != nil {
		mb.heartbeat = m.beat
		mb.lastHeard = m.cfg.Now()
	}
	return m.beat
}

// PeerEntry is one row of the gossiped membership table.
type PeerEntry struct {
	Info      PeerInfo  `json:"info"`
	Heartbeat uint64    `json:"heartbeat"`
	State     PeerState `json:"state"`
}

// Table snapshots the membership as gossip entries (every member,
// including self and the dead — death must propagate, or a partitioned
// peer would resurrect ghosts).
func (m *Membership) Table() []PeerEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerEntry, 0, len(m.members))
	for _, id := range sortedMemberIDs(m.members) {
		mb := m.members[id]
		out = append(out, PeerEntry{Info: mb.info, Heartbeat: mb.heartbeat, State: mb.state})
	}
	return out
}

func sortedMemberIDs(members map[string]*member) []string {
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Merge folds a received gossip table into the local view: higher
// heartbeat wins, a newer heartbeat resurrects suspects and the dead, and
// a DEAD claim at the same-or-newer heartbeat is adopted (death
// propagates). Entries about self are ignored — a peer is the sole
// authority on its own liveness.
func (m *Membership) Merge(entries []PeerEntry) {
	m.mu.Lock()
	now := m.cfg.Now()
	for _, e := range entries {
		if e.Info.ID == "" || e.Info.ID == m.self.ID {
			continue
		}
		mb, ok := m.members[e.Info.ID]
		if !ok {
			mb = &member{info: e.Info, heartbeat: e.Heartbeat, state: e.State, lastHeard: now}
			if e.State == StateDead {
				mb.probeEvery = m.cfg.ProbeBase
				mb.nextProbe = now.Add(mb.probeEvery)
			}
			m.members[e.Info.ID] = mb
			continue
		}
		if e.Heartbeat > mb.heartbeat {
			mb.heartbeat = e.Heartbeat
			mb.lastHeard = now
			mb.info = e.Info
			if mb.state != StateAlive && e.State != StateDead {
				mb.state = StateAlive // recovery: fresher heartbeat clears suspicion/death
				mb.probeEvery = 0
			}
		}
		if e.State == StateDead && e.Heartbeat >= mb.heartbeat && mb.state != StateDead {
			mb.state = StateDead
			mb.probeEvery = m.cfg.ProbeBase
			mb.nextProbe = now.Add(mb.probeEvery)
		}
	}
	old, cur := m.rebuildLocked()
	m.mu.Unlock()
	m.notify(old, cur)
}

// Tick applies the timeout state machine: alive → suspect after
// SuspectAfter of silence, suspect → dead after DeadAfter. The gossiper
// calls it once per interval; tests drive it with an injected clock.
func (m *Membership) Tick() {
	m.mu.Lock()
	now := m.cfg.Now()
	for id, mb := range m.members {
		if id == m.self.ID || mb.state == StateDead {
			continue
		}
		silent := now.Sub(mb.lastHeard)
		switch {
		case silent > m.cfg.DeadAfter:
			mb.state = StateDead
			mb.probeEvery = m.cfg.ProbeBase
			mb.nextProbe = now.Add(mb.probeEvery)
		case silent > m.cfg.SuspectAfter:
			if mb.state == StateAlive {
				mb.state = StateSuspect
			}
		}
	}
	old, cur := m.rebuildLocked()
	m.mu.Unlock()
	m.notify(old, cur)
}

// GossipTargets picks the addresses to gossip to this round: every live
// (alive/suspect) peer, plus any dead peer whose exponential-falloff probe
// timer has expired (its interval doubles per silent probe, capped at
// ProbeMax).
func (m *Membership) GossipTargets() []PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	var out []PeerInfo
	for id, mb := range m.members {
		if id == m.self.ID {
			continue
		}
		if mb.state != StateDead {
			out = append(out, mb.info)
			continue
		}
		if !mb.nextProbe.After(now) {
			out = append(out, mb.info)
			mb.probeEvery *= 2
			if mb.probeEvery > m.cfg.ProbeMax {
				mb.probeEvery = m.cfg.ProbeMax
			}
			mb.nextProbe = now.Add(mb.probeEvery)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MemberStatus is one row of the /statusz membership view.
type MemberStatus struct {
	ID           string  `json:"id"`
	Addr         string  `json:"addr,omitempty"`
	GossipAddr   string  `json:"gossipAddr,omitempty"`
	State        string  `json:"state"`
	Heartbeat    uint64  `json:"heartbeat"`
	HeartbeatAge float64 `json:"heartbeatAgeSeconds"`
	Self         bool    `json:"self,omitempty"`
}

// Snapshot returns the membership table for /statusz, sorted by id.
func (m *Membership) Snapshot() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	out := make([]MemberStatus, 0, len(m.members))
	for _, id := range sortedMemberIDs(m.members) {
		mb := m.members[id]
		out = append(out, MemberStatus{
			ID:           id,
			Addr:         mb.info.Addr,
			GossipAddr:   mb.info.GossipAddr,
			State:        mb.state.String(),
			Heartbeat:    mb.heartbeat,
			HeartbeatAge: now.Sub(mb.lastHeard).Seconds(),
			Self:         id == m.self.ID,
		})
	}
	return out
}

// AliveCount returns how many members are not dead (self included).
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, mb := range m.members {
		if mb.state != StateDead {
			n++
		}
	}
	return n
}
