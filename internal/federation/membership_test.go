package federation

import (
	"reflect"
	"testing"
	"time"
)

func info(id string) PeerInfo {
	return PeerInfo{ID: id, Addr: id + ":ingest", HandoffAddr: id + ":handoff", GossipAddr: id + ":gossip"}
}

// TestMembershipFailureDetector drives the alive → suspect → dead state
// machine with an injected clock and checks each transition's effect on
// the ring.
func TestMembershipFailureDetector(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := MembershipConfig{
		SuspectAfter: 2 * time.Second,
		DeadAfter:    6 * time.Second,
		ProbeBase:    time.Second,
		ProbeMax:     4 * time.Second,
		Now:          func() time.Time { return now },
	}
	m := NewMembership(info("a"), cfg)
	var changes int
	m.Subscribe(func(old, cur *Ring) { changes++ })

	m.AddPeer(info("b"))
	if got := m.Ring().Peers(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("ring peers after join: %v", got)
	}
	if m.Epoch() != 2 || changes != 1 {
		t.Fatalf("epoch=%d changes=%d after join, want 2/1", m.Epoch(), changes)
	}

	// Silence for 3s: suspect, but suspicion does not move keys.
	now = now.Add(3 * time.Second)
	m.Tick()
	if st := stateOf(t, m, "b"); st != "suspect" {
		t.Fatalf("b state %s, want suspect", st)
	}
	if m.Epoch() != 2 || changes != 1 {
		t.Fatalf("suspect must not change the ring: epoch=%d changes=%d", m.Epoch(), changes)
	}

	// Silence past DeadAfter: dead, keys rehash to the survivor.
	now = now.Add(4 * time.Second)
	m.Tick()
	if st := stateOf(t, m, "b"); st != "dead" {
		t.Fatalf("b state %s, want dead", st)
	}
	if got := m.Ring().Peers(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("ring peers after death: %v", got)
	}
	if m.Epoch() != 3 || changes != 2 {
		t.Fatalf("epoch=%d changes=%d after death, want 3/2", m.Epoch(), changes)
	}

	// A fresher heartbeat resurrects the dead.
	m.Merge([]PeerEntry{{Info: info("b"), Heartbeat: 7, State: StateAlive}})
	if st := stateOf(t, m, "b"); st != "alive" {
		t.Fatalf("b state %s after resurrection, want alive", st)
	}
	if m.Epoch() != 4 {
		t.Fatalf("epoch=%d after resurrection, want 4", m.Epoch())
	}

	// A dead claim at the same heartbeat is adopted: death propagates.
	m.Merge([]PeerEntry{{Info: info("b"), Heartbeat: 7, State: StateDead}})
	if st := stateOf(t, m, "b"); st != "dead" {
		t.Fatalf("b state %s after dead claim, want dead", st)
	}

	// A stale dead claim (older heartbeat) must NOT kill a live peer.
	m.Merge([]PeerEntry{{Info: info("b"), Heartbeat: 9, State: StateAlive}})
	m.Merge([]PeerEntry{{Info: info("b"), Heartbeat: 8, State: StateDead}})
	if st := stateOf(t, m, "b"); st != "alive" {
		t.Fatalf("b state %s after stale dead claim, want alive", st)
	}

	// Entries about self are ignored: a peer is the authority on itself.
	m.Merge([]PeerEntry{{Info: info("a"), Heartbeat: 99, State: StateDead}})
	if st := stateOf(t, m, "a"); st != "alive" {
		t.Fatalf("self state %s after hostile merge, want alive", st)
	}
}

// TestMembershipProbeFalloff checks the dead-peer probe interval doubles
// per silent probe up to ProbeMax.
func TestMembershipProbeFalloff(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := MembershipConfig{
		ProbeBase: time.Second,
		ProbeMax:  4 * time.Second,
		Now:       func() time.Time { return now },
	}
	m := NewMembership(info("a"), cfg)
	m.AddPeer(info("b"))
	now = now.Add(7 * time.Second) // silence past the default DeadAfter
	m.Tick()
	if st := stateOf(t, m, "b"); st != "dead" {
		t.Fatalf("b state %s, want dead", st)
	}

	probes := 0
	// Scan 60s in 1s steps: probes should land at +1s, then +2s, +4s, +4s…
	var gaps []time.Duration
	last := now
	for i := 0; i < 60; i++ {
		now = now.Add(time.Second)
		for _, tgt := range m.GossipTargets() {
			if tgt.ID == "b" {
				probes++
				gaps = append(gaps, now.Sub(last))
				last = now
			}
		}
	}
	if probes < 3 {
		t.Fatalf("only %d probes in 60s", probes)
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatalf("probe gaps must not shrink: %v", gaps)
		}
		if gaps[i] > cfg.ProbeMax+time.Second {
			t.Fatalf("probe gap %v exceeds ProbeMax: %v", gaps[i], gaps)
		}
	}
}

func stateOf(t *testing.T, m *Membership, id string) string {
	t.Helper()
	for _, row := range m.Snapshot() {
		if row.ID == id {
			return row.State
		}
	}
	t.Fatalf("member %s not in snapshot", id)
	return ""
}

// TestGossipConvergence runs three real UDP gossipers seeded as a star
// (b and c each know only a) and waits for full-mesh discovery; then one
// gossiper stops and the survivors must mark it dead and shrink the ring.
func TestGossipConvergence(t *testing.T) {
	cfg := MembershipConfig{
		SuspectAfter: 200 * time.Millisecond,
		DeadAfter:    600 * time.Millisecond,
		ProbeBase:    200 * time.Millisecond,
	}
	const interval = 20 * time.Millisecond
	mk := func(id string) (*Membership, *Gossiper) {
		m := NewMembership(PeerInfo{ID: id}, cfg)
		g, err := StartGossiper(m, "127.0.0.1:0", interval)
		if err != nil {
			t.Fatal(err)
		}
		return m, g
	}
	ma, ga := mk("a")
	mb, gb := mk("b")
	mc, gc := mk("c")
	defer ga.Close()
	defer gb.Close()
	defer gc.Close()

	mb.AddPeer(ma.Self())
	mc.AddPeer(ma.Self())

	waitRing := func(m *Membership, want []string, what string) {
		t.Helper()
		waitUntil(t, 5*time.Second, what, func() bool { return reflect.DeepEqual(m.Ring().Peers(), want) })
	}
	all := []string{"a", "b", "c"}
	waitRing(ma, all, "a discovers fleet")
	waitRing(mb, all, "b discovers fleet")
	waitRing(mc, all, "c discovers fleet")

	// Kill c's gossiper: its silence must turn it dead on a and b.
	gc.Close()
	waitRing(ma, []string{"a", "b"}, "a drops c")
	waitRing(mb, []string{"a", "b"}, "b drops c")
	for _, m := range []*Membership{ma, mb} {
		if st := stateOf(t, m, "c"); st != "dead" {
			t.Fatalf("c state %s on %s, want dead", st, m.Self().ID)
		}
	}
}

// TestRouteReturnsOwnerAddress pins the Route contract: the ring owner's
// ingest address, the same from the live and the static router.
func TestRouteReturnsOwnerAddress(t *testing.T) {
	m := NewMembership(info("a"), MembershipConfig{})
	m.AddPeer(info("b"))
	addr := m.Route(7, 1)
	owner := m.Ring().Owner(7, 1)
	if want := owner + ":ingest"; addr != want {
		t.Fatalf("route addr %q, want %q", addr, want)
	}

	sr := NewStaticRouter([]PeerInfo{info("a"), info("b")}, 0)
	if saddr := sr.Route(7, 1); saddr != addr {
		t.Fatalf("static router disagrees with membership router: %q vs %q", saddr, addr)
	}
}
