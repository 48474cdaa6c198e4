package federation

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/analyzer/analyzertest"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// fleetPeer is one in-process fleet member: engine + federation peer +
// TCP ingest server.
type fleetPeer struct {
	eng  *analyzer.Engine
	peer *Peer
	srv  *stream.Server
}

func (fp *fleetPeer) kill(t *testing.T) {
	t.Helper()
	if err := fp.srv.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	if err := fp.peer.Close(); err != nil {
		t.Logf("peer close: %v", err)
	}
}

// startFleet brings up one peer per id (ingest server on an ephemeral
// port); joinMesh makes them a mesh. With release set, every engine and
// every peer hands each record it is done with to it. The members are
// killed and their engines closed when the test ends.
func startFleet(t *testing.T, model *analyzer.Model, ids []string, mcfg MembershipConfig, release func(*synopsis.Synopsis)) []*fleetPeer {
	t.Helper()
	fleet := make([]*fleetPeer, 0, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		opts := []analyzer.EngineOption{analyzer.WithShards(1 + i%3)}
		if release != nil {
			opts = append(opts, analyzer.WithSynopsisRelease(release))
		}
		eng := analyzer.NewEngine(model, opts...)
		p, err := NewPeer(PeerConfig{
			Self:       PeerInfo{ID: id, Addr: ln.Addr().String()},
			Engine:     eng,
			Membership: mcfg,
			Release:    release,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := &fleetPeer{eng: eng, peer: p, srv: stream.NewServer(ln, p)}
		fleet = append(fleet, fp)
		t.Cleanup(func() {
			fp.kill(t)
			if err := eng.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	return fleet
}

// joinMesh statically introduces every peer to every other. Call it after
// any gossipers are started, so the seeded infos carry gossip addresses.
func joinMesh(fleet []*fleetPeer) {
	for i, fp := range fleet {
		for j, other := range fleet {
			if i != j {
				fp.peer.Membership().AddPeer(other.peer.Self())
			}
		}
	}
}

func fleetInfos(fleet []*fleetPeer) []PeerInfo {
	infos := make([]PeerInfo, len(fleet))
	for i, fp := range fleet {
		infos[i] = fp.peer.Self()
	}
	return infos
}

// waitUntil re-checks cond on a ticker until it holds, and fails the test
// with what once d has passed: the package's one way to wait for something
// another goroutine (a link, a gossiper, a shard worker) does.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for deadline := time.After(d); !cond(); {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitFed waits until the engines have collectively fed want synopses
// (records in flight through TCP links and forwards arrive asynchronously).
func waitFed(t *testing.T, want uint64, engines ...*analyzer.Engine) {
	t.Helper()
	waitUntil(t, 15*time.Second, fmt.Sprintf("the fleet to feed %d synopses", want), func() bool {
		var sum uint64
		for _, e := range engines {
			sum += e.Fed()
		}
		return sum == want
	})
}

// TestFleetEquivalenceGracefulLeave is the federation acceptance proof: a
// 3-peer fleet fed over TCP — one peer leaving gracefully at 60% of the
// stream and handing its open windows to the survivors — decides what the
// spec decides over the whole stream, on each of eight corpus streams.
func TestFleetEquivalenceGracefulLeave(t *testing.T) {
	model := analyzertest.Model(t)
	var handedOver uint64
	for seed := int64(1); seed <= 8; seed++ {
		stream := analyzertest.Stream(seed)
		got, moved := leaveMidStream(t, model, stream)
		analyzertest.Check(t, fmt.Sprintf("seed %d", seed), analyzertest.Want(model, stream), got)
		handedOver += moved
	}
	if handedOver == 0 {
		t.Fatal("no leave moved an open window: the handoff went untested")
	}
}

// leaveMidStream routes the first 60% of full across a 3-peer ring, has
// analyzer-2 leave, routes the rest across the two survivors and observes
// the fleet. It also returns how many groups the leave handed over.
func leaveMidStream(t *testing.T, model *analyzer.Model, full []*synopsis.Synopsis) (analyzertest.Outcome, uint64) {
	ids := []string{"analyzer-1", "analyzer-2", "analyzer-3"}
	fleet := startFleet(t, model, ids, MembershipConfig{}, nil)
	joinMesh(fleet)
	engines := []*analyzer.Engine{fleet[0].eng, fleet[1].eng, fleet[2].eng}
	cut := len(full) * 6 / 10
	route(t, fleet, full[:cut])
	waitFed(t, uint64(cut), engines...)

	// Graceful leave: analyzer-2 hands its open groups to the survivors,
	// who then drop it from their own views.
	leaving, survivors := fleet[1], []*fleetPeer{fleet[0], fleet[2]}
	fedByLeaving := leaving.eng.Fed()
	leaving.peer.Leave()
	st := leaving.peer.Status()
	if remaining := leaving.eng.OpenGroups(); len(remaining) != 0 {
		t.Fatalf("leaving peer still holds %d open groups", len(remaining))
	}
	var groupsIn uint64
	for _, fp := range survivors {
		fp.peer.Membership().RemovePeer(ids[1])
		groupsIn += fp.peer.Status().GroupsIn
	}
	if groupsIn != st.GroupsOut {
		t.Fatalf("survivors imported %d groups, leaver exported %d", groupsIn, st.GroupsOut)
	}
	leaving.kill(t)

	route(t, survivors, full[cut:])
	waitFed(t, uint64(len(full))-fedByLeaving, survivors[0].eng, survivors[1].eng)
	return analyzertest.FlushEngines(nil, engines...), st.GroupsOut
}

// route sends records as trackers would: through a RingClient over the
// fleet's ring.
func route(t *testing.T, fleet []*fleetPeer, records []*synopsis.Synopsis) {
	t.Helper()
	rc := stream.NewRingClient(NewStaticRouter(fleetInfos(fleet), 0), time.Millisecond)
	for _, s := range records {
		rc.Emit(s)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetChaos kills a peer mid-stream (hard death: no handoff, state
// lost) and asserts the fleet rebalances — gossip marks the peer dead, the
// survivors' rings converge — and that an injected fault on a group the
// dead peer owned is still localized by the survivors, reached via
// peer-to-peer forwarding of records a stale tracker keeps sending to the
// wrong place.
func TestFleetChaos(t *testing.T) {
	model := analyzertest.Model(t)
	ids := []string{"analyzer-1", "analyzer-2", "analyzer-3"}

	// Pick the fault host so its group is owned by the victim before the
	// death and by analyzer-3 after — the post-death records then exercise
	// the full forwarding path (stale route to analyzer-1, forward to 3).
	ring3 := NewRing(ids, DefaultVirtualNodes, 1)
	ring2 := NewRing([]string{ids[0], ids[2]}, DefaultVirtualNodes, 1)
	var faultHost uint16
	for h := uint16(1); h < 1000; h++ {
		if ring3.Owner(h, 1) == ids[1] && ring2.Owner(h, 1) == ids[2] {
			faultHost = h
			break
		}
	}
	if faultHost == 0 {
		t.Fatal("no host maps analyzer-2 -> analyzer-3; ring placement broken")
	}
	otherHost := faultHost + 1
	for ring3.Owner(otherHost, 1) == ids[1] {
		otherHost++ // keep the healthy control group off the victim
	}

	fleet := startFleet(t, model, ids, MembershipConfig{
		SuspectAfter: 150 * time.Millisecond,
		DeadAfter:    400 * time.Millisecond,
		ProbeBase:    200 * time.Millisecond,
	}, nil)
	var gossipers []*Gossiper
	for _, fp := range fleet {
		g, err := StartGossiper(fp.peer.Membership(), "127.0.0.1:0", 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		gossipers = append(gossipers, g)
	}
	defer func() {
		for _, g := range gossipers {
			g.Close()
		}
	}()
	joinMesh(fleet) // after the gossipers: seeded infos carry gossip addresses

	// Build per-host streams: healthy halves everywhere, then a heavy
	// latency fault on faultHost in the second half.
	const perHost = 1200
	mkHalf := func(h uint16, from, to int, faulty bool) []*synopsis.Synopsis {
		rng := vtime.NewRNG(uint64(h)*1000 + uint64(from))
		var out []*synopsis.Synopsis
		ts := analyzertest.Epoch.Add(time.Duration(from) * 30 * time.Millisecond)
		for i := from; i < to; i++ {
			dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
			if faulty {
				dur = 60 * time.Millisecond
			}
			out = append(out, analyzertest.Syn(1, h, ts, dur, 1, 2, 4, 5))
			ts = ts.Add(30 * time.Millisecond)
		}
		return out
	}
	var phase1, phase2 []*synopsis.Synopsis
	for _, h := range []uint16{faultHost, otherHost} {
		phase1 = append(phase1, mkHalf(h, 0, perHost/2, false)...)
		phase2 = append(phase2, mkHalf(h, perHost/2, perHost, h == faultHost)...)
	}

	infos := fleetInfos(fleet)
	rc := stream.NewRingClient(NewStaticRouter(infos, 0), time.Millisecond)
	for _, s := range phase1 {
		rc.Emit(s)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	engines := []*analyzer.Engine{fleet[0].eng, fleet[1].eng, fleet[2].eng}
	waitFed(t, uint64(len(phase1)), engines...)

	// Hard kill: server, gossiper and peer die; engine state is lost.
	victim := fleet[1]
	victimFed := victim.eng.Fed()
	if victimFed == 0 {
		t.Fatal("victim fed nothing; fault host must be routed to it")
	}
	gossipers[1].Close()
	victim.kill(t)

	// Rebalance completes: the survivors' rings converge on the 2-peer
	// topology without the victim.
	wantRing := []string{ids[0], ids[2]}
	waitUntil(t, 10*time.Second, "the survivors' rings to converge", func() bool {
		return reflect.DeepEqual(fleet[0].peer.Membership().Ring().Peers(), wantRing) &&
			reflect.DeepEqual(fleet[2].peer.Membership().Ring().Peers(), wantRing)
	})

	// A stale tracker keeps routing by the 3-peer ring, with the victim's
	// address pointing at a live peer (any real deployment's connection
	// failover): analyzer-1 must forward what it does not own.
	stale := make([]PeerInfo, len(infos))
	copy(stale, infos)
	stale[1].Addr = infos[0].Addr
	rc2 := stream.NewRingClient(NewStaticRouter(stale, 0), time.Millisecond)
	for _, s := range phase2 {
		rc2.Emit(s)
	}
	if err := rc2.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := []*analyzer.Engine{fleet[0].eng, fleet[2].eng}
	waitFed(t, uint64(len(phase1))-victimFed+uint64(len(phase2)), survivors...)

	if fwd := fleet[0].peer.Status().Forwards; fwd == 0 {
		t.Fatal("no records were forwarded peer-to-peer; the stale route must be corrected by forwarding")
	}

	var merged []analyzer.Anomaly
	for _, i := range []int{0, 2} {
		merged = append(merged, fleet[i].eng.Flush()...)
		fleet[i].kill(t)
		if err := fleet[i].eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	analyzer.SortAnomalies(merged)

	// Fault localization: the merged survivor view must blame faultHost
	// with a performance anomaly, and must not blame the healthy host.
	foundFault := false
	for _, a := range merged {
		if a.Host == faultHost && a.Kind == analyzer.PerformanceAnomaly {
			foundFault = true
		}
		if a.Host == otherHost {
			t.Fatalf("healthy host %d blamed: %v", otherHost, a)
		}
	}
	if !foundFault {
		t.Fatalf("injected fault on host %d not localized; merged anomalies: %v", faultHost, merged)
	}
}
