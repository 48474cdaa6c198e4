package federation

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

var fedEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func fedSyn(stage logpoint.StageID, host uint16, start time.Time, dur time.Duration, pts ...logpoint.ID) *synopsis.Synopsis {
	s := &synopsis.Synopsis{Stage: stage, Host: host, Start: start, Duration: dur}
	for _, p := range pts {
		s.Points = append(s.Points, synopsis.PointCount{Point: p, Count: 1})
	}
	s.Normalize()
	return s
}

// fedTrainedModel mirrors the analyzer package's test model: stage 1 with
// a ~99% common signature, a ~0.4% rare one, durations around 10ms.
func fedTrainedModel(t testing.TB) *analyzer.Model {
	t.Helper()
	rng := vtime.NewRNG(42)
	var trace []*synopsis.Synopsis
	ts := fedEpoch
	for i := 0; i < 20000; i++ {
		dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
		pts := []logpoint.ID{1, 2, 4, 5}
		if i%250 == 0 {
			pts = []logpoint.ID{1, 2, 3, 4, 5}
		}
		trace = append(trace, fedSyn(1, 1, ts, dur, pts...))
		ts = ts.Add(time.Millisecond)
	}
	model, err := analyzer.Train(analyzer.DefaultConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// fedStream builds a detection stream over the given hosts: healthy
// stage-1 traffic with a new-signature burst, a latency burst, a rare-flow
// trickle and an untrained stage-2 trickle per host.
func fedStream(hosts []uint16, perHost int) []*synopsis.Synopsis {
	rng := vtime.NewRNG(7)
	var syns []*synopsis.Synopsis
	for _, h := range hosts {
		ts := fedEpoch
		for i := 0; i < perHost; i++ {
			dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
			pts := []logpoint.ID{1, 2, 4, 5}
			switch {
			case i >= perHost*3/8 && i < perHost*3/8+150:
				pts = []logpoint.ID{1}
				dur = time.Millisecond
			case i >= perHost*5/8 && i < perHost*5/8+300:
				dur = 40 * time.Millisecond
			case i%250 == 0:
				pts = []logpoint.ID{1, 2, 3, 4, 5}
			}
			syns = append(syns, fedSyn(1, h, ts, dur, pts...))
			if i%500 == 499 {
				syns = append(syns, fedSyn(2, h, ts, dur, 1, 2))
			}
			ts = ts.Add(30 * time.Millisecond)
		}
	}
	return syns
}

// summarize reduces anomalies to the canonical comparison form the
// analyzer's checkpoint tests established: the String form plus signature,
// test outcome and example task ids — everything semantically meaningful,
// nothing representation-dependent (time.Time internals differ across a
// codec round trip).
func summarize(as []analyzer.Anomaly) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		ids := make([]uint64, 0, len(a.Examples))
		for _, ex := range a.Examples {
			ids = append(ids, ex.TaskID)
		}
		out = append(out, fmt.Sprintf("%s sig=%x test=%+v examples=%v", a.String(), a.Signature, a.Test, ids))
	}
	return out
}

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
// port, protocol v2) and joins them into a full mesh statically.
func startFleet(t *testing.T, model *analyzer.Model, ids []string, mcfg MembershipConfig) []*fleetPeer {
	t.Helper()
	fleet := make([]*fleetPeer, 0, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eng := analyzer.NewEngine(model, analyzer.WithShards(1+i%3))
		p, err := NewPeer(PeerConfig{
			Self:       PeerInfo{ID: id, Addr: ln.Addr().String()},
			Engine:     eng,
			Membership: mcfg,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := stream.NewServer(ln, p)
		fleet = append(fleet, &fleetPeer{eng: eng, peer: p, srv: srv})
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
// 3-peer fleet fed over TCP — including one graceful leave mid-stream with
// checkpoint handoff — must produce exactly the anomaly set of a single
// engine fed the whole stream, after the canonical merge ordering.
func TestFleetEquivalenceGracefulLeave(t *testing.T) {
	model := fedTrainedModel(t)
	full := fedStream([]uint16{1, 2, 3, 4, 5, 6}, 3000)

	ref := analyzer.NewEngine(model, analyzer.WithShards(4))
	for _, s := range full {
		ref.Feed(s)
	}
	want := ref.Flush()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no anomalies; the stream should trip detections")
	}

	ids := []string{"analyzer-1", "analyzer-2", "analyzer-3"}
	fleet := startFleet(t, model, ids, MembershipConfig{})
	joinMesh(fleet)

	// Phase 1: trackers route 60% of the stream across the 3-peer ring.
	rc := stream.NewRingClient(NewStaticRouter(fleetInfos(fleet), 0), time.Millisecond)
	cut := len(full) * 6 / 10
	for _, s := range full[:cut] {
		rc.Emit(s)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	engines := []*analyzer.Engine{fleet[0].eng, fleet[1].eng, fleet[2].eng}
	waitFed(t, uint64(cut), engines...)

	// Graceful leave: analyzer-2 hands its open groups to the survivors,
	// who then drop it from their own views.
	leaving := fleet[1]
	fedByLeaving := leaving.eng.Fed()
	leaving.peer.Leave()
	st := leaving.peer.Status()
	if st.HandoffsOut == 0 || st.GroupsOut == 0 {
		t.Fatalf("leave moved no state: %+v", st)
	}
	if remaining := leaving.eng.OpenGroups(); len(remaining) != 0 {
		t.Fatalf("leaving peer still holds %d open groups", len(remaining))
	}
	survivors := []*fleetPeer{fleet[0], fleet[2]}
	for _, fp := range survivors {
		fp.peer.Membership().RemovePeer(ids[1])
	}
	got := leaving.eng.Flush() // anomalies from windows it closed before leaving
	leaving.kill(t)
	if err := leaving.eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The moved groups must have landed on the survivors.
	var groupsIn uint64
	for _, fp := range survivors {
		groupsIn += fp.peer.Status().GroupsIn
	}
	if groupsIn != st.GroupsOut {
		t.Fatalf("survivors imported %d groups, leaver exported %d", groupsIn, st.GroupsOut)
	}

	// Phase 2: the remaining 40% routes across the 2-peer ring.
	rc2 := stream.NewRingClient(NewStaticRouter(fleetInfos(survivors), 0), time.Millisecond)
	for _, s := range full[cut:] {
		rc2.Emit(s)
	}
	if err := rc2.Close(); err != nil {
		t.Fatal(err)
	}
	waitFed(t, uint64(len(full))-fedByLeaving, survivors[0].eng, survivors[1].eng)

	for _, fp := range survivors {
		got = append(got, fp.eng.Flush()...)
		fp.kill(t)
		if err := fp.eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	analyzer.SortAnomalies(got)

	if g, w := summarize(got), summarize(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("fleet run (%d anomalies) diverges from single engine (%d):\n got %v\nwant %v", len(g), len(w), g, w)
	}
}

// TestFleetChaos kills a peer mid-stream (hard death: no handoff, state
// lost) and asserts the fleet rebalances — gossip marks the peer dead, the
// survivors' rings converge — and that an injected fault on a group the
// dead peer owned is still localized by the survivors, reached via
// peer-to-peer forwarding of records a stale tracker keeps sending to the
// wrong place.
func TestFleetChaos(t *testing.T) {
	model := fedTrainedModel(t)
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
	})
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
		ts := fedEpoch.Add(time.Duration(from) * 30 * time.Millisecond)
		for i := from; i < to; i++ {
			dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
			if faulty {
				dur = 60 * time.Millisecond
			}
			out = append(out, fedSyn(1, h, ts, dur, 1, 2, 4, 5))
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
		t.Fatalf("injected fault on host %d not localized; merged anomalies: %v", faultHost, summarize(merged))
	}
}
