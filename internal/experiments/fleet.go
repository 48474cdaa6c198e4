package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/federation"
	"saad/internal/stream"
)

// FleetResult is the federated-tier trajectory experiment (not a paper
// artifact): a faulted Cassandra trace streams through a 3-peer in-process
// fleet with ring routing, one peer leaves gracefully mid-stream (its open
// windows move over the checkpoint-handoff channel), and the merged anomaly
// union is compared against a single engine fed the identical stream.
type FleetResult struct {
	Peers   int
	Records int
	// Phase1Records crossed the 3-peer ring; the rest the 2-peer ring left
	// after the graceful leave.
	Phase1Records int
	Duration      time.Duration
	// SynopsesPerSec is the aggregate end-to-end fleet rate — first record
	// emitted to last record fed, the graceful leave included — and the
	// series the CI perf gate compares.
	SynopsesPerSec float64
	// Anomalies / BaselineAnomalies count the fleet union and the
	// single-engine reference; Identical is the equivalence verdict after
	// the canonical merge ordering.
	Anomalies         int
	BaselineAnomalies int
	Identical         bool
	// Handoffs / HandoffGroups are the leave's checkpoint transfers;
	// Forwards counts records corrected peer-to-peer by the ring.
	Handoffs      uint64
	HandoffGroups uint64
	Forwards      uint64
}

// String renders the fleet summary.
func (r FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet: %d-peer federated analyzer tier, graceful leave at %d/%d records\n",
		r.Peers, r.Phase1Records, r.Records)
	fmt.Fprintf(&b, "  %d synopses in %v  (%.0f synopses/s aggregate)\n",
		r.Records, r.Duration.Round(time.Millisecond), r.SynopsesPerSec)
	fmt.Fprintf(&b, "  leave moved %d groups in %d handoffs; %d records forwarded peer-to-peer\n",
		r.HandoffGroups, r.Handoffs, r.Forwards)
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "  anomalies: fleet %d vs single engine %d — %s\n",
		r.Anomalies, r.BaselineAnomalies, verdict)
	return b.String()
}

// fleetMember is one in-process fleet peer: engine, federation front and
// TCP ingest server.
type fleetMember struct {
	eng  *analyzer.Engine
	peer *federation.Peer
	srv  *stream.Server
}

func (m *fleetMember) shutdown() {
	_ = m.srv.Close()
	_ = m.peer.Close()
	_ = m.eng.Close()
}

// fleetCanonical reduces anomalies to representation-independent strings
// (time.Time internals differ across the wire round trip) for the
// equivalence verdict.
func fleetCanonical(as []analyzer.Anomaly) []string {
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

// fleetWaitFed polls until the engines collectively fed want records.
func fleetWaitFed(want uint64, engines ...*analyzer.Engine) error {
	deadline := time.Now().Add(60 * time.Second)
	var sum uint64
	for time.Now().Before(deadline) {
		sum = 0
		for _, e := range engines {
			sum += e.Fed()
		}
		if sum == want {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fleet: engines fed %d synopses, want %d", sum, want)
}

// Fleet trains on a fault-free Cassandra run, generates a faulted detection
// trace (a hard WAL delay on host 4), and plays it through the fleet.
func Fleet(cfg Config) (FleetResult, error) {
	cfg.applyDefaults()
	out := FleetResult{Peers: 3}

	train, _, err := cfg.cassandraRun(10, nil, 733, nil)
	if err != nil {
		return out, err
	}
	model, err := cfg.trainModel(train.syns)
	if err != nil {
		return out, err
	}
	inj := faults.NewInjector(faults.Fault{
		Name: "fleet-delay-wal", Point: faults.PointWALAppend, Mode: faults.ModeDelay,
		Probability: 1, Delay: 100 * time.Millisecond, Host: 4,
		From: cfg.Minute(3), To: cfg.Minute(7),
	})
	res, _, err := cfg.cassandraRun(10, inj, 737, nil)
	if err != nil {
		return out, err
	}
	syns := res.syns
	out.Records = len(syns)
	out.Phase1Records = len(syns) * 6 / 10

	// Single-engine reference over clones (the fleet path stamps RingEpoch
	// on the originals as it routes them).
	ref := analyzer.NewEngine(model, analyzer.WithShards(4))
	for _, s := range syns {
		ref.Feed(s.Clone())
	}
	want := ref.Flush()
	if err := ref.Close(); err != nil {
		return out, err
	}
	out.BaselineAnomalies = len(want)

	ids := []string{"peer-1", "peer-2", "peer-3"}
	fleet := make([]*fleetMember, 0, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return out, err
		}
		eng := analyzer.NewEngine(model, analyzer.WithShards(1+i%3))
		p, err := federation.NewPeer(federation.PeerConfig{
			Self:   federation.PeerInfo{ID: id, Addr: ln.Addr().String()},
			Engine: eng,
		})
		if err != nil {
			return out, err
		}
		fleet = append(fleet, &fleetMember{
			eng:  eng,
			peer: p,
			srv:  stream.NewServer(ln, p),
		})
	}
	for i, m := range fleet {
		for j, other := range fleet {
			if i != j {
				m.peer.Membership().AddPeer(other.peer.Self())
			}
		}
	}
	infos := make([]federation.PeerInfo, len(fleet))
	for i, m := range fleet {
		infos[i] = m.peer.Self()
	}

	// Phase 1: 60% of the stream across the 3-peer ring.
	start := time.Now()
	rc := stream.NewRingClient(federation.NewStaticRouter(infos, 0), time.Millisecond)
	for _, s := range syns[:out.Phase1Records] {
		rc.Emit(s)
	}
	if err := rc.Close(); err != nil {
		return out, err
	}
	if err := fleetWaitFed(uint64(out.Phase1Records), fleet[0].eng, fleet[1].eng, fleet[2].eng); err != nil {
		return out, err
	}

	// Graceful leave with checkpoint handoff: peer-2's open windows move to
	// the survivors, who then drop it from their own fleet views.
	leaving := fleet[1]
	leftFed := leaving.eng.Fed()
	leaving.peer.Leave()
	st := leaving.peer.Status()
	out.Handoffs, out.HandoffGroups = st.HandoffsOut, st.GroupsOut
	survivors := []*fleetMember{fleet[0], fleet[2]}
	for _, m := range survivors {
		m.peer.Membership().RemovePeer(ids[1])
	}
	got := leaving.eng.Flush() // windows it closed before leaving
	leaving.shutdown()

	// Phase 2: the remaining 40% across the 2-peer ring.
	rc2 := stream.NewRingClient(federation.NewStaticRouter([]federation.PeerInfo{infos[0], infos[2]}, 0), time.Millisecond)
	for _, s := range syns[out.Phase1Records:] {
		rc2.Emit(s)
	}
	if err := rc2.Close(); err != nil {
		return out, err
	}
	if err := fleetWaitFed(uint64(len(syns))-leftFed, survivors[0].eng, survivors[1].eng); err != nil {
		return out, err
	}
	out.Duration = time.Since(start)
	if secs := out.Duration.Seconds(); secs > 0 {
		out.SynopsesPerSec = float64(len(syns)) / secs
	}

	out.Forwards = st.Forwards
	for _, m := range survivors {
		out.Forwards += m.peer.Status().Forwards
		got = append(got, m.eng.Flush()...)
		m.shutdown()
	}
	analyzer.SortAnomalies(got)
	out.Anomalies = len(got)

	g, w := fleetCanonical(got), fleetCanonical(want)
	out.Identical = len(g) == len(w)
	if out.Identical {
		for i := range g {
			if g[i] != w[i] {
				out.Identical = false
				break
			}
		}
	}
	if !out.Identical {
		return out, fmt.Errorf("fleet: merged anomaly union (%d) diverges from the single-engine run (%d)", len(g), len(w))
	}
	return out, nil
}
