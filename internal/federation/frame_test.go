package federation

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/raceflag"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// perRecordDispatch is Peer.EmitBatch as it was before a frame was routed
// whole — one park check, one ring load and one engine hand-off per record —
// kept here as the reference the frame routine is held to.
func perRecordDispatch(p *Peer, batch []*synopsis.Synopsis) {
	for _, s := range batch {
		p.parkMu.Lock()
		if p.parkDepth > 0 {
			p.parkedBuf = append(p.parkedBuf, s)
			p.parkMu.Unlock()
			p.parked.Add(1)
			p.m.ForwardsParked.Inc()
			continue
		}
		p.parkMu.Unlock()
		owner := p.ms.Ring().OwnerOfHash(KeyHash(s.Host, s.Stage))
		if owner == p.selfID {
			p.eng.Emit(s)
			continue
		}
		p.forward(s, owner)
	}
}

// feedLog is what one engine observed: task ids per (host, stage) group in
// the order its shard worker let go of them, which is the order they were
// fed in, and how often each record passed by.
type feedLog struct {
	mu     sync.Mutex
	groups map[analyzer.GroupKey][]uint64
	seen   map[*synopsis.Synopsis]int
}

func newFeedLog() *feedLog {
	return &feedLog{groups: make(map[analyzer.GroupKey][]uint64), seen: make(map[*synopsis.Synopsis]int)}
}

func (l *feedLog) record(s *synopsis.Synopsis) {
	l.mu.Lock()
	g := analyzer.GroupKey{Host: s.Host, Stage: s.Stage}
	l.groups[g] = append(l.groups[g], s.TaskID)
	l.seen[s]++
	l.mu.Unlock()
}

func (l *feedLog) snapshot() map[analyzer.GroupKey][]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[analyzer.GroupKey][]uint64, len(l.groups))
	for g, ids := range l.groups {
		out[g] = slices.Clone(ids)
	}
	return out
}

// loggedFleet is a static full mesh of peers behind real ingest servers,
// each engine (one shard, so one total order) logging what it is fed. With
// release set, every peer recycles what it forwards into released.
type loggedFleet struct {
	fleet    []*fleetPeer
	logs     []*feedLog
	released *feedLog
}

func startLoggedFleet(t *testing.T, model *analyzer.Model, ids []string, release bool) *loggedFleet {
	t.Helper()
	lf := &loggedFleet{released: newFeedLog()}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		log := newFeedLog()
		eng := analyzer.NewEngine(model, analyzer.WithShards(1), analyzer.WithSynopsisRelease(log.record))
		cfg := PeerConfig{Self: PeerInfo{ID: id, Addr: ln.Addr().String()}, Engine: eng, Logf: t.Logf}
		if release {
			cfg.Release = lf.released.record
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := &fleetPeer{eng: eng, peer: p, srv: stream.NewServer(ln, p)}
		lf.fleet = append(lf.fleet, fp)
		lf.logs = append(lf.logs, log)
		t.Cleanup(func() {
			fp.kill(t)
			if err := eng.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	joinMesh(lf.fleet)
	return lf
}

// seededFrames builds frames of the given sizes for a tracker that dialled
// ids[0]: each frame draws from the groups of one, two or all three owners,
// a third of it from one hot group so that duplicates of a group interleave
// with the rest. Task ids rise across the whole run; hostsOf lists, per
// owner, hosts whose stage-1 group that owner holds.
func seededFrames(seed uint64, sizes []int, ids []string, hostsOf map[string][]uint16) [][]*synopsis.Synopsis {
	rng := vtime.NewRNG(seed)
	var frames [][]*synopsis.Synopsis
	task := uint64(0)
	ts := fedEpoch
	for f, n := range sizes {
		owners := ids[:1+f%len(ids)] // 1, 2, 3 owners, the entry peer always one
		var groups []uint16
		for _, o := range owners {
			groups = append(groups, hostsOf[o]...)
		}
		hot := groups[rng.Intn(len(groups))]
		frame := make([]*synopsis.Synopsis, n)
		for i := range frame {
			host := hot
			if rng.Intn(3) > 0 {
				host = groups[rng.Intn(len(groups))]
			}
			task++
			frame[i] = fedSyn(1, host, ts, 10*time.Millisecond, 1, 2, 4, 5)
			frame[i].TaskID = task
			ts = ts.Add(time.Millisecond)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestPeerFrameMatchesPerRecordDispatch: routing a frame whole — one park
// decision, one ring snapshot, the local records to the engine in one
// FeedBatch — delivers what the per-record loop delivered: every engine of
// a 3-peer fleet is fed the same records in the same per-group order, the
// entry peer's counters agree, and each record the entry peer received is
// fed to its engine or released, exactly once.
func TestPeerFrameMatchesPerRecordDispatch(t *testing.T) {
	model := fedTrainedModel(t)
	ids := []string{"a", "b", "c"}
	ring := NewRing(ids, 0, 0)
	hostsOf := make(map[string][]uint16)
	for h := uint16(1); h <= 48; h++ {
		o := ring.Owner(h, 1)
		hostsOf[o] = append(hostsOf[o], h)
	}
	sizes := []int{1, 1, 1, 2, 3, 7, 64, 65, 512, 1000, 4096, 4096, 33, 5, 300}
	for _, release := range []bool{false, true} {
		t.Run(fmt.Sprintf("release=%v", release), func(t *testing.T) {
			type outcome struct {
				fed    []map[analyzer.GroupKey][]uint64
				status Status
			}
			run := func(emitBatch func(*Peer, []*synopsis.Synopsis)) outcome {
				lf := startLoggedFleet(t, model, ids, release)
				entry := lf.fleet[0]
				frames := seededFrames(20141208, sizes, ids, hostsOf)
				total := 0
				var all []*synopsis.Synopsis
				for _, frame := range frames {
					total += len(frame)
					all = append(all, frame...)
					emitBatch(entry.peer, frame)
				}
				entry.peer.Flush()
				waitFed(t, uint64(total), lf.fleet[0].eng, lf.fleet[1].eng, lf.fleet[2].eng)
				var out outcome
				for _, fp := range lf.fleet {
					fp.eng.Drain() // every release hook has run
				}
				for _, log := range lf.logs {
					out.fed = append(out.fed, log.snapshot())
				}
				out.status = entry.peer.Status()

				// Exactly once: a record the entry peer was handed ends in its
				// engine or in the Release hook; without the hook a forwarded
				// record is the link's, and ends in neither.
				local, released := lf.logs[0], lf.released
				for _, s := range all {
					want := 1
					if !release && ring.Owner(s.Host, s.Stage) != ids[0] {
						want = 0
					}
					if n := local.seen[s] + released.seen[s]; n != want {
						t.Fatalf("task %d was fed or released %d times, want %d", s.TaskID, n, want)
					}
				}
				return out
			}
			got := run((*Peer).EmitBatch)
			want := run(perRecordDispatch)
			for i := range ids {
				if !reflect.DeepEqual(got.fed[i], want.fed[i]) {
					t.Errorf("engine %s: the frame routine fed %d groups differently from the per-record loop", ids[i], len(want.fed[i]))
				}
			}
			g, w := got.status, want.status
			if g.Forwards != w.Forwards || g.ForwardsDropped != w.ForwardsDropped || g.Parked != w.Parked {
				t.Errorf("forwards/dropped/parked = %d/%d/%d, the per-record loop's %d/%d/%d",
					g.Forwards, g.ForwardsDropped, g.Parked, w.Forwards, w.ForwardsDropped, w.Parked)
			}
			if w.Forwards == 0 || len(want.fed[1]) == 0 || len(want.fed[2]) == 0 {
				t.Fatalf("the frames never left the entry peer (forwards %d): nothing was compared", w.Forwards)
			}
		})
	}
}

// solePeer is a fleet of one: it owns every group.
func solePeer(t *testing.T, eng *analyzer.Engine) *Peer {
	t.Helper()
	p, err := NewPeer(PeerConfig{Self: PeerInfo{ID: "solo"}, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	return p
}

// localFrame is n records over 32 hosts, task ids from first up.
func localFrame(n int, first uint64) []*synopsis.Synopsis {
	frame := make([]*synopsis.Synopsis, n)
	for i := range frame {
		frame[i] = fedSyn(1, uint16(i%32), fedEpoch.Add(time.Duration(first)*time.Millisecond), 10*time.Millisecond, 1, 2, 4, 5)
		frame[i].TaskID = first + uint64(i)
	}
	return frame
}

// TestPeerFrameAllLocalIsOneMessagePerShard: with the shard workers held, a
// 512-record frame the peer owns whole takes ONE slot in each shard's queue
// (one per record before frames were routed whole), and the lent slice comes
// back as it went in.
func TestPeerFrameAllLocalIsOneMessagePerShard(t *testing.T) {
	const shards = 2
	gate := make(chan struct{})
	var held atomic.Int32
	eng := analyzer.NewEngine(fedTrainedModel(t), analyzer.WithShards(shards),
		analyzer.WithSynopsisRelease(func(*synopsis.Synopsis) {
			held.Add(1)
			<-gate
		}))
	defer eng.Close()
	defer close(gate) // before Close, which waits for the workers
	p := solePeer(t, eng)

	// One record per host holds each worker in the release hook of the first
	// it observes; the rest sit in the queues.
	for _, s := range localFrame(32, 1) {
		p.Emit(s)
	}
	waitUntil(t, 5*time.Second, "both shard workers to be held", func() bool { return held.Load() == shards })
	before := eng.ShardStats()

	frame := localFrame(512, 100)
	asLent := slices.Clone(frame)
	p.EmitBatch(frame)
	if !slices.Equal(frame, asLent) {
		t.Error("an all-local frame came back reordered")
	}
	for i, st := range eng.ShardStats() {
		if got := st.QueueLen - before[i].QueueLen; got != 1 {
			t.Errorf("shard %d: the frame took %d queue slots, want 1", i, got)
		}
	}
	if st := p.Status(); st.Forwards+st.ForwardsDropped+st.Parked != 0 {
		t.Errorf("a sole peer forwarded/dropped/parked %d/%d/%d", st.Forwards, st.ForwardsDropped, st.Parked)
	}
}

// TestPeerFrameParkedWhole: a frame that arrives while a rebalance is in
// flight is parked as a whole, behind what is parked already, and the
// parking buffer drains as one batch in arrival order.
func TestPeerFrameParkedWhole(t *testing.T) {
	var order []uint64 // appended to by the one shard worker, read after Drain
	eng := analyzer.NewEngine(fedTrainedModel(t), analyzer.WithShards(1),
		analyzer.WithSynopsisRelease(func(s *synopsis.Synopsis) { order = append(order, s.TaskID) }))
	defer eng.Close()
	p := solePeer(t, eng)

	p.parkMu.Lock()
	p.parkDepth++ // what onRingChange does on its way in
	p.parkMu.Unlock()
	p.EmitBatch(localFrame(300, 1))
	p.Emit(localFrame(1, 301)[0])
	p.EmitBatch(localFrame(200, 302))
	if fed, parked := eng.Fed(), p.Status().Parked; fed != 0 || parked != 501 {
		t.Fatalf("mid-rebalance: fed %d, parked %d; want 0 and 501", fed, parked)
	}
	p.drainParked() // and on its way out
	eng.Drain()
	if fed := eng.Fed(); fed != 501 {
		t.Fatalf("after the drain: fed %d, want 501", fed)
	}
	if !slices.IsSorted(order) || len(order) != 501 {
		t.Fatalf("parked records left the buffer out of arrival order (%d of 501 seen)", len(order))
	}
	p.EmitBatch(localFrame(10, 600))
	if fed, parked := eng.Fed(), p.Status().Parked; fed != 511 || parked != 501 {
		t.Fatalf("after the rebalance: fed %d, parked %d; want 511 and 501", fed, parked)
	}
}

// TestPeerEmitBatchAllocs pins the peer's share of the receive path: a frame
// it owns whole, and a lone record, cost no allocation on their way into the
// engine.
func TestPeerEmitBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	var done atomic.Uint64
	eng := analyzer.NewEngine(fedTrainedModel(t), analyzer.WithShards(2),
		analyzer.WithSynopsisReleaseBatch(func(b []*synopsis.Synopsis) { done.Add(uint64(len(b))) }))
	defer eng.Close()
	p := solePeer(t, eng)
	frame := localFrame(512, 1)
	var fed uint64
	settle := func() { // the workers are done with what was fed, feed buffers returned
		for done.Load() != fed {
			runtime.Gosched()
		}
	}
	emitBatch := func() {
		p.EmitBatch(frame)
		fed += uint64(len(frame))
		settle()
	}
	emitBatch()
	if got := testing.AllocsPerRun(50, emitBatch); got != 0 {
		t.Errorf("Peer.EmitBatch(%d all-local records) = %v allocs, want 0", len(frame), got)
	}
	emit := func() {
		p.Emit(frame[0])
		fed++
		settle()
	}
	emit()
	if got := testing.AllocsPerRun(50, emit); got != 0 {
		t.Errorf("Peer.Emit = %v allocs, want 0", got)
	}
}
