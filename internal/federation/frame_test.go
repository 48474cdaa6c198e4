package federation

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saad/internal/analyzer"
	"saad/internal/analyzer/analyzertest"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// TestPeerFramesMatchSpec: a peer routes a frame whole — one park decision,
// one ring snapshot, its own records to the engine in one FeedBatch, the
// others forwarded in frame order — and a 3-peer mesh fed corpus streams in
// frames of 13 sizes through one entry peer decides what the spec decides.
// The entry peer forwards exactly the records it does not own, and with
// Release on, each record is fed to an engine or released exactly as often as
// it occurs in the stream.
func TestPeerFramesMatchSpec(t *testing.T) {
	model := analyzertest.Model(t)
	ids := []string{"a", "b", "c"}
	sizes := []int{1, 2, 3, 5, 7, 16, 33, 64, 65, 100, 128, 255, 512}
	for _, release := range []bool{false, true} {
		t.Run(fmt.Sprintf("release=%v", release), func(t *testing.T) {
			forwarded := 0
			for seed := int64(1); seed <= 4; seed++ {
				stream := analyzertest.Stream(seed)
				var mu sync.Mutex
				done := make(map[*synopsis.Synopsis]int)
				var hook func(*synopsis.Synopsis)
				if release {
					hook = func(s *synopsis.Synopsis) {
						mu.Lock()
						done[s]++
						mu.Unlock()
					}
				}
				fleet := startFleet(t, model, ids, MembershipConfig{}, hook)
				joinMesh(fleet)
				entry := fleet[0].peer
				ring := entry.Membership().Ring()
				foreign := 0
				for _, s := range stream {
					if ring.Owner(s.Host, s.Stage) != ids[0] {
						foreign++
					}
				}
				for rest, i := stream, int(seed); len(rest) > 0; i++ {
					n := min(len(rest), sizes[i%len(sizes)])
					entry.EmitBatch(slices.Clone(rest[:n])) // the peer may reorder what it is lent
					rest = rest[n:]
				}
				entry.Flush()
				engines := []*analyzer.Engine{fleet[0].eng, fleet[1].eng, fleet[2].eng}
				waitFed(t, uint64(len(stream)), engines...)
				what := fmt.Sprintf("seed %d", seed)
				analyzertest.Check(t, what, analyzertest.Want(model, stream), analyzertest.FlushEngines(nil, engines...))
				if st := entry.Status(); st.Forwards != uint64(foreign) || st.ForwardsDropped+st.Parked != 0 {
					t.Fatalf("%s: forwarded/dropped/parked %d/%d/%d of %d records the entry peer does not own",
						what, st.Forwards, st.ForwardsDropped, st.Parked, foreign)
				}
				forwarded += foreign
				if !release {
					continue
				}
				occurs := make(map[*synopsis.Synopsis]int)
				for _, s := range stream {
					occurs[s]++
				}
				mu.Lock()
				for s, n := range occurs {
					if done[s] != n {
						t.Fatalf("%s: task %d occurs %d times, was fed or released %d", what, s.TaskID, n, done[s])
					}
				}
				mu.Unlock()
			}
			if forwarded == 0 {
				t.Fatal("every record was the entry peer's own: forwarding went untested")
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
		frame[i] = analyzertest.Syn(1, uint16(i%32), analyzertest.Epoch.Add(time.Duration(first)*time.Millisecond), 10*time.Millisecond, 1, 2, 4, 5)
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
	eng := analyzer.NewEngine(analyzertest.Model(t), analyzer.WithShards(shards),
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
	eng := analyzer.NewEngine(analyzertest.Model(t), analyzer.WithShards(1),
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
	eng := analyzer.NewEngine(analyzertest.Model(t), analyzer.WithShards(2),
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
