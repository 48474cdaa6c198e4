package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"saad/internal/analyzer"
	"saad/internal/federation"
	"saad/internal/metrics"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// shape is how a workload assembles the pipeline.
type shape int

const (
	shapeWire     shape = iota // trackers → stream.Client(s) → one Server+Pool → Engine
	shapeEmbedded              // trackers → Engine.Emit, what saad.Monitor does
	shapeFleet                 // trackers → RingClient → 2 × (Server → Peer → Engine)
)

// spec is one named workload.
type spec struct {
	name string
	why  string
	shape
	// faulted replays the lap with the WAL delay injected, so the detector's
	// anomaly path runs.
	faulted bool
	// fanin replays from maxGenerators() goroutines, each with its own
	// trackers and link.
	fanin bool
	// rate > 0 makes the workload open-loop at that many synopses/s.
	rate float64
	// lapsPerLeg is the fixed work of one leg.
	lapsPerLeg int
}

// The five workloads. The why strings are BENCHMARK.json's.
var specs = []spec{
	{name: "wire-1link", shape: shapeWire, lapsPerLeg: 8,
		why: "closed loop, one tracker-to-analyzer link: all six layers in series on the daemon's default path"},
	{name: "wire-fanin", shape: shapeWire, faulted: true, fanin: true, lapsPerLeg: 8,
		why: "closed loop, min(nproc,4) links into one server, faulted trace: shared pool, concurrent FeedBatch and the detector's anomaly path"},
	{name: "embedded", shape: shapeEmbedded, lapsPerLeg: 8,
		why: "closed loop, trackers feed Engine.Emit in process: synopsis and stream do no work, so a wire change must show no change here"},
	{name: "fleet-2peer", shape: shapeFleet, faulted: true, lapsPerLeg: 8,
		why: "closed loop, RingClient over a static ring into two peers, faulted trace: federation routing does the added work"},
	{name: "paced-1link", shape: shapeWire, rate: 200_000, lapsPerLeg: 2,
		why: "open loop at 200000 synopses/s on one link: below saturation the client flushes small frames on its latency tick"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// maxGenerators bounds the generator goroutines and connections.
func maxGenerators() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// generators is the number of replaying goroutines the workload uses.
func (s spec) generators() int {
	if s.fanin {
		return maxGenerators()
	}
	return 1
}

const (
	// flushEvery is every client's latency trigger.
	flushEvery = 2 * time.Millisecond
	// poolCapacity is the daemon's receive-pool size.
	poolCapacity = 32768
	// maxOutstanding bounds the synopses offered to a pooled pipeline and
	// not yet released by its engines: half a receive pool. A loop is closed
	// by the caller waiting for its replies; without the bound the only thing
	// the generators wait for is TCP backpressure behind a million-record
	// shard queue, the pools run dry for good, and every allocation count
	// measures how dry — the scheduler — instead of the path a synopsis takes.
	maxOutstanding = poolCapacity / 2
)

// window closes a pooled pipeline's loop: a generator starts a chunk only
// while at most maxOutstanding synopses lie between the tasks ended and the
// synopses the engines have released.
type window struct {
	sent, released atomic.Uint64
}

// wait blocks until there is room for another chunk.
func (w *window) wait() {
	for w.sent.Load()-w.released.Load() > maxOutstanding {
		time.Sleep(50 * time.Microsecond)
	}
}

// newWarmPool returns a receive pool stocked to capacity with bare records,
// the kind the pool makes itself when it runs dry — where a long-running
// daemon's pool ends up. Legs then measure the warmed steady state, and the
// pool's footprint does not depend on how often a run happened to drain it.
func newWarmPool() *synopsis.Pool {
	pool := synopsis.NewPool(poolCapacity)
	warm := make([]*synopsis.Synopsis, poolCapacity)
	for i := range warm {
		warm[i] = &synopsis.Synopsis{}
	}
	pool.PutN(warm)
	return pool
}

// batchSink is what a stream.Server delivers to.
type batchSink interface {
	tracker.Sink
	stream.BatchSink
}

// pipeline is the assembled program under test, built only from the
// packages' public functions.
type pipeline struct {
	// sinks[g] is where generator g's trackers emit.
	sinks   []tracker.Sink
	engines []*analyzer.Engine
	// pools are the servers' receive pools; window bounds what is out of
	// them (nil without pools).
	pools  []*synopsis.Pool
	window *window

	clients []*stream.Client
	ring    *stream.RingClient
	servers []*stream.Server
	peers   []*federation.Peer

	// clientMetrics is shared by every link (nil when there is no wire).
	clientMetrics *metrics.TCPClientMetrics
	// engineMetrics[i] instruments engines[i]; set on the traced leg only.
	engineMetrics []*metrics.AnalyzerMetrics
}

// newEngine builds one engine with the daemon's release hooks over pool,
// counted; tr, when set, interposes on the hooks and turns engine metrics on.
func (p *pipeline) newEngine(model *analyzer.Model, pool *synopsis.Pool, tr *tracer) *analyzer.Engine {
	release := func(s *synopsis.Synopsis) {
		pool.Put(s)
		p.window.released.Add(1)
	}
	releaseBatch := func(batch []*synopsis.Synopsis) {
		n := uint64(len(batch)) // PutN clears the batch
		pool.PutN(batch)
		p.window.released.Add(n)
	}
	opts := []analyzer.EngineOption{}
	if tr != nil {
		release, releaseBatch = tr.wrapRelease(release, releaseBatch)
		opts = append(opts, analyzer.WithEngineMetrics(p.traceEngine()))
	}
	opts = append(opts, analyzer.WithSynopsisRelease(release), analyzer.WithSynopsisReleaseBatch(releaseBatch))
	eng := analyzer.NewEngine(model, opts...)
	p.engines = append(p.engines, eng)
	return eng
}

// traceEngine returns the metrics bundle of the engine about to be built.
func (p *pipeline) traceEngine() *metrics.AnalyzerMetrics {
	m := metrics.NewAnalyzerMetrics(metrics.NewRegistry())
	p.engineMetrics = append(p.engineMetrics, m)
	return m
}

// listen starts a pooled v2 server delivering to sink.
func (p *pipeline) listen(ln net.Listener, sink batchSink, pool *synopsis.Pool, tr *tracer) {
	if tr != nil {
		sink = tr.wrapBatchSink(sink)
	}
	p.servers = append(p.servers, stream.NewServer(ln, sink,
		stream.WithServerProtocol(synopsis.ProtocolV2), stream.WithServerPool(pool)))
}

// clientOptions are the options of every link.
func (p *pipeline) clientOptions() []stream.ClientOption {
	p.clientMetrics = metrics.NewTCPClientMetrics(metrics.NewRegistry())
	return []stream.ClientOption{
		stream.WithProtocol(synopsis.ProtocolV2),
		stream.WithClientMetrics(p.clientMetrics),
	}
}

// servers is how many stream servers, each with a receive pool of its own,
// the workload's pipeline has.
func (s spec) servers() int {
	switch s.shape {
	case shapeEmbedded:
		return 0
	case shapeFleet:
		return 2
	}
	return 1
}

// build assembles the workload's pipeline. pools are the (warmed) receive
// pools, one per server. A nil tr builds the plain pipeline; on any error
// everything started is stopped.
func build(s spec, model *analyzer.Model, pools []*synopsis.Pool, tr *tracer) (p *pipeline, err error) {
	p = &pipeline{pools: pools}
	if len(pools) > 0 {
		p.window = &window{}
	}
	defer func() {
		if err != nil {
			_ = p.close()
			p = nil
		}
	}()
	switch s.shape {
	case shapeEmbedded:
		var eng *analyzer.Engine
		if tr != nil {
			// The release hook is the only seam behind Engine.Emit.
			release, _ := tr.wrapRelease(func(*synopsis.Synopsis) {}, nil)
			eng = analyzer.NewEngine(model, analyzer.WithSynopsisRelease(release),
				analyzer.WithEngineMetrics(p.traceEngine()))
		} else {
			eng = analyzer.NewEngine(model)
		}
		p.engines = append(p.engines, eng)
		p.sinks = []tracker.Sink{eng}

	case shapeWire:
		pool := pools[0]
		eng := p.newEngine(model, pool, tr)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return p, fmt.Errorf("listen: %w", err)
		}
		p.listen(ln, eng, pool, tr)
		opts := p.clientOptions()
		for g := 0; g < s.generators(); g++ {
			c, err := stream.Dial(ln.Addr().String(), flushEvery, opts...)
			if err != nil {
				return p, err
			}
			p.clients = append(p.clients, c)
			p.sinks = append(p.sinks, c)
		}

	case shapeFleet:
		infos := make([]federation.PeerInfo, len(pools))
		for i, pool := range pools {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return p, fmt.Errorf("listen: %w", err)
			}
			eng := p.newEngine(model, pool, tr)
			peer, err := federation.NewPeer(federation.PeerConfig{
				Self:    federation.PeerInfo{ID: fmt.Sprintf("peer-%d", i+1), Addr: ln.Addr().String()},
				Engine:  eng,
				Release: pool.Put,
			})
			if err != nil {
				_ = ln.Close()
				return p, err
			}
			p.peers = append(p.peers, peer)
			p.listen(ln, peer, pool, tr)
			infos[i] = peer.Self()
		}
		p.peers[0].Membership().AddPeer(infos[1])
		p.peers[1].Membership().AddPeer(infos[0])
		p.ring = stream.NewRingClient(federation.NewStaticRouter(infos, 0), flushEvery, p.clientOptions()...)
		p.sinks = []tracker.Sink{p.ring}
	}
	if tr != nil {
		for g := range p.sinks {
			p.sinks[g] = tr.wrapSink(g, p.sinks[g])
		}
	}
	return p, nil
}

// fed is how many synopses the engines accepted so far.
func (p *pipeline) fed() uint64 {
	var n uint64
	for _, e := range p.engines {
		n += e.Fed()
	}
	return n
}

// observed is how many synopses the engines' detectors have consumed, late
// ones included. Engine.Fed counts a batch before FeedBatch hands it to the
// shards; this count moves only afterwards. Reading it quiesces every shard,
// so it is for a pipeline that is nearly idle.
func (p *pipeline) observed() uint64 {
	var n uint64
	for _, e := range p.engines {
		for _, sh := range e.ShardStats() {
			n += sh.Fed
		}
	}
	return n
}

// errBarrier reports that a wait for the pipeline to catch up timed out.
var errBarrier = errors.New("barrier timed out")

// waitFor polls until cond holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errBarrier
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// barrier returns once everything offered has been observed: the links are
// flushed, the engines have accepted offered synopses, and the shards have
// fed every one of them to their detectors — Fed alone can run ahead of a
// batch the server's handler is still handing over. It returns the anomalies
// the engines buffered.
func (p *pipeline) barrier(offered uint64, timeout time.Duration) ([]analyzer.Anomaly, error) {
	for _, c := range p.clients {
		if err := c.Flush(); err != nil {
			return nil, fmt.Errorf("flush link: %w", err)
		}
	}
	// A RingClient has no Flush; its links' latency trigger delivers within
	// flushEvery.
	caughtUp := func() bool { return p.fed() == offered && p.observed() == offered }
	if err := waitFor(timeout, caughtUp); err != nil {
		return nil, fmt.Errorf("%w: engines fed %d and observed %d of %d offered synopses", err, p.fed(), p.observed(), offered)
	}
	var out []analyzer.Anomaly
	for _, e := range p.engines {
		out = append(out, e.Drain()...)
	}
	return out, nil
}

// totals are the pipeline's own counters at the end of a run.
type totals struct {
	fed, late, observed uint64
	windows             int
	// lost sums every counter that must stay zero: client drops and errors,
	// ring-client drops, admission sheds, and forwards of any kind.
	lost      uint64
	forwards  uint64
	parked    uint64
	frames    uint64 // batch frames written
	anomalies []analyzer.Anomaly
}

// finish closes every open window and reads the final counters. The
// pipeline must be quiet (barrier passed).
func (p *pipeline) finish() totals {
	var t totals
	for _, e := range p.engines {
		t.anomalies = append(t.anomalies, e.Flush()...)
		t.fed += e.Fed()
		t.late += e.LateSynopses()
		t.lost += e.Shed()
		for _, w := range e.WindowHistory() {
			t.observed += uint64(w.Tasks)
			t.windows++
		}
	}
	if m := p.clientMetrics; m != nil {
		t.lost += m.FramesDropped.Value() + m.Errors.Value()
		t.frames = m.BatchRecords.Count()
	}
	if p.ring != nil {
		t.lost += p.ring.Dropped()
	}
	for _, peer := range p.peers {
		st := peer.Status()
		t.forwards += st.Forwards
		t.parked += st.Parked
		t.lost += st.Forwards + st.ForwardsDropped
	}
	return t
}

// close stops every goroutine the pipeline started and waits for it:
// links first, then servers, peers and engines.
func (p *pipeline) close() error {
	var errs []error
	for _, c := range p.clients {
		errs = append(errs, c.Close())
	}
	if p.ring != nil {
		errs = append(errs, p.ring.Close())
	}
	for _, s := range p.servers {
		errs = append(errs, s.Close())
	}
	for _, peer := range p.peers {
		errs = append(errs, peer.Close())
	}
	for _, e := range p.engines {
		errs = append(errs, e.Close())
	}
	return errors.Join(errs...)
}
