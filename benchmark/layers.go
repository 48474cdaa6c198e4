package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"saad/internal/analyzer"
	"saad/internal/federation"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// Isolated legs: each layer's public functions alone, on the same recorded
// lap, timed from outside. A leg runs passes times and reports the cheapest
// pass per record — the least disturbed estimate — with the spread of the
// passes beside it.
//
// Legs that stay on one goroutine report wall time. Legs that cannot (an
// engine's shard workers, a socket's reader) report the process's CPU time
// instead, so the ledger adds cores spent, not time waited.

// cost is what one record cost in one leg.
type cost struct {
	ns     float64 // wall, or process CPU for multi-goroutine legs
	allocs float64
	bytes  float64
	spread float64 // of ns over the passes
}

// batchRecords is the batch the engine and peer legs feed, a typical frame.
const batchRecords = 512

// isolate measures fn, which processes records records per call.
func isolate(passes, records int, useCPU bool, fn func()) cost {
	ns := make([]float64, 0, passes)
	allocs := make([]float64, 0, passes)
	bytes := make([]float64, 0, passes)
	for i := 0; i < passes; i++ {
		before := snapshot()
		fn()
		after := snapshot()
		d := after.at.Sub(before.at)
		if useCPU {
			d = after.cpu - before.cpu
		}
		ns = append(ns, float64(d)/float64(records))
		allocs = append(allocs, float64(after.mallocs-before.mallocs)/float64(records))
		bytes = append(bytes, float64(after.bytes-before.bytes)/float64(records))
	}
	return cost{ns: slices.Min(ns), allocs: slices.Min(allocs), bytes: slices.Min(bytes), spread: spread(ns)}
}

// materialize returns lap 0 as the synopses the trackers would emit.
func materialize(l *lap) []*synopsis.Synopsis {
	out := make([]*synopsis.Synopsis, 0, len(l.recs))
	l.shifted(1, func(s *synopsis.Synopsis) {
		c := *s
		out = append(out, &c)
	})
	return out
}

// batches cuts syns into batchRecords-sized batches.
func batches(syns []*synopsis.Synopsis) [][]*synopsis.Synopsis {
	var out [][]*synopsis.Synopsis
	for len(syns) > 0 {
		n := min(batchRecords, len(syns))
		out = append(out, syns[:n:n])
		syns = syns[n:]
	}
	return out
}

// discardServer speaks just enough of protocol v2 to take a client's
// stream and throw it away: it acknowledges the hello and reads to EOF.
type discardServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func newDiscardServer() (*discardServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &discardServer{ln: ln}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				defer conn.Close()
				br := bufio.NewReaderSize(conn, 64<<10)
				if _, isHello, err := synopsis.PeekHello(br); err != nil || !isHello {
					return
				}
				var ack [16]byte
				if _, err := conn.Write(synopsis.AppendHelloAck(ack[:0], synopsis.ProtocolV2)); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, br) // the stream's content is not this leg's business
			}()
		}
	}()
	return d, nil
}

func (d *discardServer) addr() string { return d.ln.Addr().String() }

// close stops accepting and waits for every connection to reach EOF; call
// it after the clients have closed.
func (d *discardServer) close() {
	_ = d.ln.Close() // unblocks Accept; nothing to report
	d.wg.Wait()
}

// countingSink is the server leg's sink: it counts and recycles.
type countingSink struct {
	pool *synopsis.Pool
	n    atomic.Int64
}

func (c *countingSink) Emit(s *synopsis.Synopsis) {
	c.pool.Put(s)
	c.n.Add(1)
}

func (c *countingSink) EmitBatch(batch []*synopsis.Synopsis) {
	n := int64(len(batch))
	c.pool.PutN(batch)
	c.n.Add(n)
}

// trackerCost is the tracker alone: Begin/Hit/End over l into a sink that
// does nothing.
func trackerCost(l *lap, passes int) cost {
	g := newGenerator(l.recs, l.span, tracker.SinkFunc(func(*synopsis.Synopsis) {}))
	lapIdx := 0
	return isolate(passes, len(l.recs), false, func() {
		g.replay(lapIdx, lapIdx+1, 0)
		lapIdx++
	})
}

// encodeLap is syns as one link would send them: protocol v2 batch frames
// of batchRecords records, the header table starting empty.
func encodeLap(syns []*synopsis.Synopsis) []byte {
	enc := synopsis.NewBatchEncoder()
	var wire []byte
	for _, b := range batches(syns) {
		wire = enc.AppendFrames(wire, b)
	}
	return wire
}

// layerInputs is what the isolated legs run on.
type layerInputs struct {
	model   *analyzer.Model
	clean   *lap // fault-free
	faulted *lap
	// recordsPerFrame is the mean batch frame the workload's links wrote (0
	// when the workload has no wire: the size-triggered maximum is used).
	recordsPerFrame float64
	passes          int
	timeout         time.Duration
}

// layers runs every isolated leg and returns the metrics by name.
func layers(in layerInputs, add reporter) error {
	syns := materialize(in.clean)
	n := len(syns)
	note := func(c cost) string { return fmt.Sprintf("min of %d passes, spread %.1f%%", in.passes, 100*c.spread) }
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	{
		c := trackerCost(in.clean, in.passes)
		add("tracker.task_ns", c.ns, "ns", note(c))
		add("tracker.allocs", c.allocs, "count", "per task")
		add("tracker.alloc_bytes", c.bytes, "B", "per task")
	}

	// synopsis: the batch codec and the receive pool.
	wire := encodeLap(syns)
	{
		var enc *synopsis.BatchEncoder
		bs := batches(syns)
		var frame []byte
		c := isolate(in.passes, n, false, func() {
			enc = synopsis.NewBatchEncoder()
			for _, b := range bs {
				frame = enc.AppendFrames(frame[:0], b)
			}
		})
		add("synopsis.encode_ns", c.ns, "ns", note(c))
		add("synopsis.encode_allocs", c.allocs, "count", "per record")
		add("synopsis.interned_share", float64(enc.InternedRefs())/float64(n), "ratio", "record headers sent as one-uvarint references")
		add("synopsis.wire_bytes", float64(len(wire))/float64(n), "B", "per record in 512-record frames, framing included")
	}
	{
		recs := make([]synopsis.Synopsis, 256)
		for i := range recs {
			recs[i].Points = make([]synopsis.PointCount, 0, 16)
		}
		c := isolate(in.passes, n, false, func() {
			dec := synopsis.NewBatchDecoder(bufio.NewReaderSize(bytes.NewReader(wire), 64<<10))
			for i := 0; i < n; i++ {
				if err := dec.Decode(&recs[i%len(recs)]); err != nil {
					fail(fmt.Errorf("decode leg: %w", err))
					return
				}
			}
		})
		add("synopsis.decode_ns", c.ns, "ns", note(c))
		add("synopsis.decode_allocs", c.allocs, "count", "per record")
	}
	{
		pool := newWarmPool()
		churn := func(records int) {
			chunk := make([]*synopsis.Synopsis, 256)
			for i := 0; i < records; i += len(chunk) {
				pool.GetN(chunk)
				pool.PutN(chunk)
			}
		}
		c := isolate(in.passes, n, false, func() { churn(n) })
		add("synopsis.pool_ns", c.ns, "ns", note(c))
		g := maxGenerators()
		c = isolate(in.passes, n, false, func() {
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					churn(n / g)
				}()
			}
			wg.Wait()
		})
		add("synopsis.pool_contended_ns", c.ns, "ns", fmt.Sprintf("%d goroutines, wall; %s", g, note(c)))
	}

	// stream: the client's emit path, the socket, and the server's receive
	// path, each against a counterpart that does nothing else.
	{
		c := isolate(in.passes, n, true, func() {
			srv, err := newDiscardServer()
			if err != nil {
				fail(err)
				return
			}
			cli, err := stream.Dial(srv.addr(), flushEvery, stream.WithProtocol(synopsis.ProtocolV2))
			if err == nil {
				for _, s := range syns {
					cli.Emit(s)
				}
				err = cli.Close()
			}
			srv.close()
			fail(err)
		})
		add("stream.client_emit_ns", c.ns, "ns", "process CPU, discard server's reads included; "+note(c))
	}
	{
		perFrame := in.recordsPerFrame
		if perFrame < 1 {
			perFrame = 2048
		}
		frame := make([]byte, int(perFrame*float64(len(wire))/float64(n)))
		frames := int(float64(n) / perFrame)
		if frames < 1 {
			frames = 1
		}
		c := isolate(in.passes, int(float64(frames)*perFrame), true, func() {
			fail(socketLeg(frame, frames))
		})
		add("stream.socket_ns", c.ns, "ns", fmt.Sprintf("process CPU of loopback write+read in %d-byte frames; %s", len(frame), note(c)))
	}
	{
		c := isolate(in.passes, n, true, func() { fail(serverLeg(wire, n, in.timeout)) })
		add("stream.server_ns", c.ns, "ns", "process CPU, pre-encoded frames into a Server with a counting sink; "+note(c))
	}
	{
		for _, s := range syns {
			s.RingEpoch = 0
		}
		c := isolate(in.passes, n, true, func() {
			var infos []federation.PeerInfo
			var servers []*discardServer
			for i := 0; i < 2; i++ {
				srv, err := newDiscardServer()
				if err != nil {
					fail(err)
					break
				}
				servers = append(servers, srv)
				infos = append(infos, federation.PeerInfo{ID: fmt.Sprintf("peer-%d", i+1), Addr: srv.addr()})
			}
			if len(servers) == 2 {
				rc := stream.NewRingClient(federation.NewStaticRouter(infos, 0), flushEvery, stream.WithProtocol(synopsis.ProtocolV2))
				for _, s := range syns {
					rc.Emit(s)
				}
				fail(rc.Close())
				if rc.Dropped() != 0 {
					fail(fmt.Errorf("ring client leg dropped %d synopses", rc.Dropped()))
				}
			}
			for _, srv := range servers {
				srv.close()
			}
		})
		add("stream.ringclient_emit_ns", c.ns, "ns", "process CPU, two discard servers; "+note(c))
		for _, s := range syns {
			s.RingEpoch = 0
		}
	}

	// analyzer: the engine's two entry points and the bare detector.
	{
		c := isolate(in.passes, n, true, func() {
			eng := analyzer.NewEngine(in.model)
			for _, s := range syns {
				eng.Feed(s)
			}
			eng.Drain()
			fail(eng.Close())
		})
		add("analyzer.feed_ns", c.ns, "ns", "process CPU of Engine.Feed through detection; "+note(c))
	}
	{
		bs := batches(syns)
		c := isolate(in.passes, n, true, func() {
			eng := analyzer.NewEngine(in.model)
			for _, b := range bs {
				eng.FeedBatch(b)
			}
			eng.Drain()
			fail(eng.Close())
		})
		add("analyzer.route_ns", c.ns, "ns", "process CPU of Engine.FeedBatch through detection; "+note(c))
		add("analyzer.route_allocs", c.allocs, "count", "per record")
	}
	detect := func(l *lap) cost {
		ss := materialize(l)
		return isolate(in.passes, len(ss), false, func() {
			det := analyzer.NewDetector(in.model)
			for _, s := range ss {
				det.Feed(s)
			}
		})
	}
	{
		c := detect(in.clean)
		add("analyzer.detect_ns", c.ns, "ns", note(c))
		add("analyzer.detect_allocs", c.allocs, "count", "per record")
		c = detect(in.faulted)
		add("analyzer.detect_faulted_ns", c.ns, "ns", note(c))
	}

	// federation: ring lookups and a peer that owns every group.
	{
		router := federation.NewStaticRouter([]federation.PeerInfo{{ID: "peer-1", Addr: "a"}, {ID: "peer-2", Addr: "b"}}, 0)
		c := isolate(in.passes, n, false, func() {
			for _, s := range syns {
				router.Route(s.Host, s.Stage)
			}
		})
		add("federation.route_ns", c.ns, "ns", note(c))
		ring := router.Ring()
		c = isolate(in.passes, n, false, func() {
			for _, s := range syns {
				ring.Owner(s.Host, s.Stage)
			}
		})
		add("federation.owner_ns", c.ns, "ns", note(c))
	}
	peerLeg := func(feed func(*federation.Peer)) cost {
		return isolate(in.passes, n, true, func() {
			eng := analyzer.NewEngine(in.model)
			peer, err := federation.NewPeer(federation.PeerConfig{Self: federation.PeerInfo{ID: "peer-1"}, Engine: eng})
			if err != nil {
				fail(err)
				fail(eng.Close())
				return
			}
			feed(peer)
			eng.Drain()
			if st := peer.Status(); st.Forwards+st.ForwardsDropped != 0 {
				fail(fmt.Errorf("sole peer forwarded %d synopses", st.Forwards+st.ForwardsDropped))
			}
			fail(peer.Close())
			fail(eng.Close())
		})
	}
	{
		c := peerLeg(func(p *federation.Peer) {
			for _, s := range syns {
				p.Emit(s)
			}
		})
		add("federation.peer_emit_ns", c.ns, "ns", "process CPU of Peer.Emit through detection; "+note(c))
		bs := batches(syns)
		c = peerLeg(func(p *federation.Peer) {
			for _, b := range bs {
				p.EmitBatch(b)
			}
		})
		add("federation.peer_batch_ns", c.ns, "ns", "process CPU of Peer.EmitBatch through detection; "+note(c))
	}
	return firstErr
}

// socketLeg writes frames copies of frame over a loopback connection while
// a reader drains it, and returns once every byte has been read.
func socketLeg(frame []byte, frames int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	read := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			read <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10) // the server's bufio size
		var got int
		for got < len(frame)*frames {
			n, err := conn.Read(buf)
			got += n
			if err != nil {
				read <- fmt.Errorf("socket leg read %d of %d bytes: %w", got, len(frame)*frames, err)
				return
			}
		}
		read <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close() // fails the reader's Accept
		<-read
		return fmt.Errorf("dial: %w", err)
	}
	var werr error
	for i := 0; i < frames && werr == nil; i++ {
		_, werr = conn.Write(frame)
	}
	if werr != nil {
		_ = conn.Close() // fails the reader's Read
		<-read
		return fmt.Errorf("socket leg write: %w", werr)
	}
	rerr := <-read
	if err := conn.Close(); err != nil && rerr == nil {
		rerr = err
	}
	return rerr
}

// serverLeg pushes the pre-encoded stream into a real stream.Server whose
// sink only counts, and returns once all records have been delivered.
func serverLeg(wire []byte, records int, timeout time.Duration) error {
	pool := newWarmPool()
	sink := &countingSink{pool: pool}
	srv, err := stream.Listen("127.0.0.1:0", sink,
		stream.WithServerProtocol(synopsis.ProtocolV2), stream.WithServerPool(pool))
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	var hello [16]byte
	if _, err := conn.Write(synopsis.AppendHello(hello[:0], synopsis.ProtocolV2)); err != nil {
		return fmt.Errorf("server leg hello: %w", err)
	}
	if _, err := synopsis.ReadHelloAck(bufio.NewReader(conn)); err != nil {
		return fmt.Errorf("server leg hello ack: %w", err)
	}
	if _, err := conn.Write(wire); err != nil {
		return fmt.Errorf("server leg write: %w", err)
	}
	if err := waitFor(timeout, func() bool { return sink.n.Load() == int64(records) }); err != nil {
		return fmt.Errorf("server leg delivered %d of %d records: %w", sink.n.Load(), records, err)
	}
	return nil
}
