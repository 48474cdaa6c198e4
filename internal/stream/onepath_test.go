package stream

// Tests of the one delivery path: a WithReconnect client batches, flushes
// and orders exactly as a plain one and differs only in what a failed write
// means; the server hands a frame on whole or not at all, whatever the sink.

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saad/internal/faults"
	"saad/internal/metrics"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// dialReconnecting dials addr WithReconnect and waits for the first link.
func dialReconnecting(t *testing.T, addr string, flushEvery time.Duration, cm *metrics.TCPClientMetrics) *Client {
	t.Helper()
	cli, err := Dial(addr, flushEvery,
		WithReconnect(ReconnectConfig{InitialBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}),
		WithClientMetrics(cm))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the first link", func() bool { return cli.Err() == nil })
	return cli
}

// frameSizes is a BatchSink that reports the size of each frame it is handed.
type frameSizes func(records int64)

func (frameSizes) Emit(*synopsis.Synopsis) { panic("a BatchSink is fed by the frame") }

func (f frameSizes) EmitBatch(batch []*synopsis.Synopsis) { f(int64(len(batch))) }

// TestReconnectingClientSharesTheBatchPath: connected, a WithReconnect
// client frames a burst off the same adaptive target as a plain one, and its
// steady state allocates nothing per frame.
func TestReconnectingClientSharesTheBatchPath(t *testing.T) {
	t.Run("adaptive frames", func(t *testing.T) {
		var records, largest atomic.Int64
		srv, err := Listen("127.0.0.1:0", frameSizes(func(n int64) {
			records.Add(n)
			if n > largest.Load() {
				largest.Store(n) // one connection, so one caller
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cm := metrics.NewTCPClientMetrics(metrics.NewRegistry())
		cli := dialReconnecting(t, srv.Addr(), 0, cm)

		const n = 20000
		for i := uint64(0); i < n; i++ {
			cli.Emit(syn(i))
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		if sent := cm.FramesSent.Value(); sent != n {
			t.Fatalf("FramesSent = %d, want %d", sent, n)
		}
		// The target doubles from 16 to 2,048 in 8 frames; a burst that
		// rode it the whole way needs 19 frames, not one per record.
		if frames := cm.BatchRecords.Count(); frames > n/20 {
			t.Fatalf("%d records left in %d frames: the burst did not ride the adaptive batch", n, frames)
		}
		waitUntil(t, 10*time.Second, "the burst to arrive", func() bool { return records.Load() == n })
		if l := largest.Load(); l > maxDirectBatch {
			t.Fatalf("a frame carried %d records, above the adaptive cap of %d", l, maxDirectBatch)
		}
	})

	t.Run("steady state allocates nothing", func(t *testing.T) {
		if raceflag.Enabled {
			t.Skip("allocation counts are exact only without the race detector")
		}
		// A peer that acks the hello and then only discards bytes.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if _, ok, err := synopsis.PeekHello(br); err != nil || !ok {
				return
			}
			if _, err := conn.Write(synopsis.AppendHelloAck(nil, synopsis.ProtocolV2)); err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, br)
		}()
		cli := dialReconnecting(t, ln.Addr().String(), 0, nil)
		defer cli.Close()

		batch := make([]*synopsis.Synopsis, maxDirectBatch)
		for i := range batch {
			batch[i] = syn(uint64(i))
		}
		burst := func() {
			for _, s := range batch {
				cli.Emit(s)
			}
			if err := cli.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // grow the target, the pending slice and the frame scratch
			burst()
		}
		if got := testing.AllocsPerRun(50, burst); got >= 1 {
			t.Fatalf("%d emits and a flush allocate %v times on a connected WithReconnect client, want < 1", len(batch), got)
		}
	})
}

// TestReconnectFlushIsABarrier: on a connected WithReconnect client, Flush
// returning nil means everything emitted so far has been written — with a
// tick that never fires, nothing but Flush could have written it.
func TestReconnectFlushIsABarrier(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cm := metrics.NewTCPClientMetrics(metrics.NewRegistry())
	cli := dialReconnecting(t, srv.Addr(), time.Hour, cm)
	defer cli.Close()

	const n = initialDirectBatch / 2 // below the size trigger
	for i := uint64(0); i < n; i++ {
		cli.Emit(syn(i))
	}
	if sent := cm.FramesSent.Value(); sent != 0 {
		t.Fatalf("FramesSent = %d before Flush, want 0 (no trigger has fired)", sent)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	if sent := cm.FramesSent.Value(); sent != n {
		t.Fatalf("FramesSent = %d when Flush returned nil, want %d", sent, n)
	}
}

// TestReconnectOrderAcrossOutage: the server dies with a batch pending and
// comes back on the same address while the emitter keeps going. The batch
// that was pending at the break becomes the head of the spill ring, what was
// emitted during the outage queues behind it, and the new link is installed
// only once all of it has been replayed — so everything arrives, once, in
// emit order.
func TestReconnectOrderAcrossOutage(t *testing.T) {
	got := NewChannel(1 << 12)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cm := metrics.NewTCPClientMetrics(metrics.NewRegistry())
	// No tick: the batch stays pending until the size trigger.
	cli := dialReconnecting(t, addr, time.Hour, cm)

	next := uint64(0)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			cli.Emit(syn(next))
			next++
		}
	}
	const pendingAtBreak = initialDirectBatch / 2
	emit(pendingAtBreak)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing may be written into the dead socket: wait for the death probe
	// to have closed the connection (setting a deadline on it then fails).
	waitUntil(t, 10*time.Second, "the death probe to close the link", func() bool {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return cli.link.conn.SetWriteDeadline(time.Time{}) != nil
	})
	emit(300) // the size trigger's write fails; the rest spills behind it
	if sp := cli.Spilled(); sp != int(next) {
		t.Fatalf("Spilled = %d during the outage, want all %d emitted", sp, next)
	}
	if srv, err = Listen(addr, got); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	emit(300) // racing the redial and the replay
	waitUntil(t, 10*time.Second, "the link to come back", func() bool { return cli.Err() == nil })
	emit(300)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "everything to arrive", func() bool { return got.Emitted() >= next })

	arrived := got.Drain()
	if uint64(len(arrived)) != next {
		t.Fatalf("%d records arrived, want %d", len(arrived), next)
	}
	for i, s := range arrived {
		if s.TaskID != uint64(i) {
			t.Fatalf("arrival %d is record %d: the outage reordered or duplicated records", i, s.TaskID)
		}
	}
	if d := cm.FramesDropped.Value(); d != 0 {
		t.Fatalf("FramesDropped = %d, want 0", d)
	}
	if r := cm.Reconnects.Value(); r != 1 {
		t.Fatalf("Reconnects = %d, want 1", r)
	}
}

// TestReconnectInvariantRingImpliesDown: four emitters against a transport
// severed again and again. Whenever the spill ring holds anything there is
// no link (so nothing can overtake a spilled record), and once closed the
// client has accounted for every emit as sent or dropped.
func TestReconnectInvariantRingImpliesDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faults.NewFlakyListener(ln, faults.NetFaultConfig{Seed: 3})
	srv := NewServer(fl, nil)
	defer srv.Close()
	cm := metrics.NewTCPClientMetrics(metrics.NewRegistry())
	cli, err := Dial(ln.Addr().String(), 0,
		WithReconnect(ReconnectConfig{
			InitialBackoff: time.Millisecond,
			MaxBackoff:     5 * time.Millisecond,
			SpillCapacity:  512, // small enough to overflow during an outage
			BatchSize:      16,
		}),
		WithClientMetrics(cm))
	if err != nil {
		t.Fatal(err)
	}

	var emitted atomic.Uint64
	var violations atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for e := 0; e < 4; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cli.Emit(syn(emitted.Add(1)))
				runtime.Gosched()
			}
		}()
	}
	wg.Add(1)
	go func() { // the sampler
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cli.mu.Lock()
			if cli.ring.len() > 0 && cli.link != nil {
				violations.Add(1)
			}
			cli.mu.Unlock()
			runtime.Gosched()
		}
	}()

	// Sever the stream each time it has healed and carried traffic again.
	for kill := uint64(0); kill < 5; kill++ {
		sent := cm.FramesSent.Value()
		waitUntil(t, 20*time.Second, "traffic on a healed link", func() bool {
			return cm.Reconnects.Value() >= kill && cli.Err() == nil && cm.FramesSent.Value() > sent+100
		})
		fl.KillAll()
	}
	close(stop)
	wg.Wait()
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("the spill ring was non-empty with a link installed in %d samples", v)
	}
	sent, dropped := cm.FramesSent.Value(), cm.FramesDropped.Value()
	if sent+dropped != emitted.Load() {
		t.Fatalf("FramesSent %d + FramesDropped %d != %d emitted", sent, dropped, emitted.Load())
	}
	if cm.Reconnects.Value() == 0 {
		t.Fatal("Reconnects = 0: the kills never severed the stream")
	}
}

// TestServerDeliversFramesWhole drives the malformed-frame table through
// every kind of sink NewServer resolves — per-record, BatchSink, nil. Each
// sees exactly the records of the whole frames (none of a frame cut
// mid-way), FramesReceived counts the same, and the 64-record receive pool
// still hands out only the records it was stocked with.
func TestServerDeliversFramesWhole(t *testing.T) {
	const stock = 64
	for _, kind := range []string{"per-record", "batch", "nil"} {
		t.Run(kind, func(t *testing.T) {
			pool := synopsis.NewPool(stock)
			own := make(map[*synopsis.Synopsis]bool, stock)
			recs := make([]*synopsis.Synopsis, stock)
			for i := range recs {
				recs[i] = &synopsis.Synopsis{}
				own[recs[i]] = true
			}
			pool.PutN(recs)

			recycler := &recyclingSink{pool: pool}
			var sink tracker.Sink
			switch kind {
			case "per-record":
				sink = tracker.SinkFunc(recycler.Emit)
			case "batch":
				sink = recycler
			}
			sm := metrics.NewTCPServerMetrics(metrics.NewRegistry())
			srv, err := Listen("127.0.0.1:0", sink, WithServerPool(pool), WithServerMetrics(sm))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			valid := 0
			for i, tc := range malformedFrames() {
				peer := dialRaw(t, srv.Addr())
				for j := 0; j < tc.valid; j++ {
					peer.send(t, syn(uint64(j)))
				}
				valid += tc.valid
				if _, err := peer.Write(tc.payload); err != nil {
					t.Fatal(err)
				}
				_ = peer.Close()
				// One connection at a time: a cut frame's records go back
				// only as its handler retires, and a second connection's
				// frame could draw on the stock meanwhile.
				waitUntil(t, 10*time.Second, "the cut connection's handler to retire", func() bool {
					srv.mu.Lock()
					defer srv.mu.Unlock()
					return srv.ended == uint64(i+1)
				})
			}
			if fr := sm.FramesReceived.Value(); fr != uint64(valid) {
				t.Fatalf("FramesReceived = %d, want %d", fr, valid)
			}
			if n := recycler.n.Load(); sink != nil && n != int64(valid) {
				t.Fatalf("the sink saw %d records, want %d", n, valid)
			}
			pool.GetN(recs)
			for i, s := range recs {
				if !own[s] {
					t.Fatalf("record %d of %d out of the pool is fresh: the server kept one of the pool's", i, stock)
				}
				delete(own, s)
			}
		})
	}
}

// failingListener fails every Accept at once with an error that is not
// net.ErrClosed, as a process out of file descriptors would.
type failingListener struct{ net.Listener }

func (failingListener) Accept() (net.Conn, error) {
	return nil, errors.New("accept: too many open files")
}

// TestServerCloseCutsAcceptBackoffShort: Close landing while the accept loop
// backs off must not wait the back-off out. Nine failures take the retry
// delay from 5 ms to its 1 s cap, so the loop is then asleep for a second.
func TestServerCloseCutsAcceptBackoffShort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sm := metrics.NewTCPServerMetrics(metrics.NewRegistry())
	srv := NewServer(failingListener{ln}, nil, WithServerMetrics(sm))
	waitUntil(t, 10*time.Second, "the accept back-off to reach its cap", func() bool {
		return sm.AcceptErrors.Value() >= 9
	})
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with the accept loop backing off, want < 100ms", took)
	}
}
