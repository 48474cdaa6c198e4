package stream

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/vtime"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSpillRingDropOldest(t *testing.T) {
	ring := newSpillRing(3, nil)
	evicted := 0
	for i := 1; i <= 5; i++ {
		evicted += ring.push(syn(uint64(i)))
	}
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	got := ring.popBatch(10)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Oldest-first order, with the two oldest (1, 2) evicted.
	for i, want := range []uint64{3, 4, 5} {
		if got[i].TaskID != want {
			t.Fatalf("got[%d].TaskID = %d, want %d", i, got[i].TaskID, want)
		}
	}
}

func TestSpillRingPushFrontReplayOrder(t *testing.T) {
	ring := newSpillRing(4, nil)
	ring.push(syn(3))
	ring.push(syn(4))
	// Replay a batch that was popped before 3 and 4 arrived.
	if evicted := ring.pushFront([]*synopsis.Synopsis{syn(1), syn(2)}); evicted != 0 {
		t.Fatalf("evicted = %d, want 0", evicted)
	}
	got := ring.popBatch(4)
	for i, want := range []uint64{1, 2, 3, 4} {
		if got[i].TaskID != want {
			t.Fatalf("got[%d].TaskID = %d, want %d", i, got[i].TaskID, want)
		}
	}
}

func TestSpillRingPushFrontOverflowDropsOldest(t *testing.T) {
	ring := newSpillRing(3, nil)
	ring.push(syn(4))
	ring.push(syn(5))
	// Only one slot left: replaying {1,2} must drop the oldest (1).
	if evicted := ring.pushFront([]*synopsis.Synopsis{syn(1), syn(2)}); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	got := ring.popBatch(3)
	for i, want := range []uint64{2, 4, 5} {
		if got[i].TaskID != want {
			t.Fatalf("got[%d].TaskID = %d, want %d", i, got[i].TaskID, want)
		}
	}
}

func TestReconnectConfigDefaults(t *testing.T) {
	rc := ReconnectConfig{}.withDefaults()
	if rc.InitialBackoff != 50*time.Millisecond || rc.MaxBackoff != 5*time.Second ||
		rc.Multiplier != 2 || rc.Jitter != 0.2 || rc.SpillCapacity != 8192 ||
		rc.BatchSize != 128 || rc.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", rc)
	}
	rc = ReconnectConfig{InitialBackoff: time.Minute, MaxBackoff: time.Second}.withDefaults()
	if rc.MaxBackoff != time.Minute {
		t.Fatalf("MaxBackoff = %v, want clamped to InitialBackoff", rc.MaxBackoff)
	}
}

func TestJitterBounds(t *testing.T) {
	rng := vtime.NewRNG(7)
	for i := 0; i < 1000; i++ {
		d := jitter(time.Second, 0.2, rng)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("jitter produced %v outside ±20%%", d)
		}
	}
	if d := jitter(time.Second, 0, rng); d != time.Second {
		t.Fatalf("zero jitter changed the delay: %v", d)
	}
}

// TestReconnectDialLaterDelivers: with reconnect enabled, Dial succeeds
// while the analyzer is still down; synopses spill and are replayed once a
// server appears.
func TestReconnectDialLaterDelivers(t *testing.T) {
	// Reserve an address that is down for now.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	cm := metrics.NewTCPClientMetrics(reg)
	cli, err := Dial(addr, 0,
		WithReconnect(ReconnectConfig{InitialBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}),
		WithClientMetrics(cm))
	if err != nil {
		t.Fatalf("reconnecting Dial failed against a down analyzer: %v", err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		cli.Emit(syn(uint64(i)))
	}

	got := NewChannel(1 << 12)
	srv, err := Listen(addr, got)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitUntil(t, 10*time.Second, "spilled synopses to be replayed", func() bool {
		return got.Emitted() >= n
	})
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if d := cm.FramesDropped.Value(); d != 0 {
		t.Fatalf("FramesDropped = %d, want 0", d)
	}
	if s := cm.FramesSent.Value(); s != n {
		t.Fatalf("FramesSent = %d, want %d", s, n)
	}
}

// TestReconnectSpillOverflowAccounting: with the analyzer down for good, a
// tiny spill ring drops the oldest synopses and every emit is accounted for
// as dropped by the time the client closes.
func TestReconnectSpillOverflowAccounting(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	cm := metrics.NewTCPClientMetrics(reg)
	cli, err := Dial(addr, 0,
		WithReconnect(ReconnectConfig{
			InitialBackoff: 20 * time.Millisecond,
			MaxBackoff:     100 * time.Millisecond,
			SpillCapacity:  8,
		}),
		WithClientMetrics(cm))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		cli.Emit(syn(uint64(i)))
	}
	if sp := cli.Spilled(); sp > 8 {
		t.Fatalf("Spilled = %d exceeds capacity 8", sp)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if d := cm.FramesDropped.Value(); d != n {
		t.Fatalf("FramesDropped = %d, want %d (every emit accounted)", d, n)
	}
	if s := cm.FramesSent.Value(); s != 0 {
		t.Fatalf("FramesSent = %d, want 0", s)
	}
}

// rawPeer is a bare socket that has completed the hello exchange, so what a
// test writes next lands in the server's receive loop. It carries the
// connection's frame encoder for the well-formed frames a test sends.
type rawPeer struct {
	net.Conn
	enc *synopsis.BatchEncoder
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(synopsis.AppendHello(nil, synopsis.ProtocolV2)); err != nil {
		t.Fatal(err)
	}
	if _, err := synopsis.ReadHelloAck(connByteReader{c: conn}); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	return &rawPeer{Conn: conn, enc: synopsis.NewBatchEncoder()}
}

// send writes the synopses as one well-formed batch.
func (p *rawPeer) send(t *testing.T, syns ...*synopsis.Synopsis) {
	t.Helper()
	if _, err := p.Write(p.enc.AppendFrames(nil, syns)); err != nil {
		t.Fatal(err)
	}
}

// rawFrame prefixes a frame body with its length.
func rawFrame(body ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// malformedFrame is one way a peer's stream can go wrong once the hello is
// done.
type malformedFrame struct {
	name    string
	payload []byte
	// valid is how many well-formed records precede the garbage and
	// must still be delivered.
	valid int
}

// malformedFrames is the table of corrupt and truncated frames the receive
// loop is driven through.
func malformedFrames() []malformedFrame {
	overLimit := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	const batchKind = 2 // the one live frame kind; 1 is retired
	// A connection's first frame, three good records, announcing a fourth
	// that is not there: the decoder fails with three records out and one in
	// hand. The count is the byte after the one-byte length and the kind.
	short := synopsis.NewBatchEncoder().AppendFrames(nil, []*synopsis.Synopsis{syn(1), syn(2), syn(3)})
	short[2] = 4
	return []malformedFrame{
		{name: "frame-length-over-limit", payload: overLimit},
		{name: "unterminated-length-varint", payload: bytes.Repeat([]byte{0x80}, 10)},
		{name: "truncated-body", payload: append(binary.AppendUvarint(nil, 100), batchKind, 1, 0, 0)},
		{name: "record-count-exceeds-body", payload: rawFrame(batchKind, 0xe8, 0x07)}, // 1000 records, no bytes
		{name: "retired-frame-kind-1", payload: rawFrame(1, 1, 0, 0, 0, 0)},
		{name: "stale-flow-ref", payload: rawFrame(batchKind, 1, 5<<2, 0, 0, 0)},
		{name: "record-missing-mid-frame", payload: short},
		{name: "garbage-after-valid-frame", payload: overLimit, valid: 1},
	}
}

// TestServerSurvivesMalformedFrames drives the receive loop through the
// table; after each entry the listener and a well-behaved connection must
// still work, and the protocol error must be counted.
func TestServerSurvivesMalformedFrames(t *testing.T) {
	for _, tc := range malformedFrames() {
		t.Run(tc.name, func(t *testing.T) {
			got := NewChannel(64)
			reg := metrics.NewRegistry()
			sm := metrics.NewTCPServerMetrics(reg)
			srv, err := Listen("127.0.0.1:0", got, WithServerMetrics(sm))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			peer := dialRaw(t, srv.Addr())
			for i := 0; i < tc.valid; i++ {
				peer.send(t, syn(uint64(i)))
			}
			if _, err := peer.Write(tc.payload); err != nil {
				t.Fatal(err)
			}
			// Close before waiting: a truncated body only turns into a
			// decode error once the stream ends.
			_ = peer.Close()
			waitUntil(t, 10*time.Second, "protocol error to be counted", func() bool {
				return sm.ConnErrors.Value() == 1
			})
			delivered := uint64(tc.valid)
			if fr := sm.FramesReceived.Value(); fr != delivered {
				t.Fatalf("FramesReceived = %d, want %d", fr, delivered)
			}

			// The listener must still serve a well-behaved client.
			cli, err := Dial(srv.Addr(), 0)
			if err != nil {
				t.Fatal(err)
			}
			cli.Emit(syn(42))
			if err := cli.Close(); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 10*time.Second, "well-behaved frame after garbage", func() bool {
				return got.Emitted() == delivered+1
			})
			// The gauge drops when the handler goroutine exits, which can
			// trail the sink's last Emit.
			waitUntil(t, 10*time.Second, "connection handlers to retire", func() bool {
				return sm.OpenConnections.Value() == 0
			})
			if ce := sm.ConnErrors.Value(); ce != 1 {
				t.Fatalf("ConnErrors = %d after the well-behaved client, want 1", ce)
			}
		})
	}
}

// TestServerResyncCounter: a second connection arriving after the first
// ended counts as a client resync.
func TestServerResyncCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	sm := metrics.NewTCPServerMetrics(reg)
	srv, err := Listen("127.0.0.1:0", nil, WithServerMetrics(sm))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 2; i++ {
		cli, err := Dial(srv.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cli.Emit(syn(uint64(i)))
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		// Wait for the server handler to fully retire the connection so
		// the next connection is a resync, not a concurrent stream.
		waitUntil(t, 10*time.Second, "connection handler to retire", func() bool {
			return sm.OpenConnections.Value() == 0 && sm.Connections.Value() == uint64(i+1)
		})
	}
	if r := sm.Resyncs.Value(); r != 1 {
		t.Fatalf("Resyncs = %d, want 1", r)
	}
}
