package stream

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/synopsis"
)

// interopSyn builds a deterministic untraced synopsis; untraced so a
// decoded copy must equal the original field-for-field (trace spans gain
// Send/Recv stamps in flight).
func interopSyn(i int) *synopsis.Synopsis {
	s := &synopsis.Synopsis{
		Stage:    logpoint.StageID(1 + i%5),
		Host:     uint16(i % 3),
		TaskID:   uint64(i),
		Start:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond),
		Duration: time.Duration(1+i%40) * time.Millisecond,
	}
	for p := 0; p <= i%4; p++ {
		s.Points = append(s.Points, synopsis.PointCount{Point: logpoint.ID(1 + p), Count: uint32(1 + i%7)})
	}
	s.Normalize()
	return s
}

// keyOf identifies a synopsis uniquely within an interop stream.
func keyOf(s *synopsis.Synopsis) uint64 { return s.TaskID }

// assertSameAsDirect compares every received synopsis byte-for-byte (module
// trace stamps, which the senders are built without) against what feeding
// the originals directly would have delivered.
func assertSameAsDirect(t *testing.T, got []*synopsis.Synopsis, want []*synopsis.Synopsis) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("received %d synopses, want %d", len(got), len(want))
	}
	byID := make(map[uint64]*synopsis.Synopsis, len(want))
	for _, s := range want {
		byID[keyOf(s)] = s
	}
	for _, g := range got {
		w := byID[keyOf(g)]
		if w == nil {
			t.Fatalf("received unknown task %d", g.TaskID)
		}
		if g.Stage != w.Stage || g.Host != w.Host || !g.Start.Equal(w.Start) || g.Duration != w.Duration {
			t.Fatalf("task %d header mismatch: got %+v want %+v", g.TaskID, g, w)
		}
		if len(g.Points) != len(w.Points) {
			t.Fatalf("task %d: %d points, want %d", g.TaskID, len(g.Points), len(w.Points))
		}
		for j := range w.Points {
			if g.Points[j] != w.Points[j] {
				t.Fatalf("task %d point %d: got %v want %v", g.TaskID, j, g.Points[j], w.Points[j])
			}
		}
	}
}

func drainN(t *testing.T, ch *Channel, n int) []*synopsis.Synopsis {
	t.Helper()
	out := make([]*synopsis.Synopsis, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case s := <-ch.C():
			out = append(out, s.Clone())
		case <-deadline:
			t.Fatalf("timed out with %d/%d synopses", len(out), n)
		}
	}
	return out
}

// TestHelloRequiredRefusesOlderPeers: a peer that opens with bare record
// framing (the retired v1 wire format), or with a hello offering only
// version 1, is hung up on without a byte written and counted; a current
// client on the same listener still delivers exactly what a direct feed
// would have.
func TestHelloRequiredRefusesOlderPeers(t *testing.T) {
	const n = 400
	got := NewChannel(2 * n)
	sm := metrics.NewTCPServerMetrics(metrics.NewRegistry())
	srv, err := Listen("127.0.0.1:0", got, WithServerMetrics(sm))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	refused := []struct {
		name    string
		opening []byte
	}{
		{"bare-record-framing", synopsis.AppendRecord(nil, interopSyn(1))},
		{"hello-offering-v1", synopsis.AppendHello(nil, 1)},
	}
	for i, tc := range refused {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.opening); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); n != 0 || err != io.EOF {
			t.Fatalf("%s: read %d bytes, err %v; want 0 bytes and io.EOF", tc.name, n, err)
		}
		_ = conn.Close()
		// The refusal is counted before the server hangs up.
		if ce := sm.ConnErrors.Value(); ce != uint64(i+1) {
			t.Fatalf("%s: ConnErrors = %d, want %d", tc.name, ce, i+1)
		}
	}
	if fr := sm.FramesReceived.Value(); fr != 0 {
		t.Fatalf("FramesReceived = %d from refused peers, want 0", fr)
	}

	want := make([]*synopsis.Synopsis, n)
	for i := range want {
		want[i] = interopSyn(i)
	}
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range want {
		cli.Emit(s)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameAsDirect(t, drainN(t, got, n), want)
	if ce := sm.ConnErrors.Value(); ce != uint64(len(refused)) {
		t.Fatalf("ConnErrors = %d after the current client, want %d", ce, len(refused))
	}
}

// TestDialFailsWithoutV2Ack: a server that hangs up on the hello, or acks a
// version other than 2, is a failed dial — the client never falls back to
// another framing.
func TestDialFailsWithoutV2Ack(t *testing.T) {
	for name, ack := range map[string][]byte{
		"hangs-up": nil,
		"acks-v1":  synopsis.AppendHelloAck(nil, 1),
	} {
		t.Run(name, func(t *testing.T) {
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
				_, _, _ = synopsis.PeekHello(bufio.NewReader(conn))
				_, _ = conn.Write(ack)
				_ = conn.Close()
			}()
			cm := metrics.NewTCPClientMetrics(metrics.NewRegistry())
			if cli, err := Dial(ln.Addr().String(), 0, WithClientMetrics(cm)); err == nil {
				_ = cli.Close()
				t.Fatal("Dial succeeded against a server that did not ack v2")
			}
			if d := cm.Dials.Value(); d != 0 {
				t.Fatalf("Dials = %d, want 0", d)
			}
		})
	}
}

// TestProtocolInteropReconnectReset is the interning-reset interop leg: a
// reconnecting v2 client keeps emitting while the server is killed and
// restarted mid-stream. The fresh connection must renegotiate and redefine
// every interned group (the server's table died with the old connection);
// every delivered record must still decode exactly as a direct feed.
func TestProtocolInteropReconnectReset(t *testing.T) {
	got := NewChannel(8192)
	sm := metrics.NewTCPServerMetrics(metrics.NewRegistry()) // the restarted server's
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	cli, err := Dial(addr, 0, WithReconnect(ReconnectConfig{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		SpillCapacity:  8192,
		BatchSize:      64,
	}))
	if err != nil {
		t.Fatal(err)
	}

	const n = 3000
	want := make([]*synopsis.Synopsis, n)
	for i := range want {
		want[i] = interopSyn(i)
	}
	for i, s := range want {
		cli.Emit(s)
		if i == n/3 {
			// Quiet point: let the pre-kill backlog drain so nothing is in
			// flight when the connection dies, then restart on the same
			// address. The reconnect lands on a server whose intern table is
			// empty — a stale ref would kill the connection (see
			// TestBatchDecoderRejectsStaleRef), so delivery continuing at all
			// proves the client reset its encoder table.
			waitUntil(t, 5*time.Second, "pre-kill backlog to drain", func() bool { return got.Len() >= i+1 })
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// Let the client's death probe observe the FIN so no batch is
			// written into the dead socket (the chaos suite covers lossy
			// mid-flight kills; this test pins decode exactness).
			time.Sleep(50 * time.Millisecond)
			if srv, err = Listen(addr, got, WithServerMetrics(sm)); err != nil {
				t.Fatal(err)
			}
		}
		if i%100 == 99 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	received := drainN(t, got, n)
	assertSameAsDirect(t, received, want)
	if c := sm.Connections.Value(); c == 0 {
		t.Fatal("restarted server accepted no connection, want a renegotiated one")
	}
}
