package stream_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"saad/internal/federation"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// captureWire listens on a loopback port, acks the hello of the one
// connection it accepts and delivers every byte that follows it, once the
// peer has closed.
func captureWire(t *testing.T) (addr string, wire <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan []byte, 1)
	go func() {
		defer close(out)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, ok, err := synopsis.PeekHello(br); !ok || err != nil {
			t.Errorf("hello: ok=%v err=%v", ok, err)
			return
		}
		if _, err := conn.Write(synopsis.AppendHelloAck(nil, synopsis.ProtocolV2)); err != nil {
			t.Error(err)
			return
		}
		b, err := io.ReadAll(br)
		if err != nil {
			t.Error(err)
		}
		out <- b
	}()
	return ln.Addr().String(), out
}

// TestRingClientAddsNoWireBytes: routing costs nothing on the wire and
// leaves the caller's records alone. The same batch through a RingClient
// over a one-peer ring and through a plain Client puts byte-identical
// frames on the wire, and the records read afterwards as they did before.
func TestRingClientAddsNoWireBytes(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var batch, before []*synopsis.Synopsis
	for i := 0; i < 300; i++ { // past the first size-triggered flush: several frames
		s := &synopsis.Synopsis{
			Stage:    2,
			Host:     uint16(1 + i%3),
			TaskID:   uint64(100 + i),
			Start:    start.Add(time.Duration(i) * time.Millisecond),
			Duration: time.Duration(1+i%5) * time.Millisecond,
			Points:   []synopsis.PointCount{{Point: 1, Count: 1}, {Point: 4, Count: uint32(1 + i%2)}},
		}
		batch = append(batch, s)
		before = append(before, s.Clone())
	}
	// No background flusher on either side: frames are cut by the size
	// trigger and Close alone, so the two runs batch identically.
	send := func(dial func(addr string) (tracker.Sink, io.Closer)) []byte {
		t.Helper()
		addr, wire := captureWire(t)
		sink, closer := dial(addr)
		for _, s := range batch {
			sink.Emit(s)
		}
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
		return <-wire
	}
	plain := send(func(addr string) (tracker.Sink, io.Closer) {
		c, err := stream.Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c, c
	})
	routed := send(func(addr string) (tracker.Sink, io.Closer) {
		router := federation.NewStaticRouter([]federation.PeerInfo{{ID: "only", Addr: addr}}, 0)
		rc := stream.NewRingClient(router, 0)
		return rc, rc
	})
	if len(plain) == 0 {
		t.Fatal("the plain client put nothing on the wire")
	}
	if !bytes.Equal(routed, plain) {
		t.Fatalf("RingClient wrote %d bytes, a plain Client %d: routing changed the wire", len(routed), len(plain))
	}
	if !reflect.DeepEqual(batch, before) {
		t.Fatal("emitting changed the caller's records")
	}
}
