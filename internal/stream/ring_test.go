package stream

import (
	"net"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// hostRouter routes by host id: host h goes to the h-th address.
type hostRouter []string

func (r hostRouter) Route(host uint16, _ logpoint.StageID) string { return r[host] }

func hostSyn(host uint16, task uint64) *synopsis.Synopsis {
	s := syn(task)
	s.Host = host
	return s
}

// TestRingClientRedialsRestartedPeer: a peer that dies and comes back on
// the same address is delivered to again. The direct-mode link latches its
// transport error; the ring client must evict it, count the records that
// met the gap, and redial.
func TestRingClientRedialsRestartedPeer(t *testing.T) {
	got := NewChannel(1 << 14)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	rc := NewRingClient(hostRouter{addr}, time.Millisecond)
	defer rc.Close()

	task := uint64(0)
	emit := func() {
		rc.Emit(hostSyn(0, task))
		task++
	}
	emit()
	waitUntil(t, 10*time.Second, "first record to be delivered", func() bool { return got.Emitted() == 1 })

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the gap to be counted", func() bool {
		emit()
		return rc.Dropped() > 0
	})

	if srv, err = Listen(addr, got); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := got.Emitted()
	waitUntil(t, 10*time.Second, "delivery to resume on the restarted peer", func() bool {
		emit()
		return got.Emitted() > before
	})
}

// TestRingClientDialDoesNotStallOtherPeers: while the dial to one peer
// hangs (the peer accepts but never acks the hello), emits to another peer
// go through.
func TestRingClientDialDoesNotStallOtherPeers(t *testing.T) {
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := stalled.Accept(); err == nil {
			accepted <- conn
		}
	}()

	got := NewChannel(64)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const dialTimeout = 4 * time.Second
	rc := NewRingClient(hostRouter{stalled.Addr().String(), srv.Addr()}, time.Millisecond, WithDialTimeout(dialTimeout))
	defer rc.Close()

	stalledEmit := make(chan struct{})
	go func() {
		defer close(stalledEmit)
		rc.Emit(hostSyn(0, 1))
	}()
	held := <-accepted // the dial to host 0 is now in flight, waiting for an ack

	start := time.Now()
	rc.Emit(hostSyn(1, 2))
	waitUntil(t, 10*time.Second, "the healthy peer's record", func() bool { return got.Emitted() == 1 })
	if d := time.Since(start); d > dialTimeout/2 {
		t.Fatalf("emit to the healthy peer took %v: it waited for the stalled dial", d)
	}

	_ = held.Close() // fail the stalled dial now rather than at its timeout
	<-stalledEmit
	if d := rc.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1 (the record whose dial failed)", d)
	}
}
