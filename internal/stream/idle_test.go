package stream

import (
	"net"
	"testing"
	"time"

	"saad/internal/faults"
	"saad/internal/metrics"
)

// TestServerReadIdleTimeoutReapsSilentConns: a connection that stops
// delivering frames is reaped after the idle budget and counted; a
// connection with steady traffic keeps refreshing its deadline and
// survives many multiples of the budget.
func TestServerReadIdleTimeoutReapsSilentConns(t *testing.T) {
	got := NewChannel(1 << 10)
	reg := metrics.NewRegistry()
	sm := metrics.NewTCPServerMetrics(reg)
	srv, err := Listen("127.0.0.1:0", got,
		WithServerMetrics(sm), WithReadIdleTimeout(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	active := dialRaw(t, srv.Addr())
	defer active.Close()
	silent := dialRaw(t, srv.Addr())
	defer silent.Close()

	silent.send(t, syn(1))

	// The active connection sends a frame every 20 ms: each frame boundary
	// refreshes the deadline, so 15 frames outlive the 60 ms budget five
	// times over.
	const activeFrames = 15
	for i := 0; i < activeFrames; i++ {
		active.send(t, syn(uint64(100+i)))
		time.Sleep(20 * time.Millisecond)
	}

	waitUntil(t, 5*time.Second, "silent connection to be reaped", func() bool {
		return sm.IdleReaps.Value() >= 1
	})
	if r := sm.IdleReaps.Value(); r != 1 {
		t.Fatalf("IdleReaps = %d, want 1 (active connection must survive)", r)
	}
	waitUntil(t, 5*time.Second, "reaped connection to close", func() bool {
		return sm.OpenConnections.Value() == 1
	})
	waitUntil(t, 5*time.Second, "all frames to be decoded", func() bool {
		return got.Emitted() >= activeFrames+1
	})

	// The reaped peer observes the close; the active one can still send.
	_ = silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection still open after reap")
	}
	active.send(t, syn(999))
	waitUntil(t, 5*time.Second, "post-reap frame to arrive", func() bool {
		return got.Emitted() >= activeFrames+2
	})
}

// TestChaosRepeatedAsymmetricPartitions flaps an inbound-only partition
// three times around quiet-point connection kills: while partitioned, the
// client's writes succeed (the asymmetry — outbound looks fine) but the
// server decodes nothing; each heal must replay and deliver everything
// exactly, in first-occurrence order, with zero unaccounted frames.
func TestChaosRepeatedAsymmetricPartitions(t *testing.T) {
	got := NewChannel(1 << 16)
	reg := metrics.NewRegistry()
	cm := metrics.NewTCPClientMetrics(reg)
	sm := metrics.NewTCPServerMetrics(reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faults.NewFlakyListener(ln, faults.NetFaultConfig{Seed: 5})
	srv := NewServer(fl, got, WithServerMetrics(sm))

	cli, err := Dial(ln.Addr().String(), 0,
		WithReconnect(ReconnectConfig{
			InitialBackoff: 2 * time.Millisecond,
			MaxBackoff:     20 * time.Millisecond,
			SpillCapacity:  1 << 14,
			BatchSize:      32,
		}),
		WithClientMetrics(cm))
	if err != nil {
		t.Fatal(err)
	}

	const perPhase = 300
	emitted := uint64(0)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			cli.Emit(syn(emitted))
			emitted++
		}
	}
	settle := func(what string) {
		waitUntil(t, 15*time.Second, what, func() bool {
			return cli.Spilled() == 0 && got.Emitted() >= emitted
		})
	}

	for flap := 0; flap < 3; flap++ {
		emit(perPhase)
		settle("pre-flap phase to be delivered")
		fl.Partition(faults.PartitionInbound)
		fl.KillAll()
		// Quiet point: nothing is in flight, and the death probe gets a
		// moment to observe the kill before the next write.
		time.Sleep(50 * time.Millisecond)
		before := got.Emitted()
		emit(perPhase)
		time.Sleep(30 * time.Millisecond)
		// The asymmetry: frames left the client but none got decoded.
		if n := got.Emitted(); n != before {
			t.Fatalf("flap %d: server decoded %d frames through an inbound partition", flap, n-before)
		}
		fl.Heal()
		settle("partitioned phase to drain after heal")
	}
	emit(perPhase)
	settle("final phase to be delivered")

	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Exact accounting: every emit delivered at least once, none dropped,
	// and replays (pushFront after a failed batch) keep first occurrences
	// in emit order.
	seen := make(map[uint64]bool)
	var order []uint64
	for _, s := range got.Drain() {
		if !seen[s.TaskID] {
			seen[s.TaskID] = true
			order = append(order, s.TaskID)
		}
	}
	if uint64(len(seen)) != emitted {
		t.Fatalf("delivered %d unique synopses, want %d", len(seen), emitted)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("replay broke ordering: first occurrence of %d after %d", order[i], order[i-1])
		}
	}
	if d := cm.FramesDropped.Value(); d != 0 {
		t.Fatalf("FramesDropped = %d, want 0", d)
	}
	if s := cm.FramesSent.Value(); s < emitted {
		t.Fatalf("FramesSent = %d < %d emitted (with zero drops every frame must have been sent)", s, emitted)
	}
	if r := cm.Reconnects.Value(); r < 3 {
		t.Fatalf("Reconnects = %d, want >= 3 (each flap severs the stream)", r)
	}
}
