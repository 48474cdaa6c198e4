package stream

import (
	"sync"
	"testing"
	"time"

	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

func syn(id uint64) *synopsis.Synopsis {
	return &synopsis.Synopsis{
		Stage: 1, TaskID: id,
		Start:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Duration: time.Millisecond,
		Points:   []synopsis.PointCount{{Point: 1, Count: 1}},
	}
}

func TestChannelEmitAndDrain(t *testing.T) {
	ch := NewChannel(16)
	for i := 0; i < 5; i++ {
		ch.Emit(syn(uint64(i)))
	}
	got := ch.Drain()
	if len(got) != 5 {
		t.Fatalf("drained %d", len(got))
	}
	if ch.Dropped() != 0 {
		t.Fatalf("dropped %d", ch.Dropped())
	}
	if len(ch.Drain()) != 0 {
		t.Fatal("second drain non-empty")
	}
}

func TestChannelDropsWhenFull(t *testing.T) {
	ch := NewChannel(2)
	for i := 0; i < 5; i++ {
		ch.Emit(syn(uint64(i)))
	}
	if ch.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", ch.Dropped())
	}
	if got := ch.Drain(); len(got) != 2 {
		t.Fatalf("kept %d", len(got))
	}
}

// TestChannelEmitAllocs pins the in-process transport at zero allocations
// per synopsis on all three ways out of Emit: buffered, dropped on a full
// buffer, dropped after Close.
func TestChannelEmitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	ch := NewChannel(1)
	s := syn(1)
	buffered := testing.AllocsPerRun(1000, func() {
		ch.Emit(s)
		<-ch.C()
	})
	ch.Emit(s)
	full := testing.AllocsPerRun(1000, func() { ch.Emit(s) })
	ch.Close()
	closed := testing.AllocsPerRun(1000, func() { ch.Emit(s) })
	if buffered != 0 || full != 0 || closed != 0 {
		t.Errorf("Channel.Emit = %v allocs buffered, %v full, %v closed; want 0 each", buffered, full, closed)
	}
	if ch.Emitted() != 1002 || ch.Dropped() != 2002 {
		t.Errorf("emitted %d, dropped %d; want 1002 and 2002 (AllocsPerRun adds a warm-up call)", ch.Emitted(), ch.Dropped())
	}
}

func TestChannelCapacityClamp(t *testing.T) {
	ch := NewChannel(0)
	ch.Emit(syn(1)) // must not panic or block
	if got := ch.Drain(); len(got) != 1 {
		t.Fatalf("kept %d", len(got))
	}
}

func TestChannelCloseIdempotentAndCountsDrops(t *testing.T) {
	ch := NewChannel(4)
	ch.Emit(syn(1))
	ch.Close()
	ch.Close() // idempotent
	ch.Emit(syn(2))
	if ch.Dropped() != 1 {
		t.Fatalf("dropped = %d", ch.Dropped())
	}
	// Drain on a closed channel returns the buffered item then stops.
	if got := ch.Drain(); len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
}

func TestChannelConcurrentEmit(t *testing.T) {
	ch := NewChannel(10000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ch.Emit(syn(uint64(g*1000 + i)))
			}
		}(g)
	}
	wg.Wait()
	if got := len(ch.Drain()); got != 800 {
		t.Fatalf("drained %d, want 800", got)
	}
}

// TestChannelEmitCloseRace hammers the lock-free Emit with a concurrent
// Close: every emit must either land in the buffer or count as a drop, and
// nothing may panic or race (run under -race in CI). Emits that lose the
// race against close(ch) are converted to drops by the recover guard.
func TestChannelEmitCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		ch := NewChannel(8)
		const emitters, perEmitter = 8, 50
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < emitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perEmitter; i++ {
					ch.Emit(syn(uint64(i)))
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ch.Close()
		}()
		close(start)
		wg.Wait()
		got := len(ch.Drain())
		total := got + int(ch.Dropped())
		if total != emitters*perEmitter {
			t.Fatalf("round %d: buffered %d + dropped %d = %d, want %d",
				round, got, ch.Dropped(), total, emitters*perEmitter)
		}
		if uint64(got) != ch.Emitted() {
			t.Fatalf("round %d: drained %d but Emitted() = %d", round, got, ch.Emitted())
		}
	}
}

// TestChannelEmittedCounter checks the native accounting the metrics layer
// scrapes.
func TestChannelEmittedCounter(t *testing.T) {
	ch := NewChannel(2)
	for i := 0; i < 5; i++ {
		ch.Emit(syn(uint64(i)))
	}
	if ch.Emitted() != 2 || ch.Dropped() != 3 {
		t.Fatalf("emitted %d dropped %d, want 2 and 3", ch.Emitted(), ch.Dropped())
	}
	if ch.Len() != 2 || ch.Cap() != 2 {
		t.Fatalf("len %d cap %d, want 2 and 2", ch.Len(), ch.Cap())
	}
}

func TestTCPEndToEnd(t *testing.T) {
	got := NewChannel(4096)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		cli.Emit(syn(uint64(i)))
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	received := 0
	for received < n {
		select {
		case s := <-got.C():
			if s.Stage != 1 || len(s.Points) != 1 {
				t.Fatalf("bad synopsis %+v", s)
			}
			received++
		case <-deadline:
			t.Fatalf("timed out with %d/%d", received, n)
		}
	}
}

func TestTCPClientBackgroundFlush(t *testing.T) {
	got := NewChannel(64)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Emit(syn(1))
	select {
	case <-got.C():
	case <-time.After(5 * time.Second):
		t.Fatal("background flush never delivered")
	}
	if cli.Err() != nil {
		t.Fatalf("client err = %v", cli.Err())
	}
}

func TestTCPClientEmitAfterCloseIsSafe(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	cli.Emit(syn(1)) // dropped, no panic
	if err := cli.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPServerSurvivesGarbageConnection(t *testing.T) {
	got := NewChannel(64)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A connection that writes garbage must not break the server.
	garbage := dialRaw(t, srv.Addr())
	// Write a huge bogus length prefix directly.
	if _, err := garbage.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil {
		t.Fatal(err)
	}
	_ = garbage.Close()

	// A well-behaved client still gets through.
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.Emit(syn(42))
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got.C():
		if s.TaskID != 42 {
			t.Fatalf("task id = %d", s.TaskID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("well-behaved client starved after garbage connection")
	}
}
