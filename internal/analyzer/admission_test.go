package analyzer

import (
	"sync"
	"testing"
	"time"

	"saad/internal/metrics"
	"saad/internal/synopsis"
	"saad/internal/trace"
)

func TestAdmissionConfigDefaults(t *testing.T) {
	c := AdmissionConfig{}.withDefaults()
	if c.HighWater != 0.9 || c.LowWater != 0.25 || c.SaturateAfter != 64 ||
		c.RecoverAfter != 256 || c.KeepEvery != 8 {
		t.Fatalf("defaults = %+v", c)
	}
	// LowWater is clamped below HighWater.
	c = AdmissionConfig{HighWater: 0.3, LowWater: 0.8}.withDefaults()
	if c.LowWater != 0.3 {
		t.Fatalf("LowWater not clamped: %+v", c)
	}
}

// park blocks sh's worker inside a control message until the returned
// release func is called, then waits for the worker to pick the message up
// so queue depths observed by admit are deterministic.
func park(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	sh.ch <- shardMsg{ctl: &control{cmd: func(*Detector) { close(entered); <-gate }}}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard worker never picked up the park command")
	}
	return func() { close(gate) }
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineAdmissionDegradeAndRecover walks one shard through the whole
// hysteresis cycle with a parked worker making every queue-depth
// observation deterministic, and checks the exact accounting invariant
// offered = fed + shed at each step.
func TestEngineAdmissionDegradeAndRecover(t *testing.T) {
	model := trainedModel(t)
	reg := metrics.NewRegistry()
	m := metrics.NewAnalyzerMetrics(reg)
	tr := trace.New(trace.Config{})
	const cap = 16
	e := NewEngine(model,
		WithShards(1),
		WithShardQueue(cap),
		WithEngineMetrics(m),
		WithEngineTracer(tr),
		WithAdmission(AdmissionConfig{
			HighWater:     0.875, // 14 of 16
			LowWater:      0.25,  // 4 of 16
			SaturateAfter: 3,
			RecoverAfter:  8,
			KeepEvery:     4,
		}))
	defer e.Close()
	if e.admHigh != 14 || e.admLow != 4 {
		t.Fatalf("water marks = %d/%d, want 14/4", e.admHigh, e.admLow)
	}

	sh := e.shards[0]
	release := park(t, sh)
	syn := func() *synopsis.Synopsis { return makeSyn(1, 1, epoch, 10*time.Millisecond, 1, 2, 4, 5) }

	// Fill the queue: observations at depth 0..15; depth 14 and 15 start
	// the saturation streak (sat=2 after these 16 feeds).
	for i := 0; i < cap; i++ {
		e.Feed(syn())
	}
	if e.Degraded() {
		t.Fatal("degraded before SaturateAfter observations")
	}
	// The 17th feed observes depth 16, completes the streak, enters
	// degraded mode, is admitted through the (just-left) normal branch and
	// blocks on the full queue.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Feed(syn())
	}()
	waitUntil(t, "degrade", e.Degraded)
	if got := e.DegradedShards(); got != 1 {
		t.Fatalf("DegradedShards = %d, want 1", got)
	}

	// First degraded-branch feed rides keep counter 1 — kept, so it too
	// blocks on the full queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Feed(syn())
	}()

	// The next three feeds land on keep counters 2, 3, 4 — all shed,
	// returning without blocking.
	waitUntil(t, "kept feed to reach the queue", func() bool { return e.shards[0].adm.keep.Load() == 1 })
	for i := 0; i < 3; i++ {
		e.Feed(syn())
	}
	if got := e.Shed(); got != 3 {
		t.Fatalf("Shed = %d, want 3", got)
	}
	if got := m.ShedSynopses.Value(); got != 3 {
		t.Fatalf("shed_synopses_total = %d, want 3", got)
	}

	// Recovery: unblock the worker, let the queue drain fully.
	release()
	wg.Wait()
	waitUntil(t, "queue drain", func() bool { return len(sh.ch) == 0 })

	// Eight calm observations (depth 0 <= low water) recover the shard on
	// the 8th; feeds 1..7 ride the keep counter 5..11 (two kept, five
	// shed), the 8th is admitted post-recovery.
	for i := 0; i < 8; i++ {
		e.Feed(syn())
	}
	if e.Degraded() {
		t.Fatal("still degraded after RecoverAfter calm observations")
	}
	if got := e.DegradedShards(); got != 0 {
		t.Fatalf("DegradedShards = %d, want 0", got)
	}
	wantShed := uint64(3 + 5)
	if got := e.Shed(); got != wantShed {
		t.Fatalf("Shed = %d, want %d", got, wantShed)
	}
	// fills + degrade trigger + first kept + recovery: 2 kept (counters 5
	// and 9) and the exiting 8th.
	wantFed := uint64(16 + 1 + 1 + 3)
	if got := e.Fed(); got != wantFed {
		t.Fatalf("Fed = %d, want %d", got, wantFed)
	}
	// Exact accounting: every synopsis offered is fed or shed.
	offered := uint64(16 + 1 + 1 + 3 + 8)
	if e.Fed()+e.Shed() != offered {
		t.Fatalf("fed %d + shed %d != offered %d", e.Fed(), e.Shed(), offered)
	}
	if got := m.DegradedTransitions.Value(); got != 2 {
		t.Fatalf("degraded_transitions_total = %d, want 2", got)
	}
	if got := m.DegradedShards.Value(); got != 0 {
		t.Fatalf("degraded_shards gauge = %v, want 0", got)
	}

	// Both transitions are on the flight ring.
	var enter, exit bool
	for _, ev := range tr.FlightSnapshot(0) {
		switch ev.Kind {
		case trace.EventDegradeEnter:
			enter = true
			if ev.B != 4 {
				t.Errorf("degrade_enter B = %d, want KeepEvery 4", ev.B)
			}
		case trace.EventDegradeExit:
			exit = true
			if ev.B != wantShed {
				t.Errorf("degrade_exit B = %d, want shed %d", ev.B, wantShed)
			}
		}
	}
	if !enter || !exit {
		t.Fatalf("flight events enter=%v exit=%v, want both", enter, exit)
	}
}

// TestEngineAdmissionIsolatesShards proves shedding is per shard: a group
// whose shard is saturated degrades and sheds, while a group on another
// shard flows untouched — the non-shed stream keeps exact delivery.
func TestEngineAdmissionIsolatesShards(t *testing.T) {
	model := trainedModel(t)
	e := NewEngine(model,
		WithShards(4),
		WithShardQueue(8),
		WithAdmission(AdmissionConfig{
			HighWater: 0.75, LowWater: 0.25, SaturateAfter: 2, RecoverAfter: 4, KeepEvery: 2,
		}))
	defer e.Close()

	// Find two hosts for stage 1 routed to different shards.
	hostA := uint16(1)
	idxA := e.shardIndex(hostA, 1)
	hostB := uint16(0)
	for h := uint16(2); h < 64; h++ {
		if e.shardIndex(h, 1) != idxA {
			hostB = h
			break
		}
	}
	if hostB == 0 {
		t.Fatal("no second shard found")
	}
	shA := e.shards[idxA]

	releaseA := park(t, shA)
	synFor := func(h uint16) *synopsis.Synopsis { return makeSyn(1, h, epoch, 10*time.Millisecond, 1, 2, 4, 5) }

	// Saturate shard A: 8 fills, then observations at full depth.
	for i := 0; i < 8; i++ {
		e.Feed(synFor(hostA))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Feed(synFor(hostA)) // keep counter 1: kept, blocks on the full queue
	}()
	waitUntil(t, "shard A degrade", e.Degraded)
	// Wait for the kept feed to claim keep counter 1 so the next feed here
	// deterministically sheds instead of blocking.
	waitUntil(t, "kept feed to claim the counter", func() bool { return shA.adm.keep.Load() >= 1 })

	// Shed one on A (keep counter 2, 2%2 != 1).
	e.Feed(synFor(hostA))
	shedBefore := e.Shed()
	if shedBefore == 0 {
		t.Fatal("shard A not shedding")
	}

	// Group B flows freely: none of its synopses shed, all delivered. Pace
	// the feeds against B's live worker so B's queue genuinely stays calm
	// (a tight loop could saturate B too — which would be correct shedding,
	// just not what this test isolates).
	const nB = 500
	shB := e.shards[e.shardIndex(hostB, 1)]
	for i := 0; i < nB; i++ {
		e.Feed(synFor(hostB))
		if i%4 == 3 {
			waitUntil(t, "shard B drain", func() bool { return len(shB.ch) == 0 })
		}
	}
	if got := e.Shed(); got != shedBefore {
		t.Fatalf("feeding group B changed shed count: %d -> %d", shedBefore, got)
	}

	releaseA()
	wg.Wait()
	// Quiesce and count what shard B's core consumed: exactly nB.
	var coreFedB uint64
	e.quiesce(func(i int, sh *shard) {
		if i == e.shardIndex(hostB, 1) {
			coreFedB = sh.nfed.Load()
		}
	})
	if coreFedB != nB {
		t.Fatalf("shard B core consumed %d, want %d", coreFedB, nB)
	}
}

// TestEngineAdmissionConcurrentStorm hammers a small admission-enabled
// engine from many goroutines through repeated park/release cycles, then
// checks the accounting invariant survived the chaos and the engine shuts
// down cleanly (run with -race).
func TestEngineAdmissionConcurrentStorm(t *testing.T) {
	model := trainedModel(t)
	e := NewEngine(model,
		WithShards(2),
		WithShardQueue(8),
		WithAdmission(AdmissionConfig{
			HighWater: 0.75, LowWater: 0.25, SaturateAfter: 4, RecoverAfter: 16, KeepEvery: 4,
		}))

	const feeders = 8
	const perFeeder = 2000
	var wg sync.WaitGroup
	stopCycle := make(chan struct{})
	wg.Add(1)
	go func() { // park/release both shards in a loop
		defer wg.Done()
		for {
			select {
			case <-stopCycle:
				return
			default:
			}
			gates := make([]func(), 0, len(e.shards))
			for _, sh := range e.shards {
				gate := make(chan struct{})
				select {
				case sh.ch <- shardMsg{ctl: &control{cmd: func(*Detector) { <-gate }}}:
					gates = append(gates, func() { close(gate) })
				case <-time.After(10 * time.Millisecond):
				}
			}
			time.Sleep(2 * time.Millisecond)
			for _, g := range gates {
				g()
			}
		}
	}()
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				if i%3 == 0 {
					e.FeedBatch([]*synopsis.Synopsis{
						makeSyn(1, uint16(f%4+1), epoch, 10*time.Millisecond, 1, 2, 4, 5),
						makeSyn(1, uint16(f%4+2), epoch, 10*time.Millisecond, 1, 2, 4, 5),
					})
					i++ // batch carried two
				} else {
					e.Feed(makeSyn(1, uint16(f%4+1), epoch, 10*time.Millisecond, 1, 2, 4, 5))
				}
			}
		}(f)
	}
	// Only the feeders must finish before the accounting check; the cycler
	// is released afterwards.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stopCycle)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("storm deadlocked")
	}

	// Replay the feeder loop arithmetic to know exactly how many synopses
	// each goroutine offered (batch iterations carry two and skip an i).
	var perOffered uint64
	for i := 0; i < perFeeder; i++ {
		if i%3 == 0 {
			perOffered += 2
			i++
		} else {
			perOffered++
		}
	}
	offered := perOffered * feeders
	if got := e.Fed() + e.Shed(); got != offered {
		t.Fatalf("fed %d + shed %d = %d, want offered %d", e.Fed(), e.Shed(), got, offered)
	}
	// Everything admitted must reach a core (quiesce is the barrier; one
	// slot per shard).
	fedPer := make([]uint64, len(e.shards))
	e.quiesce(func(i int, sh *shard) { fedPer[i] = sh.nfed.Load() })
	var coreFed uint64
	for _, n := range fedPer {
		coreFed += n
	}
	if coreFed != e.Fed() {
		t.Fatalf("cores consumed %d, engine fed %d", coreFed, e.Fed())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
