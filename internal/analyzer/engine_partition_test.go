package analyzer

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// referencePartition is the partition FeedBatch used before it counted and
// filled one backing array: a map of per-shard slices grown by append, each
// element admitted or shed in batch order. It lives on here as the model the
// new routine must reproduce exactly.
func referencePartition(e *Engine, batch []*synopsis.Synopsis) (parts map[*shard][]*synopsis.Synopsis, shed []*synopsis.Synopsis) {
	parts = make(map[*shard][]*synopsis.Synopsis, len(e.shards))
	for _, s := range batch {
		sh := e.shardFor(s)
		if e.admOn && !e.admit(sh) {
			shed = append(shed, s)
			continue
		}
		parts[sh] = append(parts[sh], s)
	}
	return parts, shed
}

// parkedEngine returns an engine whose workers all sit inside a control
// message, so whatever FeedBatch queues stays in the shard channels for the
// test to read. Every third shard starts degraded when admission is on.
func parkedEngine(t *testing.T, model *Model, shards int, admission bool, opts ...EngineOption) *Engine {
	t.Helper()
	opts = append(opts, WithShards(shards), WithShardQueue(4))
	if admission {
		opts = append(opts, WithAdmission(AdmissionConfig{RecoverAfter: 150, KeepEvery: 3}))
	}
	e := NewEngine(model, opts...)
	t.Cleanup(func() { e.Close() }) // cleanups run last-in first-out: after the workers are let go
	for i, sh := range e.shards {
		t.Cleanup(park(t, sh))
		if admission && i%3 == 0 {
			e.enterDegraded(sh, 0)
		}
	}
	return e
}

// takeQueued pops the one batch message FeedBatch may have queued on sh.
func takeQueued(sh *shard) []*synopsis.Synopsis {
	select {
	case msg := <-sh.ch:
		return msg.batch
	default:
		return nil
	}
}

// TestPartitionMatchesReference: for random batches over shard counts on
// both sides of the power-of-two and the stack-counter limits, with and
// without admission control (some shards degraded, recovering on the way),
// every shard is handed exactly the sequence the map-append reference
// builds, the same records are shed in the same order, the fed count agrees
// and the caller's slice is left alone.
func TestPartitionMatchesReference(t *testing.T) {
	model := trainedModel(t)
	for _, shards := range []int{1, 2, 3, 4, 8, 65} {
		for _, admission := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(shards)))
			var released []*synopsis.Synopsis
			got := parkedEngine(t, model, shards, admission,
				WithSynopsisRelease(func(s *synopsis.Synopsis) { released = append(released, s) }))
			ref := parkedEngine(t, model, shards, admission)
			var fed uint64
			for round := 0; round < 60; round++ {
				batch := make([]*synopsis.Synopsis, 1+rng.Intn(300))
				for i := range batch {
					batch[i] = makeSyn(logpoint.StageID(1+rng.Intn(6)), uint16(1+rng.Intn(24)), epoch, time.Millisecond, 1)
				}
				before := append([]*synopsis.Synopsis(nil), batch...)
				released = released[:0]

				got.FeedBatch(batch)
				wantParts, wantShed := referencePartition(ref, before)

				if !slices.Equal(batch, before) {
					t.Fatalf("shards=%d admission=%v: FeedBatch reordered the caller's slice", shards, admission)
				}
				for i, sh := range got.shards {
					part := takeQueued(sh)
					if want := wantParts[ref.shards[i]]; !slices.Equal(part, want) {
						t.Fatalf("shards=%d admission=%v round %d: shard %d got %d records, reference %d (or a different order)",
							shards, admission, round, i, len(part), len(want))
					}
					if cap(part) != len(part) {
						t.Fatalf("shard %d's batch has spare capacity %d reaching into a neighbour's region", i, cap(part)-len(part))
					}
					fed += uint64(len(part))
				}
				if !slices.Equal(released, wantShed) {
					t.Fatalf("shards=%d admission=%v round %d: shed %d records, reference %d (or a different order)",
						shards, admission, round, len(released), len(wantShed))
				}
				if got.Fed() != fed || got.shed.Load() != ref.shed.Load() || got.degraded.Load() != ref.degraded.Load() {
					t.Fatalf("shards=%d admission=%v round %d: fed %d (want %d), shed %d (want %d), degraded shards %d (want %d)",
						shards, admission, round, got.Fed(), fed, got.shed.Load(), ref.shed.Load(), got.degraded.Load(), ref.degraded.Load())
				}
			}
			if started := int64(shards+2) / 3; admission && (ref.shed.Load() == 0 || ref.degraded.Load() >= started) {
				t.Fatalf("shards=%d: the admission run shed %d records and left %d of %d shards degraded; it should shed some and see some recover",
					shards, ref.shed.Load(), ref.degraded.Load(), started)
			}
		}
	}
}

// TestFeedBatchAllocs pins the routing cost of a frame on a multi-shard
// engine: the one backing array (the second allocation is slack for the
// runtime), whatever the batch size.
func TestFeedBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	e := parkedEngine(t, trainedModel(t), 4, false)
	for _, n := range []int{8, 512, 4096} {
		batch := make([]*synopsis.Synopsis, n)
		for i := range batch {
			batch[i] = makeSyn(logpoint.StageID(1+i%5), uint16(1+i%24), epoch, time.Millisecond, 1)
		}
		got := testing.AllocsPerRun(50, func() {
			e.FeedBatch(batch)
			for _, sh := range e.shards {
				takeQueued(sh)
			}
		})
		if got > 2 {
			t.Errorf("FeedBatch(%d records) over 4 shards = %v allocs, want at most 2", n, got)
		}
	}
}
