package analyzer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"saad/internal/storage/cassandra"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/workload"
)

// goldenTrace is the fault-free run internal/storage/cassandra's
// TestTraceGolden pins (same cluster, same seeds, same horizon).
func goldenTrace(t testing.TB) []*synopsis.Synopsis {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sink := stream.NewChannel(1 << 20)
	c, err := cassandra.New(cassandra.Config{Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Records: 2000, Seed: 8, Mix: workload.WriteHeavy()})
	workload.NewClientPool(40, epoch, 150*time.Millisecond).Run(epoch.Add(50*time.Second), func(_ int, at time.Time) time.Time {
		done, _ := c.Execute(gen.Next(), at)
		return done
	})
	return sink.Drain()
}

// TestTrainGolden pins training to the bit: the serialised model (every
// threshold, share, cross-validation estimate and skewness) trained on the
// golden trace hashes to the value recorded at the commit before
// stats.Percentile stopped sorting and Trainer.Add stopped building a
// Signature per synopsis.
func TestTrainGolden(t *testing.T) {
	const want = "a15d04390fadc325e5a7f8511199c51c667a27c56d4ce043d30b5aa5fe8b610a"
	cfg := DefaultConfig()
	cfg.Window = 5 * time.Second
	model, err := Train(cfg, goldenTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := model.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("model drifted: %d bytes, hash %s; want %s", buf.Len(), got, want)
	}
}
