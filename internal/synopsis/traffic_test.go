package synopsis_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"saad/internal/storage/cassandra"
	"saad/internal/storage/hbase"
	"saad/internal/stream"
	"saad/internal/workload"
)

// blockPoints is the most distinct points a record block holds inline: the
// record5 block, whose size TestRecordBlockSizes pins.
const blockPoints = 5

// TestRecordBlocksHoldSimulatedTasks keeps the premise of the record blocks
// checked: on brief write-heavy runs of the Cassandra and HBase simulators,
// at least 99.9% of the tracker's records have at most five distinct points
// and so cost one block. A stage that grows its log points shows here
// rather than as bytes per synopsis creeping up.
func TestRecordBlocksHoldSimulatedTasks(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const horizon = 10 * time.Second
	type execute func(workload.Op, time.Time) (time.Time, error)
	for _, tc := range []struct {
		name  string
		build func(*stream.Channel) (execute, error)
	}{
		{"cassandra", func(sink *stream.Channel) (execute, error) {
			c, err := cassandra.New(cassandra.Config{Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch})
			if err != nil {
				return nil, err
			}
			return c.Execute, nil
		}},
		{"hbase", func(sink *stream.Channel) (execute, error) {
			h, err := hbase.New(hbase.Config{Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch})
			if err != nil {
				return nil, err
			}
			return h.Execute, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := stream.NewChannel(1 << 20)
			exec, err := tc.build(sink)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGenerator(workload.Config{Records: 2000, Seed: 8, Mix: workload.WriteHeavy()})
			workload.NewClientPool(40, epoch, 150*time.Millisecond).Run(epoch.Add(horizon), func(_ int, at time.Time) time.Time {
				done, _ := exec(gen.Next(), at)
				return done
			})
			syns := sink.Drain()
			if len(syns) < 10000 {
				t.Fatalf("%d records: too few to measure a share in 10^4", len(syns))
			}
			var hist [blockPoints + 2]int // 0 … 5 points, then 6+
			for _, s := range syns {
				hist[min(len(s.Points), blockPoints+1)]++
			}
			var b strings.Builder
			for n, c := range hist {
				label := fmt.Sprint(n)
				if n > blockPoints {
					label += "+"
				}
				fmt.Fprintf(&b, " %s pts: %d (%.1f%%)", label, c, 100*float64(c)/float64(len(syns)))
			}
			t.Logf("%d records;%s", len(syns), b.String())
			if over := hist[blockPoints+1]; float64(over) > 0.001*float64(len(syns)) {
				t.Errorf("%d of %d records have more than %d distinct points, want at most 0.1%%: they pay a second allocation each", over, len(syns), blockPoints)
			}
		})
	}
}
