package cassandra

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"saad/internal/faults"
	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/workload"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// runWorkload drives ops through the cluster with a closed-loop client pool
// and returns completion count.
func runWorkload(t *testing.T, c *Cassandra, gen *workload.Generator, clients int, horizon time.Duration) int {
	t.Helper()
	completions := 0
	workload.NewClientPool(clients, epoch, 50*time.Millisecond).Run(epoch.Add(horizon), func(_ int, at time.Time) time.Time {
		done, _ := c.Execute(gen.Next(), at)
		completions++
		return done
	})
	return completions
}

func newCluster(t *testing.T, sink *stream.Channel, inj *faults.Injector) *Cassandra {
	t.Helper()
	c, err := New(Config{
		Hosts:    4,
		Seed:     7,
		Sink:     sink,
		Epoch:    epoch,
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHealthyWorkloadProducesSynopses(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	c := newCluster(t, sink, nil)
	gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 3, Mix: workload.WriteHeavy()})
	done := runWorkload(t, c, gen, 20, 10*time.Second)
	if done < 300 {
		t.Fatalf("completions = %d, closed loop stalled", done)
	}
	syns := sink.Drain()
	if len(syns) < 1000 {
		t.Fatalf("synopses = %d, tracker not firing", len(syns))
	}
	writes, reads := c.CompletedOps()
	if writes == 0 || reads == 0 {
		t.Fatalf("writes=%d reads=%d", writes, reads)
	}
	if c.FailedOps() != 0 {
		t.Fatalf("failed ops on healthy cluster: %d", c.FailedOps())
	}
	// Every synopsis must reference registered stages and points.
	for _, s := range syns {
		if _, err := c.Dict().Stage(s.Stage); err != nil {
			t.Fatalf("synopsis references unknown stage: %v", err)
		}
		for _, pc := range s.Points {
			if _, err := c.Dict().Point(pc.Point); err != nil {
				t.Fatalf("synopsis references unknown point: %v", err)
			}
		}
	}
}

func TestStageAndSignatureDiversity(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	c := newCluster(t, sink, nil)
	gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 5, Mix: workload.Mix{Read: 0.3, Update: 0.6, Insert: 0.05, Scan: 0.05}})
	runWorkload(t, c, gen, 20, 30*time.Second)
	syns := sink.Drain()

	stages := make(map[logpoint.StageID]bool)
	sigs := make(map[logpoint.StageID]map[synopsis.Signature]int)
	for _, s := range syns {
		stages[s.Stage] = true
		if sigs[s.Stage] == nil {
			sigs[s.Stage] = make(map[synopsis.Signature]int)
		}
		sigs[s.Stage][s.Signature()]++
	}
	// The paper's Cassandra instrumentation exposes many stages; a healthy
	// write-heavy run must exercise at least 10 of ours.
	if len(stages) < 10 {
		t.Fatalf("stages exercised = %d, want >= 10", len(stages))
	}
	total := 0
	for _, m := range sigs {
		total += len(m)
	}
	// Signature diversity in the tens (paper: 68 signatures for Cassandra).
	if total < 15 {
		t.Fatalf("distinct signatures = %d, want >= 15", total)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []string {
		sink := stream.NewChannel(1 << 20)
		c := newCluster(t, sink, nil)
		gen := workload.NewGenerator(workload.Config{Records: 200, Seed: 9})
		runWorkload(t, c, gen, 10, 5*time.Second)
		var out []string
		for _, s := range sink.Drain() {
			out = append(out, s.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("synopsis counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("synopsis %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestWALErrorHighFreezesMemtableAndCrashes(t *testing.T) {
	inj := faults.NewInjector(faults.Fault{
		Name: "error-WAL-high", Point: faults.PointWALAppend, Mode: faults.ModeError,
		Probability: 1, Host: 4, From: epoch, To: epoch.Add(time.Hour),
	})
	sink := stream.NewChannel(1 << 20)
	c, err := New(Config{
		Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch, Injector: inj,
		CrashHeapBytes: 64 << 10, // crash quickly for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 3, Mix: workload.WriteHeavy()})
	runWorkload(t, c, gen, 20, 40*time.Second)
	syns := sink.Drain()

	// The Table stage on host 4 must show the frozen-only premature flow.
	tableStage, ok := c.Stage("Table")
	if !ok {
		t.Fatal("Table stage missing")
	}
	frozenSig := synopsis.Compute(c.TablePoints()[:1])
	frozenSeen := 0
	for _, s := range syns {
		if s.Stage == tableStage && s.Host == 4 && s.Signature() == frozenSig {
			frozenSeen++
		}
	}
	if frozenSeen < 10 {
		t.Fatalf("frozen-memtable flows on host 4 = %d, want many", frozenSeen)
	}

	// Memory pressure must eventually crash host 4 with an error burst.
	h4 := c.Cluster().Host(4)
	if !h4.Crashed() {
		t.Fatal("host 4 did not crash under permanent freeze")
	}
	oomErrors := 0
	for _, e := range h4.Errors() {
		if e.Point == c.points.errOOM {
			oomErrors++
		}
	}
	if oomErrors < 12 {
		t.Fatalf("OOM error burst = %d messages", oomErrors)
	}

	// Healthy hosts must have accumulated hint-storing WorkerProcess flows.
	workerStage, _ := c.Stage("WorkerProcess")
	hintFlows := 0
	for _, s := range syns {
		if s.Stage == workerStage && s.Host != 4 && s.Signature().Contains(c.points.wpStoreHint) {
			hintFlows++
		}
	}
	if hintFlows == 0 {
		t.Fatal("no hinted hand-off flows on healthy hosts")
	}

	// Cluster keeps serving writes (quorum of 3 live replicas).
	writes, _ := c.CompletedOps()
	if writes == 0 {
		t.Fatal("cluster stopped serving writes")
	}
}

func TestWALErrorLowIsTransient(t *testing.T) {
	inj := faults.NewInjector(faults.Fault{
		Name: "error-WAL-low", Point: faults.PointWALAppend, Mode: faults.ModeError,
		Probability: 0.01, Host: 4, From: epoch, To: epoch.Add(time.Minute),
	})
	sink := stream.NewChannel(1 << 20)
	c, err := New(Config{
		Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch, Injector: inj,
		FreezeRecovery: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 3, Mix: workload.WriteHeavy()})
	runWorkload(t, c, gen, 20, 90*time.Second)

	if c.Cluster().Host(4).Crashed() {
		t.Fatal("low-intensity fault crashed the node")
	}
	// After the fault window plus recovery, the node must be unfrozen.
	if c.nodes[3].frozen(epoch.Add(2 * time.Minute)) {
		t.Fatal("freeze did not recover after low-intensity fault")
	}
	// Frozen flows must exist but the node recovered.
	tableStage, _ := c.Stage("Table")
	frozenSig := synopsis.Compute(c.TablePoints()[:1])
	frozen := 0
	for _, s := range sink.Drain() {
		if s.Stage == tableStage && s.Host == 4 && s.Signature() == frozenSig {
			frozen++
		}
	}
	if frozen == 0 {
		t.Fatal("low-intensity fault left no frozen flows")
	}
}

func TestFlushErrorBuildsPressureNoCrash(t *testing.T) {
	inj := faults.NewInjector(faults.Fault{
		Name: "error-MemTable-high", Point: faults.PointMemtableFlush, Mode: faults.ModeError,
		Probability: 1, Host: 4, From: epoch, To: epoch.Add(time.Hour),
	})
	sink := stream.NewChannel(1 << 20)
	c, err := New(Config{
		Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch, Injector: inj,
		FlushBytes:      8 << 10,
		GCPressureBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 3, Mix: workload.WriteHeavy()})
	runWorkload(t, c, gen, 20, 40*time.Second)
	syns := sink.Drain()

	mtStage, _ := c.Stage("Memtable")
	mtErrFlows := 0
	for _, s := range syns {
		if s.Stage == mtStage && s.Host == 4 && s.Signature().Contains(c.points.mtError) {
			mtErrFlows++
		}
	}
	if mtErrFlows < 3 {
		t.Fatalf("failed-flush flows = %d", mtErrFlows)
	}
	// GC inspector must register long pauses from the pressure.
	gcStage, _ := c.Stage("GCInspector")
	gcLong := 0
	for _, s := range syns {
		if s.Stage == gcStage && s.Host == 4 && s.Signature().Contains(c.points.gcLong) {
			gcLong++
		}
	}
	if gcLong == 0 {
		t.Fatal("no long-GC flows under flush failure")
	}
	if c.Cluster().Host(4).Crashed() {
		t.Fatal("flush fault crashed node (paper scenario keeps it alive)")
	}
}

func TestWALDelaySlowsHost4Writes(t *testing.T) {
	measure := func(withFault bool) (h4 time.Duration, h1 time.Duration, n4, n1 int) {
		var inj *faults.Injector
		if withFault {
			inj = faults.NewInjector(faults.Fault{
				Name: "delay-WAL-high", Point: faults.PointWALAppend, Mode: faults.ModeDelay,
				Probability: 1, Delay: 100 * time.Millisecond, Host: 4,
				From: epoch, To: epoch.Add(time.Hour),
			})
		}
		sink := stream.NewChannel(1 << 20)
		c := newCluster(t, sink, inj)
		gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 3, Mix: workload.WriteHeavy()})
		runWorkload(t, c, gen, 20, 15*time.Second)
		workerStage, _ := c.Stage("WorkerProcess")
		for _, s := range sink.Drain() {
			if s.Stage != workerStage || !s.Signature().Contains(c.points.wpApply) {
				continue
			}
			switch s.Host {
			case 4:
				h4 += s.Duration
				n4++
			case 1:
				h1 += s.Duration
				n1++
			}
		}
		return h4, h1, n4, n1
	}
	fh4, fh1, fn4, fn1 := measure(true)
	if fn4 == 0 || fn1 == 0 {
		t.Fatalf("no worker tasks: n4=%d n1=%d", fn4, fn1)
	}
	avg4 := fh4 / time.Duration(fn4)
	avg1 := fh1 / time.Duration(fn1)
	if avg4 < 100*time.Millisecond {
		t.Fatalf("host 4 worker avg = %v, delay not visible", avg4)
	}
	if avg1 > 50*time.Millisecond {
		t.Fatalf("host 1 worker avg = %v, delay leaked", avg1)
	}
}

func TestQuorumFailureWhenTwoReplicasDown(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	c := newCluster(t, sink, nil)
	c.Cluster().Host(2).Crash(epoch)
	c.Cluster().Host(3).Crash(epoch)
	// Some keys now have only 1 live replica of 3 -> quorum failures.
	gen := workload.NewGenerator(workload.Config{Records: 100, Seed: 3, Mix: workload.Mix{Update: 1}})
	failed := false
	for i := 0; i < 200; i++ {
		if _, err := c.Execute(gen.Next(), epoch.Add(time.Duration(i)*10*time.Millisecond)); err != nil {
			if !errors.Is(err, errNoQuorum) {
				t.Fatalf("unexpected err: %v", err)
			}
			failed = true
		}
	}
	if !failed {
		t.Fatal("no quorum failures with 2 of 4 hosts down")
	}
}

func TestReadsServeFromSSTablesAfterFlush(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	c, err := New(Config{Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch, FlushBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Records: 300, Seed: 3, Mix: workload.WriteHeavy()})
	runWorkload(t, c, gen, 10, 20*time.Second)
	// At least one node must have flushed.
	flushed := false
	for _, nd := range c.nodes {
		if nd.store.Flushes() > 0 {
			flushed = true
		}
	}
	if !flushed {
		t.Fatal("no flush happened")
	}
	// Reads hitting SSTables produce the lrSSTable flow.
	lrStage, _ := c.Stage("LocalReadRunnable")
	sstableReads := 0
	for _, s := range sink.Drain() {
		if s.Stage == lrStage && s.Signature().Contains(c.points.lrSSTable) {
			sstableReads++
		}
	}
	if sstableReads == 0 {
		t.Fatal("no SSTable read flows")
	}
}

func TestCompactionRunsUnderSustainedWrites(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	c, err := New(Config{Hosts: 4, Seed: 7, Sink: sink, Epoch: epoch, FlushBytes: 4 << 10, CompactTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Records: 300, Seed: 3, Mix: workload.WriteHeavy()})
	runWorkload(t, c, gen, 20, 40*time.Second)
	compactions := uint64(0)
	for _, nd := range c.nodes {
		compactions += nd.store.Compactions()
	}
	if compactions == 0 {
		t.Fatal("no compactions under sustained writes")
	}
	cmStage, _ := c.Stage("CompactionManager")
	seen := false
	for _, s := range sink.Drain() {
		if s.Stage == cmStage {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("no CompactionManager tasks emitted")
	}
}

func TestThroughputDropsWhenAllHostsDelayed(t *testing.T) {
	measure := func(inj *faults.Injector) int {
		sink := stream.NewChannel(1 << 20)
		c := newCluster(t, sink, inj)
		gen := workload.NewGenerator(workload.Config{Records: 500, Seed: 3, Mix: workload.WriteHeavy()})
		return runWorkload(t, c, gen, 20, 15*time.Second)
	}
	baseline := measure(nil)
	slowed := measure(faults.NewInjector(faults.Fault{
		Point: faults.PointWALAppend, Mode: faults.ModeDelay, Probability: 1,
		Delay: 100 * time.Millisecond, Host: faults.AllHosts,
		From: epoch, To: epoch.Add(time.Hour),
	}))
	if float64(slowed) > 0.5*float64(baseline) {
		t.Fatalf("closed-loop throughput did not drop: %d vs %d", slowed, baseline)
	}
}

// traceHash folds (stage, host, task id, start, duration, points) of every
// synopsis, in emission order, into one SHA-256.
func traceHash(syns []*synopsis.Synopsis) string {
	h := sha256.New()
	var b []byte
	for _, s := range syns {
		b = binary.LittleEndian.AppendUint16(b[:0], uint16(s.Stage))
		b = binary.LittleEndian.AppendUint16(b, s.Host)
		b = binary.LittleEndian.AppendUint64(b, s.TaskID)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Start.UnixNano()))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Duration))
		for _, pc := range s.Points {
			b = binary.LittleEndian.AppendUint16(b, uint16(pc.Point))
			b = binary.LittleEndian.AppendUint32(b, pc.Count)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceGolden pins the virtual-time cluster's output to the bit: the
// run every benchmark set-up and experiment starts from (4 hosts, 40
// clients, 150 ms think, write-heavy over 2000 records — inserts grow the
// keyspace, memtables flush and compact), fault-free and with the WAL-delay
// fault. The hashes were recorded at the commit before the Zipfian
// chooser, the LSM flush path and stats.Percentile were made cheaper; a
// change to any of them that moves one task by one nanosecond fails here.
func TestTraceGolden(t *testing.T) {
	const horizon = 50 * time.Second
	cases := []struct {
		name  string
		inj   *faults.Injector
		count int
		hash  string
	}{
		{name: "fault-free", count: 176170,
			hash: "850f0f792396357011c90a348fbee02ceec38eb63ebcbee1322725145c23005e"},
		{name: "wal-delay", inj: faults.NewInjector(faults.Fault{
			Name: "delay-wal", Point: faults.PointWALAppend, Mode: faults.ModeDelay,
			Probability: 1, Delay: 100 * time.Millisecond, Host: 4,
			From: epoch.Add(horizon * 3 / 10), To: epoch.Add(horizon * 7 / 10),
		}), count: 169223,
			hash: "39bd56b0da64d5a3db948abbf5916cbb7ef8eec9f30d225f3b2c3eed1377d784"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := stream.NewChannel(1 << 20)
			c := newCluster(t, sink, tc.inj)
			gen := workload.NewGenerator(workload.Config{Records: 2000, Seed: 8, Mix: workload.WriteHeavy()})
			workload.NewClientPool(40, epoch, 150*time.Millisecond).Run(epoch.Add(horizon), func(_ int, at time.Time) time.Time {
				done, _ := c.Execute(gen.Next(), at)
				return done
			})
			syns := sink.Drain()
			if got := traceHash(syns); len(syns) != tc.count || got != tc.hash {
				t.Fatalf("trace drifted: %d synopses, hash %s; want %d, %s", len(syns), got, tc.count, tc.hash)
			}
		})
	}
}
