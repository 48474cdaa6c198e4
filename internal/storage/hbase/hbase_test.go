package hbase

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

func newTier(t *testing.T, sink *stream.Channel, hogs *faults.HogSchedule, mutate func(*Config)) *HBase {
	t.Helper()
	cfg := Config{Hosts: 4, Seed: 21, Sink: sink, Epoch: epoch, Hogs: hogs}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func drive(t *testing.T, h *HBase, seed uint64, mix workload.Mix, clients int, horizon time.Duration) int {
	t.Helper()
	gen := workload.NewGenerator(workload.Config{Records: 400, Seed: seed, Mix: mix})
	n := 0
	workload.NewClientPool(clients, epoch, 50*time.Millisecond).Run(epoch.Add(horizon), func(_ int, at time.Time) time.Time {
		done, _ := h.Execute(gen.Next(), at)
		n++
		return done
	})
	return n
}

func TestPutAndGetFlows(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, nil)
	n := drive(t, h, 3, workload.Mix{Read: 0.3, Update: 0.7}, 10, 10*time.Second)
	if n < 300 {
		t.Fatalf("completions = %d", n)
	}
	if h.FailedOps() != 0 {
		t.Fatalf("failed ops = %d", h.FailedOps())
	}
	syns := sink.Drain()
	callStage, _ := h.Stage("Call")
	haStage, _ := h.Stage("RSHandler")
	var gets, puts, walAppends int
	for _, s := range syns {
		sig := s.Signature()
		switch s.Stage {
		case callStage:
			if sig.Contains(h.points.callGet) {
				gets++
			}
			if sig.Contains(h.points.callPut) {
				puts++
			}
		case haStage:
			if sig.Contains(h.points.haWALAppend) {
				walAppends++
				if !sig.Contains(h.points.haLogSync) {
					t.Fatal("put flow without log sync")
				}
			}
		}
	}
	if gets == 0 || puts == 0 || walAppends == 0 {
		t.Fatalf("gets=%d puts=%d walAppends=%d", gets, puts, walAppends)
	}
	// DataStreamer/ResponseProcessor client stages must appear.
	dsStage, _ := h.Stage("DataStreamer")
	rpStage, _ := h.Stage("ResponseProcessor")
	var ds, rp int
	for _, s := range syns {
		if s.Stage == dsStage {
			ds++
		}
		if s.Stage == rpStage {
			rp++
		}
	}
	if ds == 0 || rp == 0 || ds != rp {
		t.Fatalf("ds=%d rp=%d", ds, rp)
	}
}

func TestMultiBatchedPut(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, nil)
	val := []byte("0123456789")
	// Build a batch for keys in the same region.
	var ops []workload.Op
	base := workload.Op{Type: workload.OpUpdate, Key: "userX", Value: val}
	region := regionOf(base.Key)
	ops = append(ops, base)
	for i := 0; len(ops) < 10 && i < 10000; i++ {
		k := workload.Key(i)
		if regionOf(k) == region {
			ops = append(ops, workload.Op{Type: workload.OpUpdate, Key: k, Value: val})
		}
	}
	if _, err := h.ExecuteMulti(ops, epoch); err != nil {
		t.Fatal(err)
	}
	if h.CompletedOps() != uint64(len(ops)) {
		t.Fatalf("completed = %d, want %d", h.CompletedOps(), len(ops))
	}
	callStage, _ := h.Stage("Call")
	haStage, _ := h.Stage("RSHandler")
	multis, syncs := 0, 0
	for _, s := range sink.Drain() {
		if s.Stage == callStage && s.Signature().Contains(h.points.callMulti) {
			multis++
		}
		if s.Stage == haStage {
			for _, pc := range s.Points {
				if pc.Point == h.points.haLogSync {
					syncs += int(pc.Count)
				}
			}
		}
	}
	if multis != 1 {
		t.Fatalf("multi calls = %d", multis)
	}
	// The batch shares ONE log sync — the misconfiguration's signature.
	if syncs != 1 {
		t.Fatalf("log syncs = %d, want 1", syncs)
	}
}

func TestFlushAndCompaction(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, func(c *Config) { c.FlushBytes = 4 << 10 })
	drive(t, h, 5, workload.WriteHeavy(), 10, 30*time.Second)
	flushes := false
	for _, rs := range h.rs {
		if rs.store.Flushes() > 0 {
			flushes = true
		}
	}
	if !flushes {
		t.Fatal("no MemStore flush")
	}
	ccStage, _ := h.Stage("CompactionChecker")
	crStage, _ := h.Stage("CompactionRequest")
	var checks, compactions int
	for _, s := range sink.Drain() {
		if s.Stage == ccStage {
			checks++
		}
		if s.Stage == crStage {
			compactions++
		}
	}
	if checks == 0 {
		t.Fatal("no compaction checker tasks")
	}
	if compactions == 0 {
		t.Fatal("no compaction request tasks")
	}
}

func TestRecoveryBugCrashesRS3(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	hogs := faults.NewHogSchedule(faults.HogWindow{
		From: epoch.Add(5 * time.Second), To: epoch.Add(40 * time.Second),
		Procs: 4, Host: faults.AllHosts,
	})
	h := newTier(t, sink, hogs, func(c *Config) {
		c.RecoveryBugHost = 3
		c.RecoveryTriggerLatency = 12 * time.Millisecond
		c.MaxRecoveryRetries = 8
		c.RecoveryRetryEvery = time.Second
	})
	drive(t, h, 7, workload.WriteHeavy(), 20, 60*time.Second)

	if !h.RSCrashed(3) {
		t.Fatal("RegionServer 3 did not crash under the recovery bug")
	}
	if h.RSCrashed(1) || h.RSCrashed(2) || h.RSCrashed(4) {
		t.Fatal("bug crashed the wrong RegionServer")
	}
	// The DataNode on host 3 must still be alive.
	if h.Cluster().Host(3).Crashed() {
		t.Fatal("DataNode 3 crashed; only the RS should abort")
	}
	syns := sink.Drain()

	// RecoverBlocks busy flows on DataNode 3.
	rbStage, _ := h.Stage("RecoverBlocks")
	busyFlows := 0
	for _, s := range syns {
		if s.Stage == rbStage && s.Host == 3 {
			busyFlows++
		}
	}
	if busyFlows < 3 {
		t.Fatalf("RecoverBlocks tasks on DN3 = %d", busyFlows)
	}

	// Blocked-write flows on RS3 while recovering.
	haStage, _ := h.Stage("RSHandler")
	blocked := 0
	for _, s := range syns {
		if s.Stage == haStage && s.Host == 3 && s.Signature().Contains(h.points.haBlocked) {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("no blocked-write flows during recovery")
	}

	// Survivors opened the dead server's regions.
	orStage, _ := h.Stage("OpenRegionHandler")
	poStage, _ := h.Stage("PostOpenDeployTasksThread")
	slwStage, _ := h.Stage("SplitLogWorker")
	var opens, deploys, splits int
	for _, s := range syns {
		switch s.Stage {
		case orStage:
			opens++
		case poStage:
			deploys++
		case slwStage:
			if s.Signature().Contains(h.points.slwReplay) {
				splits++
			}
		}
	}
	if opens == 0 || deploys == 0 || splits == 0 {
		t.Fatalf("reassignment surge missing: opens=%d deploys=%d splits=%d", opens, deploys, splits)
	}
	// An abort error message was logged.
	aborts := 0
	for _, e := range h.Cluster().Host(3).Errors() {
		if e.Point == h.points.errAbort {
			aborts++
		}
	}
	if aborts == 0 {
		t.Fatal("no abort error message")
	}
	// The cluster keeps serving after the crash.
	gen := workload.NewGenerator(workload.Config{Records: 400, Seed: 9, Mix: workload.WriteHeavy()})
	ok := false
	for i := 0; i < 50; i++ {
		if _, err := h.Execute(gen.Next(), epoch.Add(90*time.Second).Add(time.Duration(i)*100*time.Millisecond)); err == nil {
			ok = true
		}
	}
	if !ok {
		t.Fatal("cluster stopped serving after RS crash")
	}
}

func TestBlockedWritesReturnError(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, nil)
	h.rs[0].recovering = true
	// Find a key served by RS 1.
	var key string
	for i := 0; i < 10000; i++ {
		k := workload.Key(i)
		if h.rsFor(k) == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key maps to RS 1")
	}
	_, err := h.Execute(workload.Op{Type: workload.OpUpdate, Key: key, Value: []byte("v")}, epoch)
	if !errors.Is(err, ErrRegionBlocked) {
		t.Fatalf("err = %v", err)
	}
	// Reads still served.
	if _, err := h.Execute(workload.Op{Type: workload.OpRead, Key: key}, epoch.Add(time.Second)); err != nil {
		t.Fatalf("read during recovery failed: %v", err)
	}
}

func TestScheduledMajorCompaction(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, func(c *Config) {
		c.MajorCompactAt = epoch.Add(20 * time.Second)
		c.FlushBytes = 4 << 10
	})
	drive(t, h, 5, workload.WriteHeavy(), 10, 30*time.Second)
	crStage, _ := h.Stage("CompactionRequest")
	majors := 0
	for _, s := range sink.Drain() {
		if s.Stage == crStage && s.Signature().Contains(h.points.crMergeMajor) {
			majors++
		}
	}
	if majors < len(h.rs) {
		t.Fatalf("major compactions = %d, want >= %d", majors, len(h.rs))
	}
}

func TestLogRollerFlows(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, nil)
	drive(t, h, 5, workload.WriteHeavy(), 10, 40*time.Second)
	lrStage, _ := h.Stage("LogRoller")
	rolls, skips := 0, 0
	for _, s := range sink.Drain() {
		if s.Stage != lrStage {
			continue
		}
		if s.Signature().Contains(h.points.lrRoll) {
			rolls++
		} else if s.Signature().Contains(h.points.lrSkip) {
			skips++
		}
	}
	if rolls+skips == 0 {
		t.Fatal("no LogRoller tasks")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() int {
		sink := stream.NewChannel(1 << 20)
		h := newTier(t, sink, nil, nil)
		drive(t, h, 11, workload.WriteHeavy(), 10, 5*time.Second)
		return len(sink.Drain())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %d vs %d synopses", a, b)
	}
}

func TestStageDiversity(t *testing.T) {
	sink := stream.NewChannel(1 << 20)
	h := newTier(t, sink, nil, func(c *Config) { c.FlushBytes = 8 << 10 })
	drive(t, h, 13, workload.Mix{Read: 0.3, Update: 0.6, Insert: 0.05, Scan: 0.05}, 15, 30*time.Second)
	stages := make(map[logpoint.StageID]bool)
	sigs := make(map[logpoint.StageID]map[synopsis.Signature]bool)
	for _, s := range sink.Drain() {
		stages[s.Stage] = true
		if sigs[s.Stage] == nil {
			sigs[s.Stage] = make(map[synopsis.Signature]bool)
		}
		sigs[s.Stage][s.Signature()] = true
	}
	// RS stages + DN stages together (collocated tier).
	if len(stages) < 12 {
		t.Fatalf("stages exercised = %d, want >= 12", len(stages))
	}
	total := 0
	for _, m := range sigs {
		total += len(m)
	}
	if total < 20 {
		t.Fatalf("distinct signatures = %d", total)
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

// TestHBaseTraceGolden pins the HBase tier's output to the bit, fault-free
// and with the WAL delayed (the HLog reaches disk through the HDFS write
// pipeline, so the fault sits on host 4's disk writes): it shares
// internal/storage/lsm and internal/workload with the Cassandra run
// TestTraceGolden pins, and the hashes were recorded at the same parent
// commit.
func TestHBaseTraceGolden(t *testing.T) {
	const horizon = 30 * time.Second
	cases := []struct {
		name  string
		inj   *faults.Injector
		count int
		hash  string
	}{
		{name: "fault-free", count: 251258,
			hash: "dd9a5b2098ed07c3ebd2e7dd1cf37922c9d00b0b3969b746553cd7497db16821"},
		{name: "wal-delay", inj: faults.NewInjector(faults.Fault{
			Name: "delay-wal", Point: faults.PointDiskWrite, Mode: faults.ModeDelay,
			Probability: 1, Delay: 100 * time.Millisecond, Host: 4,
			From: epoch.Add(horizon * 3 / 10), To: epoch.Add(horizon * 7 / 10),
		}), count: 221855,
			hash: "4de9ebf7c24d1789d8fa0877fd247e59bd8c07bbe077fde33afa1a5d5dc1211d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := stream.NewChannel(1 << 20)
			h := newTier(t, sink, nil, func(c *Config) { c.Injector = tc.inj })
			drive(t, h, 8, workload.WriteHeavy(), 40, horizon)
			syns := sink.Drain()
			if got := traceHash(syns); len(syns) != tc.count || got != tc.hash {
				t.Fatalf("trace drifted: %d synopses, hash %s; want %d, %s", len(syns), got, tc.count, tc.hash)
			}
		})
	}
}

// TestRecoveryCrashTraceIsDeterministic: a fixed-seed run through the
// recovery bug — a hog trips it, RegionServer 3 aborts, the survivors reopen
// its regions — gives the same trace every time. The regions used to go to
// the survivors in map-iteration order, so every run after the crash was a
// different one (and Fig. 10 with it).
func TestRecoveryCrashTraceIsDeterministic(t *testing.T) {
	run := func() (string, int) {
		sink := stream.NewChannel(1 << 20)
		hogs := faults.NewHogSchedule(faults.HogWindow{
			From: epoch.Add(5 * time.Second), To: epoch.Add(30 * time.Second),
			Procs: 4, Host: faults.AllHosts,
		})
		h := newTier(t, sink, hogs, func(c *Config) {
			c.RecoveryBugHost = 3
			c.RecoveryTriggerLatency = 12 * time.Millisecond
			c.MaxRecoveryRetries = 8
			c.RecoveryRetryEvery = time.Second
		})
		drive(t, h, 7, workload.WriteHeavy(), 20, 30*time.Second)
		if !h.RSCrashed(3) {
			t.Fatal("RegionServer 3 did not crash: the run never reached the reassignment")
		}
		syns := sink.Drain()
		return traceHash(syns), len(syns)
	}
	want, n := run()
	for i := 2; i <= 5; i++ {
		if got, m := run(); got != want || m != n {
			t.Fatalf("run %d: %d synopses, hash %s; run 1 had %d, %s", i, m, got, n, want)
		}
	}
}
