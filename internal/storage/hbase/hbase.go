// Package hbase implements a miniature HBase RegionServer tier (modeled on
// the 0.92 line the paper evaluates) running on the hdfs package as its
// storage substrate, with the same staged architecture the paper's Figure
// 10(a) reports anomalies for: the RPC stages (Listener, Connection, Call,
// Handler), the LSM write path (MemStore + WAL on HDFS, LogRoller,
// CompactionChecker/CompactionRequest), the HDFS client stages
// (DataStreamer, ResponseProcessor), and the recovery/reassignment stages
// (SplitLogWorker, OpenRegionHandler, PostOpenDeployTasksThread).
//
// It reproduces the paper's premature-recovery-termination bug (Section
// 5.5): when DataNodes respond slowly, a RegionServer starts WAL block
// recovery, misinterprets the DataNode's "already recovering" reply as an
// exception, retries in a tight cycle while refusing writes, and finally
// crashes when the retry budget is exhausted — after which the surviving
// RegionServers split its log and reopen its regions.
package hbase

import (
	"fmt"
	"time"

	"saad/internal/cluster"
	"saad/internal/faults"
	"saad/internal/logpoint"
	"saad/internal/storage/hdfs"
	"saad/internal/storage/lsm"
	"saad/internal/tracker"
	"saad/internal/workload"
)

// Regions is the number of regions hashed across the RegionServers.
const Regions = 16

// Config configures the simulated HBase/HDFS cluster.
type Config struct {
	// Hosts is the number of servers; each runs a RegionServer and a
	// DataNode (the paper's collocated deployment).
	Hosts int
	// Seed drives all randomness.
	Seed uint64
	// Sink receives task synopses.
	Sink tracker.Sink
	// Epoch is the virtual start time.
	Epoch time.Time
	// Injector applies I/O faults (may be nil).
	Injector *faults.Injector
	// Hogs applies disk-hog slowdowns (may be nil).
	Hogs *faults.HogSchedule
	// Profile overrides host latency models.
	Profile *cluster.Profile

	// FlushBytes is the MemStore flush threshold. Default 48 KiB.
	FlushBytes int
	// CompactFiles triggers a minor compaction. Default 4.
	CompactFiles int
	// MajorCompactAt optionally schedules a major compaction on every
	// RegionServer at a fixed virtual time (zero disables). The Figure 10
	// experiment uses it to reproduce the late major-compaction false
	// positive.
	MajorCompactAt time.Time
	// CompactionCheckEvery is the CompactionChecker period. Default 10 s.
	CompactionCheckEvery time.Duration
	// LogRollEvery is the LogRoller period. Default 30 s.
	LogRollEvery time.Duration
	// SplitCheckEvery is the SplitLogWorker poll period. Default 15 s.
	SplitCheckEvery time.Duration

	// RecoveryBugHost is the 1-based host whose RegionServer is susceptible
	// to the premature-recovery-termination bug (0 disables). The paper
	// observed it on RegionServer 3.
	RecoveryBugHost int
	// RecoveryTriggerLatency: when the exponential moving average of HLog
	// sync durations exceeds this, the susceptible RegionServer believes
	// its WAL block is corrupt and starts the recovery cycle. The default
	// of 15 ms sits between the default profile's healthy syncs (~3 ms)
	// and syncs under a 4-process disk hog (~18 ms).
	RecoveryTriggerLatency time.Duration
	// MaxRecoveryRetries is the retry budget before the RegionServer
	// aborts. Default 20.
	MaxRecoveryRetries int
	// RecoveryRetryEvery is the spacing of recovery retries. Default 2 s.
	RecoveryRetryEvery time.Duration

	// HDFS tunes the DataNode tier.
	HDFS hdfs.Config
}

func (c *Config) applyDefaults() {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 48 << 10
	}
	if c.CompactFiles <= 0 {
		c.CompactFiles = 4
	}
	if c.CompactionCheckEvery <= 0 {
		c.CompactionCheckEvery = 10 * time.Second
	}
	if c.LogRollEvery <= 0 {
		c.LogRollEvery = 30 * time.Second
	}
	if c.SplitCheckEvery <= 0 {
		c.SplitCheckEvery = 15 * time.Second
	}
	if c.RecoveryTriggerLatency <= 0 {
		c.RecoveryTriggerLatency = 15 * time.Millisecond
	}
	if c.MaxRecoveryRetries <= 0 {
		c.MaxRecoveryRetries = 20
	}
	if c.RecoveryRetryEvery <= 0 {
		c.RecoveryRetryEvery = 2 * time.Second
	}
}

type stages struct {
	Listener       logpoint.StageID
	Connection     logpoint.StageID
	Call           logpoint.StageID
	Handler        logpoint.StageID
	DataStreamer   logpoint.StageID
	ResponseProc   logpoint.StageID // ResponseProcessor
	LogRoller      logpoint.StageID
	CompactChecker logpoint.StageID // CompactionChecker
	CompactRequest logpoint.StageID // CompactionRequest
	SplitLogWorker logpoint.StageID
	OpenRegion     logpoint.StageID // OpenRegionHandler
	PostOpenDeploy logpoint.StageID // PostOpenDeployTasksThread
}

type points struct {
	liAccept, coRead, coDispatch logpoint.ID

	callGet, callPut, callMulti, callScan, callQueue, callDone logpoint.ID

	haBegin, haMemstore, haWALAppend, haLogSync, haFlushEngage,
	haGetMem, haGetHFile, haGetMiss, haScan, haBlocked, haDone logpoint.ID

	dsQueue, dsSend, dsClose, rpAck, rpDone logpoint.ID

	lrCheck, lrRoll, lrSkip logpoint.ID

	ccCheck, ccNone, ccRequest, ccMajorDue logpoint.ID

	crSelect, crReadFile, crMergeMinor, crMergeMajor, crWriteFile, crDone logpoint.ID

	slwPoll, slwNone, slwAcquire, slwReplay, slwDone logpoint.ID

	orBegin, orOpenStore, orDone, poDeploy, poVerify, poDone logpoint.ID

	// Recovery-bug points.
	haRecoveryStart, haRecoveryRetry logpoint.ID

	errWALSync, errAbort logpoint.ID
}

// regionServer is one RS process (independent of the DataNode on the same
// host: the paper's bug crashes the RS while the DN stays up).
type regionServer struct {
	host    *cluster.Host
	store   *lsm.Store
	regions map[int]bool
	crashed bool

	lastCompactCheck time.Time
	lastLogRoll      time.Time
	lastSplitCheck   time.Time
	didMajor         bool

	// recovery-bug state
	recovering      bool
	recoveryRetries int
	nextRetry       time.Time
	syncEMA         time.Duration
	// storeFiles counts HFiles on HDFS (flushes minus compactions).
	storeFiles int
}

// HBase is the simulated RegionServer tier plus its HDFS substrate.
type HBase struct {
	cfg    Config
	cl     *cluster.Cluster
	dfs    *hdfs.HDFS
	stages stages
	points points
	rs     []*regionServer

	completedOps uint64
	failedOps    uint64
}

// New builds the collocated HBase/HDFS cluster.
func New(cfg Config) (*HBase, error) {
	cfg.applyDefaults()
	cl := cluster.New(cluster.Config{
		Hosts:    cfg.Hosts,
		Seed:     cfg.Seed,
		Profile:  cfg.Profile,
		Injector: cfg.Injector,
		Hogs:     cfg.Hogs,
		Sink:     cfg.Sink,
		Epoch:    cfg.Epoch,
	})
	dfs, err := hdfs.New(cl, cfg.HDFS)
	if err != nil {
		return nil, err
	}
	h := &HBase{cfg: cfg, cl: cl, dfs: dfs}
	if err := h.register(); err != nil {
		return nil, err
	}
	for i, hst := range cl.Hosts() {
		rs := &regionServer{
			host: hst,
			store: lsm.NewStore(lsm.StoreConfig{
				FlushBytes:    cfg.FlushBytes,
				CompactTables: cfg.CompactFiles,
				Seed:          cfg.Seed + uint64(i)*104729,
			}),
			regions:          make(map[int]bool),
			lastCompactCheck: cfg.Epoch,
			lastLogRoll:      cfg.Epoch,
			lastSplitCheck:   cfg.Epoch,
		}
		h.rs = append(h.rs, rs)
	}
	for r := 0; r < Regions; r++ {
		h.rs[r%cfg.Hosts].regions[r] = true
	}
	return h, nil
}

func (h *HBase) register() error {
	d := h.cl.Dict
	var regErr error
	reg := func(name string, model logpoint.StagingModel) logpoint.StageID {
		id, err := d.RegisterStage(name, model)
		if err != nil && regErr == nil {
			regErr = fmt.Errorf("hbase: register stage %s: %w", name, err)
		}
		return id
	}
	h.stages = stages{
		Listener:       reg("RSListener", logpoint.ProducerConsumer),
		Connection:     reg("Connection", logpoint.ProducerConsumer),
		Call:           reg("Call", logpoint.ProducerConsumer),
		Handler:        reg("RSHandler", logpoint.ProducerConsumer),
		DataStreamer:   reg("DataStreamer", logpoint.DispatcherWorker),
		ResponseProc:   reg("ResponseProcessor", logpoint.DispatcherWorker),
		LogRoller:      reg("LogRoller", logpoint.DispatcherWorker),
		CompactChecker: reg("CompactionChecker", logpoint.DispatcherWorker),
		CompactRequest: reg("CompactionRequest", logpoint.DispatcherWorker),
		SplitLogWorker: reg("SplitLogWorker", logpoint.DispatcherWorker),
		OpenRegion:     reg("OpenRegionHandler", logpoint.DispatcherWorker),
		PostOpenDeploy: reg("PostOpenDeployTasksThread", logpoint.DispatcherWorker),
	}
	s := h.stages
	pt := func(stage logpoint.StageID, level logpoint.Level, tpl string) logpoint.ID {
		id, err := d.RegisterPoint(stage, level, tpl)
		if err != nil && regErr == nil {
			regErr = fmt.Errorf("hbase: register point %q: %w", tpl, err)
		}
		return id
	}
	h.points = points{
		liAccept:   pt(s.Listener, logpoint.LevelDebug, "Accepted RPC connection"),
		coRead:     pt(s.Connection, logpoint.LevelDebug, "Read RPC frame from connection"),
		coDispatch: pt(s.Connection, logpoint.LevelDebug, "Enqueued call for handler pool"),

		callGet:   pt(s.Call, logpoint.LevelDebug, "RPC call: get"),
		callPut:   pt(s.Call, logpoint.LevelDebug, "RPC call: put"),
		callMulti: pt(s.Call, logpoint.LevelDebug, "RPC call: multi (batched puts)"),
		callScan:  pt(s.Call, logpoint.LevelDebug, "RPC call: scan"),
		callQueue: pt(s.Call, logpoint.LevelDebug, "Call queued for execution"),
		callDone:  pt(s.Call, logpoint.LevelDebug, "Call response serialized"),

		haBegin:       pt(s.Handler, logpoint.LevelDebug, "Handler picked up call"),
		haMemstore:    pt(s.Handler, logpoint.LevelDebug, "Applied edit to MemStore"),
		haWALAppend:   pt(s.Handler, logpoint.LevelDebug, "Appended edit to HLog"),
		haLogSync:     pt(s.Handler, logpoint.LevelDebug, "HLog sync to HDFS pipeline"),
		haFlushEngage: pt(s.Handler, logpoint.LevelDebug, "MemStore over limit; flushing region"),
		haGetMem:      pt(s.Handler, logpoint.LevelDebug, "Get served from MemStore"),
		haGetHFile:    pt(s.Handler, logpoint.LevelDebug, "Get merged from store files"),
		haGetMiss:     pt(s.Handler, logpoint.LevelDebug, "Get found no cell for row"),
		haScan:        pt(s.Handler, logpoint.LevelDebug, "Scanner next batch"),
		haBlocked:     pt(s.Handler, logpoint.LevelWarn, "Region blocked: waiting for log recovery"),
		haDone:        pt(s.Handler, logpoint.LevelDebug, "Handler finished call"),

		dsQueue: pt(s.DataStreamer, logpoint.LevelDebug, "Queued packet for block stream"),
		dsSend:  pt(s.DataStreamer, logpoint.LevelDebug, "Streaming packet to pipeline"),
		dsClose: pt(s.DataStreamer, logpoint.LevelDebug, "Closing block stream"),
		rpAck:   pt(s.ResponseProc, logpoint.LevelDebug, "Processing pipeline ack"),
		rpDone:  pt(s.ResponseProc, logpoint.LevelDebug, "All acks received for block"),

		lrCheck: pt(s.LogRoller, logpoint.LevelDebug, "Checking HLog size for roll"),
		lrRoll:  pt(s.LogRoller, logpoint.LevelDebug, "Rolling HLog; opening new writer"),
		lrSkip:  pt(s.LogRoller, logpoint.LevelDebug, "HLog under threshold; skipping roll"),

		ccCheck:    pt(s.CompactChecker, logpoint.LevelDebug, "Compaction check for online regions"),
		ccNone:     pt(s.CompactChecker, logpoint.LevelDebug, "No compaction needed"),
		ccRequest:  pt(s.CompactChecker, logpoint.LevelDebug, "Compaction requested for region"),
		ccMajorDue: pt(s.CompactChecker, logpoint.LevelDebug, "Major compaction period elapsed for region"),

		crSelect:     pt(s.CompactRequest, logpoint.LevelDebug, "Selected store files for compaction"),
		crReadFile:   pt(s.CompactRequest, logpoint.LevelDebug, "Reading store file"),
		crMergeMinor: pt(s.CompactRequest, logpoint.LevelDebug, "Minor compaction merge"),
		crMergeMajor: pt(s.CompactRequest, logpoint.LevelDebug, "Major compaction merge of all store files"),
		crWriteFile:  pt(s.CompactRequest, logpoint.LevelDebug, "Writing compacted store file"),
		crDone:       pt(s.CompactRequest, logpoint.LevelDebug, "Compaction complete"),

		slwPoll:    pt(s.SplitLogWorker, logpoint.LevelDebug, "Polling for log splitting work"),
		slwNone:    pt(s.SplitLogWorker, logpoint.LevelDebug, "No log splitting tasks"),
		slwAcquire: pt(s.SplitLogWorker, logpoint.LevelDebug, "Acquired log splitting task"),
		slwReplay:  pt(s.SplitLogWorker, logpoint.LevelDebug, "Replaying WAL edits from split"),
		slwDone:    pt(s.SplitLogWorker, logpoint.LevelDebug, "Log split task finished"),

		orBegin:     pt(s.OpenRegion, logpoint.LevelDebug, "Opening region"),
		orOpenStore: pt(s.OpenRegion, logpoint.LevelDebug, "Initializing region stores"),
		orDone:      pt(s.OpenRegion, logpoint.LevelDebug, "Region opened"),
		poDeploy:    pt(s.PostOpenDeploy, logpoint.LevelDebug, "Post-open deploy tasks for region"),
		poVerify:    pt(s.PostOpenDeploy, logpoint.LevelDebug, "Verified region deployment in META"),
		poDone:      pt(s.PostOpenDeploy, logpoint.LevelDebug, "Post-open deploy complete"),

		haRecoveryStart: pt(s.Handler, logpoint.LevelWarn, "HLog block looks corrupt; requesting lease recovery"),
		haRecoveryRetry: pt(s.Handler, logpoint.LevelWarn, "Exception from recoverBlock; retrying recovery"),

		errWALSync: pt(s.Handler, logpoint.LevelError, "IOException syncing HLog"),
		errAbort:   pt(s.Handler, logpoint.LevelError, "RegionServer abort: exhausted recoverBlock retries"),
	}
	return regErr
}

// Cluster returns the shared substrate.
func (h *HBase) Cluster() *cluster.Cluster { return h.cl }

// HDFS returns the DataNode tier.
func (h *HBase) HDFS() *hdfs.HDFS { return h.dfs }

// Stage resolves a stage by registered name.
func (h *HBase) Stage(name string) (logpoint.StageID, bool) { return h.cl.Dict.StageByName(name) }

// RSCrashed reports whether the RegionServer on the 1-based host crashed.
func (h *HBase) RSCrashed(host int) bool { return h.rs[host-1].crashed }

// CompletedOps returns the number of successful client operations.
func (h *HBase) CompletedOps() uint64 { return h.completedOps }

// FailedOps returns the number of failed client operations.
func (h *HBase) FailedOps() uint64 { return h.failedOps }

// regionOf maps a key to its region.
func regionOf(key string) int {
	hash := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		hash ^= uint64(key[i])
		hash *= 1099511628211
	}
	return int(hash % Regions)
}

// rsFor returns the index of the RegionServer serving key, or -1.
func (h *HBase) rsFor(key string) int {
	region := regionOf(key)
	for i, rs := range h.rs {
		if rs.regions[region] && !rs.crashed {
			return i
		}
	}
	return -1
}

// Workload ops below drive the cluster; Execute handles single ops and
// ExecuteMulti a batched multi-put (the YCSB 0.1.4 batching bug's RPC).
func (h *HBase) Execute(op workload.Op, at time.Time) (time.Time, error) {
	h.Tick(at)
	idx := h.rsFor(op.Key)
	if idx < 0 {
		h.failedOps++
		return at, fmt.Errorf("hbase: no RegionServer online for key %q", op.Key)
	}
	done, err := h.executeCall(idx, []workload.Op{op}, at)
	if err != nil {
		h.failedOps++
	} else {
		h.completedOps++
	}
	h.cl.Clock.AdvanceTo(done)
	return done, err
}

// ExecuteMulti executes a batched multi-put on the RegionServer of the
// first key.
func (h *HBase) ExecuteMulti(ops []workload.Op, at time.Time) (time.Time, error) {
	if len(ops) == 0 {
		return at, nil
	}
	h.Tick(at)
	idx := h.rsFor(ops[0].Key)
	if idx < 0 {
		h.failedOps++
		return at, fmt.Errorf("hbase: no RegionServer online for multi")
	}
	done, err := h.executeCall(idx, ops, at)
	if err != nil {
		h.failedOps++
	} else {
		h.completedOps += uint64(len(ops))
	}
	h.cl.Clock.AdvanceTo(done)
	return done, err
}
