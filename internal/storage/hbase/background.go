package hbase

import (
	"sort"
	"time"

	"saad/internal/vtime"
)

// Tick runs background work due by now: the HDFS tier's heartbeats, and on
// every live RegionServer the CompactionChecker, LogRoller, SplitLogWorker
// and the recovery-bug retry cycle.
func (h *HBase) Tick(now time.Time) {
	h.dfs.Tick(now)
	for idx, rs := range h.rs {
		if rs.crashed || rs.host.Crashed() {
			continue
		}
		for !rs.lastCompactCheck.Add(h.cfg.CompactionCheckEvery).After(now) {
			rs.lastCompactCheck = rs.lastCompactCheck.Add(h.cfg.CompactionCheckEvery)
			h.compactionCheck(idx, rs.lastCompactCheck)
		}
		for !rs.lastLogRoll.Add(h.cfg.LogRollEvery).After(now) {
			rs.lastLogRoll = rs.lastLogRoll.Add(h.cfg.LogRollEvery)
			h.logRoll(idx, rs.lastLogRoll)
		}
		for !rs.lastSplitCheck.Add(h.cfg.SplitCheckEvery).After(now) {
			rs.lastSplitCheck = rs.lastSplitCheck.Add(h.cfg.SplitCheckEvery)
			h.splitLogPoll(idx, rs.lastSplitCheck, false)
		}
		if !h.cfg.MajorCompactAt.IsZero() && !rs.didMajor && !now.Before(h.cfg.MajorCompactAt) {
			rs.didMajor = true
			// The checker notices the major-compaction period elapsed — a
			// flow never seen when training lacks a major compaction.
			cur := vtime.NewCursor(now)
			cc := rs.host.BeginTask(h.stages.CompactChecker, cur)
			cc.Hit(h.points.ccCheck, cur.Now())
			cc.Hit(h.points.ccMajorDue, cur.Now())
			cc.Hit(h.points.ccRequest, cur.Now())
			cc.End(cur.Now())
			h.compactRegion(idx, cur.Now(), true)
		}
		if rs.recovering && !now.Before(rs.nextRetry) {
			h.recoveryRetry(idx, now)
		}
	}
}

// compactionCheck runs one CompactionChecker pass; when enough store files
// accumulated it spawns a CompactionRequest task.
func (h *HBase) compactionCheck(idx int, at time.Time) {
	rs := h.rs[idx]
	host := rs.host
	p := h.points

	cur := vtime.NewCursor(at)
	cc := host.BeginTask(h.stages.CompactChecker, cur)
	cc.Hit(p.ccCheck, cur.Now())
	host.Compute(cur, 0.2)
	if rs.storeFiles < h.cfg.CompactFiles {
		cc.Hit(p.ccNone, cur.Now())
		cc.End(cur.Now())
		return
	}
	cc.Hit(p.ccRequest, cur.Now())
	cc.End(cur.Now())
	h.compactRegion(idx, cur.Now(), false)
}

// compactRegion runs a CompactionRequest task: read store files from HDFS,
// merge, write the compacted file back.
func (h *HBase) compactRegion(idx int, at time.Time, major bool) {
	rs := h.rs[idx]
	host := rs.host
	p := h.points

	cur := vtime.NewCursor(at)
	cr := host.BeginTask(h.stages.CompactRequest, cur)
	cr.Hit(p.crSelect, cur.Now())
	files := 2
	if major {
		files = rs.storeFiles
		if files < 2 {
			files = 2
		}
	}
	for i := 0; i < files; i++ {
		cr.Hit(p.crReadFile, cur.Now())
		doneAt, err := h.dfs.ReadBlock(idx, 64<<10, cur.Now())
		if err == nil && doneAt.After(cur.Now()) {
			cur.Add(doneAt.Sub(cur.Now()))
		}
	}
	if major {
		cr.Hit(p.crMergeMajor, cur.Now())
	} else {
		cr.Hit(p.crMergeMinor, cur.Now())
	}
	host.Compute(cur, float64(files))
	cr.Hit(p.crWriteFile, cur.Now())
	doneAt, err := h.pipelineWrite(idx, files*48<<10, cur.Now())
	if err == nil {
		if doneAt.After(cur.Now()) {
			cur.Add(doneAt.Sub(cur.Now()))
		}
		rs.store.Compact(files)
		rs.storeFiles -= files - 1
		if rs.storeFiles < 1 {
			rs.storeFiles = 1
		}
	}
	cr.Hit(p.crDone, cur.Now())
	cr.End(cur.Now())
}

// logRoll runs one LogRoller pass: roll the HLog when it grew enough.
func (h *HBase) logRoll(idx int, at time.Time) {
	rs := h.rs[idx]
	host := rs.host
	p := h.points

	cur := vtime.NewCursor(at)
	lr := host.BeginTask(h.stages.LogRoller, cur)
	lr.Hit(p.lrCheck, cur.Now())
	host.Compute(cur, 0.2)
	if rs.store.WAL().Bytes() < h.cfg.FlushBytes/2 {
		lr.Hit(p.lrSkip, cur.Now())
		lr.End(cur.Now())
		return
	}
	lr.Hit(p.lrRoll, cur.Now())
	doneAt, err := h.pipelineWrite(idx, 16<<10, cur.Now())
	if err == nil && doneAt.After(cur.Now()) {
		cur.Add(doneAt.Sub(cur.Now()))
	}
	rs.store.WAL().Trim(rs.store.WAL().LastSeq())
	lr.End(cur.Now())
}

// splitLogPoll runs one SplitLogWorker pass. With work=false it is the idle
// poll; recoverRegions drives the work=true path after an RS crash.
func (h *HBase) splitLogPoll(idx int, at time.Time, work bool) time.Time {
	rs := h.rs[idx]
	host := rs.host
	p := h.points

	cur := vtime.NewCursor(at)
	slw := host.BeginTask(h.stages.SplitLogWorker, cur)
	slw.Hit(p.slwPoll, cur.Now())
	host.Compute(cur, 0.2)
	if !work {
		slw.Hit(p.slwNone, cur.Now())
		slw.End(cur.Now())
		return cur.Now()
	}
	slw.Hit(p.slwAcquire, cur.Now())
	// Replay the dead server's WAL from HDFS.
	for i := 0; i < 4; i++ {
		slw.Hit(p.slwReplay, cur.Now())
		doneAt, err := h.dfs.ReadBlock(idx, 64<<10, cur.Now())
		if err == nil && doneAt.After(cur.Now()) {
			cur.Add(doneAt.Sub(cur.Now()))
		}
	}
	slw.Hit(p.slwDone, cur.Now())
	slw.End(cur.Now())
	return cur.Now()
}

// recoveryRetry executes one cycle of the premature-recovery-termination
// bug: send recoverBlock to the local DataNode; the DataNode's "already in
// recovery" reply is misread as an exception, so the RegionServer retries
// until the budget is exhausted and then aborts.
func (h *HBase) recoveryRetry(idx int, now time.Time) {
	rs := h.rs[idx]
	host := rs.host
	p := h.points

	doneAt, busy := h.dfs.RecoverBlock(idx, now)
	cur := vtime.NewCursor(doneAt)
	ha := host.BeginTask(h.stages.Handler, cur)
	if busy {
		// Misinterpreted response: schedule another retry.
		ha.Hit(p.haRecoveryRetry, cur.Now())
		host.Compute(cur, 0.2)
		rs.recoveryRetries++
	} else {
		// Even a successful recovery reply is followed by a confirmation
		// that never arrives before the next poll — the bug's cycle keeps
		// the server requesting recovery (the paper's "repetitive cycle").
		ha.Hit(p.haRecoveryStart, cur.Now())
		rs.recoveryRetries++
	}
	ha.End(cur.Now())
	rs.nextRetry = now.Add(h.cfg.RecoveryRetryEvery)

	if rs.recoveryRetries >= h.cfg.MaxRecoveryRetries {
		host.LogError(h.stages.Handler, p.errAbort, cur.Now())
		h.crashRS(idx, cur.Now())
	}
}

// crashRS aborts the RegionServer (the DataNode on the host stays up) and
// reassigns its regions to the survivors, generating the log-splitting and
// region-opening task surge of high-intensity fault 1.
func (h *HBase) crashRS(idx int, at time.Time) {
	rs := h.rs[idx]
	if rs.crashed {
		return
	}
	rs.crashed = true
	rs.recovering = false

	// Survivors split the dead server's logs...
	splitDone := at
	for i, other := range h.rs {
		if other.crashed {
			continue
		}
		if done := h.splitLogPoll(i, at, true); done.After(splitDone) {
			splitDone = done
		}
	}
	// ...and reopen its regions round-robin.
	survivors := make([]int, 0, len(h.rs))
	for i, other := range h.rs {
		if !other.crashed {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		return
	}
	// In region order: which survivor opens which region decides every task
	// after the crash, and map order would decide it differently each run.
	regions := make([]int, 0, len(rs.regions))
	for region := range rs.regions {
		regions = append(regions, region)
	}
	sort.Ints(regions)
	for i, region := range regions {
		h.openRegion(survivors[i%len(survivors)], region, splitDone)
	}
	rs.regions = make(map[int]bool)
}

// openRegion runs the OpenRegionHandler + PostOpenDeployTasksThread pair on
// the target server.
func (h *HBase) openRegion(idx int, region int, at time.Time) {
	rs := h.rs[idx]
	host := rs.host
	p := h.points

	cur := vtime.NewCursor(at)
	or := host.BeginTask(h.stages.OpenRegion, cur)
	or.Hit(p.orBegin, cur.Now())
	doneAt, err := h.dfs.ReadBlock(idx, 32<<10, cur.Now())
	if err == nil && doneAt.After(cur.Now()) {
		cur.Add(doneAt.Sub(cur.Now()))
	}
	or.Hit(p.orOpenStore, cur.Now())
	host.Compute(cur, 0.5)
	or.Hit(p.orDone, cur.Now())
	or.End(cur.Now())
	rs.regions[region] = true

	poCur := vtime.NewCursor(cur.Now())
	po := host.BeginTask(h.stages.PostOpenDeploy, poCur)
	po.Hit(p.poDeploy, poCur.Now())
	host.Compute(poCur, 0.3)
	po.Hit(p.poVerify, poCur.Now())
	_ = host.NetSend(poCur)
	po.Hit(p.poDone, poCur.Now())
	po.End(poCur.Now())
}
