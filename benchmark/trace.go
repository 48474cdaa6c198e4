package main

import (
	"fmt"
	"sync"
	"time"

	"saad/internal/analyzer"
	"saad/internal/faults"
	"saad/internal/logpoint"
	"saad/internal/storage/cassandra"
	"saad/internal/synopsis"
	"saad/internal/tracker"
	"saad/internal/workload"
)

// The base trace is one lap: the Cassandra run every wire-path experiment
// of this repo uses (4 hosts, 10 paper-minutes at 5 s/minute, 40 clients,
// 150 ms think time, write-heavy), generated from the seed alone.
const (
	traceHosts   = 4
	traceMinutes = 10
	// quickMinutes is -quick's shorter lap: the same plumbing in a
	// fraction of the set-up time.
	quickMinutes = 3
	minuteScale  = 5 * time.Second
	traceClients = 40
	traceThink   = 150 * time.Millisecond
	traceRecords = 2000

	// Seed offsets keep the training run, the detection run and their
	// operation generators on distinct random streams.
	trainSeedOffset  = 733
	detectSeedOffset = 737
)

// epoch is the fixed virtual start time of lap 0; it is window-aligned.
var epoch = time.Date(2014, 12, 8, 10, 0, 0, 0, time.UTC)

// record is one task of the lap, as offsets from the lap's start. Start
// and duration are whole microseconds — the wire format's resolution — so
// the wire and in-process paths feed the detector identical values.
type record struct {
	stage  logpoint.StageID
	host   uint16
	start  time.Duration
	dur    time.Duration
	points []synopsis.PointCount
}

// lap is the recorded base trace plus the shift that separates replays of
// it: the trace span rounded up to a whole detection window, so event time
// advances lap over lap and windows keep closing.
type lap struct {
	recs []record
	span time.Duration
}

// collector gathers the simulator's synopses in emission order.
type collector struct {
	mu   sync.Mutex
	syns []*synopsis.Synopsis
}

func (c *collector) Emit(s *synopsis.Synopsis) {
	c.mu.Lock()
	c.syns = append(c.syns, s)
	c.mu.Unlock()
}

// simulate drives the Cassandra cluster for minutes paper minutes and
// returns every synopsis its trackers emitted.
func simulate(seed uint64, minutes int, inj *faults.Injector) ([]*synopsis.Synopsis, error) {
	sink := &collector{}
	cass, err := cassandra.New(cassandra.Config{
		Hosts:    traceHosts,
		Seed:     seed,
		Sink:     sink,
		Epoch:    epoch,
		Injector: inj,
	})
	if err != nil {
		return nil, fmt.Errorf("build cassandra cluster: %w", err)
	}
	gen := workload.NewGenerator(workload.Config{
		Records: traceRecords,
		Seed:    seed + 1,
		Mix:     workload.WriteHeavy(),
	})
	pool := workload.NewClientPool(traceClients, epoch, traceThink)
	end := epoch.Add(time.Duration(minutes) * minuteScale)
	for {
		id, at := pool.Acquire()
		if at.After(end) {
			break
		}
		// A failed operation still produced its tasks; the client simply
		// issues its next one after the failure returned.
		done, _ := cass.Execute(gen.Next(), at)
		pool.Release(id, done)
	}
	return sink.syns, nil
}

// walFault is the faulted lap's injection: every WAL append on host 4 takes
// 100 ms longer from three tenths to seven tenths of the lap (paper-minutes
// 3 to 7 of the full ten).
func walFault(minutes int) *faults.Injector {
	span := time.Duration(minutes) * minuteScale
	return faults.NewInjector(faults.Fault{
		Name: "delay-wal", Point: faults.PointWALAppend, Mode: faults.ModeDelay,
		Probability: 1, Delay: 100 * time.Millisecond, Host: 4,
		From: epoch.Add(span * 3 / 10), To: epoch.Add(span * 7 / 10),
	})
}

// analyzerConfig is the paper's analyzer configuration with the window
// matched to one paper minute.
func analyzerConfig() analyzer.Config {
	cfg := analyzer.DefaultConfig()
	cfg.Window = minuteScale
	return cfg
}

// newLap records the detection run drawn from the seed as a lap.
func newLap(seed uint64, minutes int, faulted bool) (*lap, error) {
	var inj *faults.Injector
	if faulted {
		inj = walFault(minutes)
	}
	syns, err := simulate(seed+detectSeedOffset, minutes, inj)
	if err != nil {
		return nil, err
	}
	if len(syns) == 0 {
		return nil, fmt.Errorf("seed %d produced an empty trace", seed)
	}
	l := &lap{recs: make([]record, len(syns))}
	var last time.Duration
	for i, s := range syns {
		start := s.Start.Sub(epoch).Truncate(time.Microsecond)
		if start < 0 {
			return nil, fmt.Errorf("synopsis %d starts before the epoch", i)
		}
		if start > last {
			last = start
		}
		l.recs[i] = record{
			stage:  s.Stage,
			host:   s.Host,
			start:  start,
			dur:    s.Duration.Truncate(time.Microsecond),
			points: s.Points,
		}
	}
	l.span = (last/minuteScale + 1) * minuteScale
	return l, nil
}

// share returns the records of the hosts generator g of n replays, in
// trace order. Hosts are dealt round-robin so every generator carries a
// like share of the faulted host's neighbours.
func (l *lap) share(g, n int) []record {
	if n == 1 {
		return l.recs
	}
	var out []record
	for _, r := range l.recs {
		if int(r.host-1)%n == g {
			out = append(out, r)
		}
	}
	return out
}

// chunkTasks is the unit the generator times and paces: 128 tasks.
const chunkTasks = 128

// generator replays its share of the lap through the real tracker, one
// tracker.Tracker per host, on one goroutine.
type generator struct {
	recs     []record
	trackers [traceHosts + 1]*tracker.Tracker
	span     time.Duration

	// chunkNs collects the wall time of every full chunk of the current
	// leg: the time this thread spent inside Begin/Hit/End, Sink.Emit
	// included.
	chunkNs []int64
	// lateNs collects, for a paced leg, how far behind its due time each
	// chunk started.
	lateNs []int64

	// window, when set, closes the loop (pooled pipelines).
	window *window

	// chunk and chunkDue identify the chunk being replayed; the traced
	// leg's sink wrapper reads them from this same goroutine.
	chunk    int64
	chunkDue time.Time
	// onChunk, when set, receives every finished chunk (traced leg only).
	onChunk func(id int64, start, end time.Time)
}

func newGenerator(recs []record, span time.Duration, sink tracker.Sink) *generator {
	g := &generator{recs: recs, span: span}
	for h := 1; h <= traceHosts; h++ {
		g.trackers[h] = tracker.New(uint16(h), sink)
	}
	return g
}

// emitted is the number of synopses this generator's trackers produced.
func (g *generator) emitted() uint64 {
	var n uint64
	for _, t := range g.trackers[1:] {
		n += t.Emitted()
	}
	return n
}

// replay runs laps [from, to) through the trackers. rate > 0 paces the
// replay open-loop at that many tasks per second: each chunk has a due
// time on a fixed schedule and the generator sleeps only when ahead of it.
func (g *generator) replay(from, to int, rate float64) {
	var perChunk time.Duration
	if rate > 0 {
		perChunk = time.Duration(float64(chunkTasks) / rate * float64(time.Second))
	}
	t0 := time.Now()
	var n int64
	for lapIdx := from; lapIdx < to; lapIdx++ {
		base := epoch.Add(time.Duration(lapIdx) * g.span)
		for i := 0; i < len(g.recs); i += chunkTasks {
			end := i + chunkTasks
			if end > len(g.recs) {
				end = len(g.recs)
			}
			if g.window != nil {
				g.window.wait()
			}
			start := time.Now()
			g.chunkDue = start
			if rate > 0 {
				due := t0.Add(time.Duration(n) * perChunk)
				if wait := due.Sub(start); wait > 0 {
					time.Sleep(wait)
					start = time.Now()
				}
				g.chunkDue = due
				g.lateNs = append(g.lateNs, int64(start.Sub(due)))
			}
			g.chunk++
			n++
			for j := i; j < end; j++ {
				r := &g.recs[j]
				begin := base.Add(r.start)
				last := begin.Add(r.dur)
				t := g.trackers[r.host].Begin(r.stage, begin)
				for _, pc := range r.points {
					for k := uint32(0); k < pc.Count; k++ {
						t.Hit(pc.Point, last)
					}
				}
				t.End(last)
			}
			done := time.Now()
			if g.window != nil {
				g.window.sent.Add(uint64(end - i))
			}
			if end-i == chunkTasks {
				g.chunkNs = append(g.chunkNs, int64(done.Sub(start)))
			}
			if g.onChunk != nil {
				g.onChunk(g.chunk, g.chunkDue, done)
			}
		}
	}
}

// shifted calls fn with every record of laps [0, laps) as the synopsis the
// tracker would emit for it, in replay order. The synopsis is reused across
// calls; task ids count up per host from 1 exactly as the trackers' do.
func (l *lap) shifted(laps int, fn func(*synopsis.Synopsis)) {
	var ids [traceHosts + 1]uint64
	var s synopsis.Synopsis
	for lapIdx := 0; lapIdx < laps; lapIdx++ {
		base := epoch.Add(time.Duration(lapIdx) * l.span)
		for i := range l.recs {
			r := &l.recs[i]
			ids[r.host]++
			s = synopsis.Synopsis{
				Stage:    r.stage,
				Host:     r.host,
				TaskID:   ids[r.host],
				Start:    base.Add(r.start),
				Duration: r.dur,
				Points:   r.points,
			}
			fn(&s)
		}
	}
}
