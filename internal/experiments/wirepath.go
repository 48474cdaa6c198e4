package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"saad/internal/analyzer"
	"saad/internal/metrics"
	"saad/internal/stream"
	"saad/internal/synopsis"
)

// WireLeg is one measured pass over the TCP loopback path: encode → wire →
// decode → engine feed, end to end.
type WireLeg struct {
	Duration       time.Duration
	SynopsesPerSec float64
	// BytesOnWire is what actually crossed the socket.
	BytesOnWire uint64
	// BytesPerSynopsis is the average wire cost of one record.
	BytesPerSynopsis float64
}

// SaturationLeg is the multi-link saturation pass: Links concurrent
// connections stream disjoint slices of the same trace into one server, so
// the measurement covers the server's accept/decode/feed path under
// connection-level parallelism rather than a single socket's ceiling.
type SaturationLeg struct {
	Links          int
	Duration       time.Duration
	SynopsesPerSec float64
	// PerLinkPerSec is the aggregate rate divided by the link count — how
	// much of a dedicated link's throughput each concurrent link retains.
	PerLinkPerSec float64
}

// WirepathResult benchmarks the synopsis wire path: the same trace is
// streamed over a real TCP loopback into a sharded engine — batch frames,
// per-connection flow interning and the pooled zero-allocation receive
// path. Not a paper artifact — it records this repo's own perf trajectory,
// and CI gates on SynopsesPerSec.
type WirepathResult struct {
	Records int
	Single  WireLeg
	// Saturation is the multi-link leg: the same records fanned across
	// saturationLinks concurrent connections into one server, recorded (and
	// CI-gated) as its own aggregate SynopsesPerSec series.
	Saturation SaturationLeg
	// SynopsesPerSec mirrors the single-link leg's rate at the top level —
	// the headline series regression tracking and the CI gate compare.
	SynopsesPerSec float64
}

// String renders the result.
func (r WirepathResult) String() string {
	var b strings.Builder
	b.WriteString("Wire path: tracker client → TCP loopback → server → engine\n")
	fmt.Fprintf(&b, "  single link: %d synopses in %v  (%.0f synopses/s, %.1f B/synopsis on the wire)\n",
		r.Records, r.Single.Duration.Round(time.Millisecond), r.Single.SynopsesPerSec, r.Single.BytesPerSynopsis)
	if r.Saturation.Links > 0 {
		fmt.Fprintf(&b, "  saturation: %d concurrent links, %.0f synopses/s aggregate (%.0f per link)\n",
			r.Saturation.Links, r.Saturation.SynopsesPerSec, r.Saturation.PerLinkPerSec)
	}
	return b.String()
}

// legRuns is how many times each leg repeats; the fastest pass is
// reported.
const legRuns = 3

// bestLeg runs wireLeg legRuns times and returns the fastest pass.
func bestLeg(model *analyzer.Model, trace []*synopsis.Synopsis) (WireLeg, error) {
	var best WireLeg
	for i := 0; i < legRuns; i++ {
		leg, err := wireLeg(model, cloneTrace(trace))
		if err != nil {
			return best, err
		}
		if best.SynopsesPerSec == 0 || leg.SynopsesPerSec > best.SynopsesPerSec {
			best = leg
		}
	}
	return best, nil
}

// saturationLinks is how many concurrent connections the saturation leg
// opens. Eight links saturate the accept/decode side on typical CI runners
// without drowning the measurement in scheduler noise.
const saturationLinks = 8

// bestSaturationLeg runs saturationLeg legRuns times, fastest pass wins.
func bestSaturationLeg(model *analyzer.Model, trace []*synopsis.Synopsis, links int) (SaturationLeg, error) {
	var best SaturationLeg
	for i := 0; i < legRuns; i++ {
		leg, err := saturationLeg(model, cloneTrace(trace), links)
		if err != nil {
			return best, err
		}
		if best.SynopsesPerSec == 0 || leg.SynopsesPerSec > best.SynopsesPerSec {
			best = leg
		}
	}
	return best, nil
}

// pooledEngine builds an engine that releases synopses into a pre-stocked
// receive pool.
func pooledEngine(model *analyzer.Model) (*synopsis.Pool, *analyzer.Engine) {
	pool := synopsis.NewPool(32768)
	warm := make([]*synopsis.Synopsis, 16384)
	for i := range warm {
		warm[i] = &synopsis.Synopsis{Points: make([]synopsis.PointCount, 0, 16)}
	}
	pool.PutN(warm)
	return pool, analyzer.NewEngine(model,
		analyzer.WithSynopsisRelease(pool.Put),
		analyzer.WithSynopsisReleaseBatch(pool.PutN))
}

// saturationLeg fans the trace round-robin across links concurrent
// connections into one pooled server/engine and measures the aggregate
// end-to-end rate: first byte sent to last record fed.
func saturationLeg(model *analyzer.Model, trace []*synopsis.Synopsis, links int) (SaturationLeg, error) {
	leg := SaturationLeg{Links: links}
	pool, eng := pooledEngine(model)
	srv, err := stream.Listen("127.0.0.1:0", eng, stream.WithServerPool(pool))
	if err != nil {
		return leg, err
	}
	defer srv.Close()

	// Round-robin keeps every link busy for the whole pass; contiguous
	// slices would let short links finish early and understate contention.
	chunks := make([][]*synopsis.Synopsis, links)
	for i, s := range trace {
		chunks[i%links] = append(chunks[i%links], s)
	}
	errs := make(chan error, links)
	var wg sync.WaitGroup
	start := time.Now()
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []*synopsis.Synopsis) {
			defer wg.Done()
			cli, err := stream.Dial(srv.Addr(), 2*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			for _, s := range chunk {
				cli.Emit(s)
			}
			if err := cli.Close(); err != nil {
				errs <- err
			}
		}(chunk)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return leg, err
	default:
	}
	deadline := time.Now().Add(2 * time.Minute)
	for eng.Fed() < uint64(len(trace)) {
		if time.Now().After(deadline) {
			return leg, fmt.Errorf("wirepath saturation: engine consumed %d/%d synopses", eng.Fed(), len(trace))
		}
		time.Sleep(200 * time.Microsecond)
	}
	leg.Duration = time.Since(start)
	eng.Flush()
	if err := eng.Close(); err != nil {
		return leg, err
	}
	if secs := leg.Duration.Seconds(); secs > 0 {
		leg.SynopsesPerSec = float64(len(trace)) / secs
		leg.PerLinkPerSec = leg.SynopsesPerSec / float64(links)
	}
	return leg, nil
}

// wireLeg streams trace once over a TCP loopback and measures end-to-end
// throughput into a fresh engine on the pooled receive path (pool
// pre-stocked past the engine's queue depth so the leg measures the warmed
// steady state).
func wireLeg(model *analyzer.Model, trace []*synopsis.Synopsis) (WireLeg, error) {
	var leg WireLeg
	reg := metrics.NewRegistry()
	cm := metrics.NewTCPClientMetrics(reg)
	pool, eng := pooledEngine(model)
	srv, err := stream.Listen("127.0.0.1:0", eng, stream.WithServerPool(pool))
	if err != nil {
		return leg, err
	}
	defer srv.Close()
	cli, err := stream.Dial(srv.Addr(), 2*time.Millisecond, stream.WithClientMetrics(cm))
	if err != nil {
		return leg, err
	}

	start := time.Now()
	for _, s := range trace {
		cli.Emit(s)
	}
	if err := cli.Close(); err != nil {
		return leg, err
	}
	// The leg ends when the engine has consumed every record, so decode and
	// feed cost is inside the measurement.
	deadline := time.Now().Add(2 * time.Minute)
	for eng.Fed() < uint64(len(trace)) {
		if time.Now().After(deadline) {
			return leg, fmt.Errorf("wirepath: engine consumed %d/%d synopses", eng.Fed(), len(trace))
		}
		time.Sleep(200 * time.Microsecond)
	}
	leg.Duration = time.Since(start)
	eng.Flush()
	if err := eng.Close(); err != nil {
		return leg, err
	}
	leg.BytesOnWire = cm.BytesSent.Value()
	if secs := leg.Duration.Seconds(); secs > 0 {
		leg.SynopsesPerSec = float64(len(trace)) / secs
	}
	if len(trace) > 0 {
		leg.BytesPerSynopsis = float64(leg.BytesOnWire) / float64(len(trace))
	}
	return leg, nil
}

// Wirepath generates a Cassandra trace, trains the analyzer, and streams
// the detection trace over TCP: one link, then saturationLinks at once.
func Wirepath(cfg Config) (WirepathResult, error) {
	cfg.applyDefaults()
	var out WirepathResult

	train, _, err := cfg.cassandraRun(10, nil, 733, nil)
	if err != nil {
		return out, err
	}
	res, _, err := cfg.cassandraRun(10, nil, 737, nil)
	if err != nil {
		return out, err
	}
	model, err := cfg.trainModel(train.syns)
	if err != nil {
		return out, err
	}
	// The simulated trace is too short for a stable wall-clock measurement;
	// replicate it (fresh copies, so per-leg trace stamping cannot alias)
	// until the wire path dominates the timer.
	trace := replicateTrace(res.syns, 200_000)
	out.Records = len(trace)

	// Each leg runs legRuns times and keeps the fastest pass: the legs are
	// short enough that scheduler and GC noise swamp a single measurement,
	// and the fastest pass is the least contaminated estimate.
	if out.Single, err = bestLeg(model, trace); err != nil {
		return out, err
	}
	if out.Saturation, err = bestSaturationLeg(model, trace, saturationLinks); err != nil {
		return out, err
	}
	out.SynopsesPerSec = out.Single.SynopsesPerSec
	return out, nil
}

// replicateTrace repeats the trace until it holds at least minRecords
// synopses, shifting nothing — windows repeat, which is fine for a
// throughput measurement.
func replicateTrace(trace []*synopsis.Synopsis, minRecords int) []*synopsis.Synopsis {
	if len(trace) == 0 {
		return nil
	}
	out := make([]*synopsis.Synopsis, 0, minRecords+len(trace))
	for len(out) < minRecords {
		out = append(out, trace...)
	}
	return out
}

// cloneTrace deep-copies a trace so each wire leg owns (and may stamp) its
// synopses independently.
func cloneTrace(trace []*synopsis.Synopsis) []*synopsis.Synopsis {
	out := make([]*synopsis.Synopsis, len(trace))
	for i, s := range trace {
		out[i] = s.Clone()
	}
	return out
}
