package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// kind distinguishes the exposition types.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// entry is one registered metric family.
type entry struct {
	name string
	help string
	kind kind

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
	vec       *CounterVec
	gvec      *GaugeVec
	hvec      *HistogramVec
}

// Registry holds named metrics and renders them. Registration is expected
// at startup; reads (Snapshot, WritePrometheus) may happen concurrently
// with metric updates at any time. Registering a duplicate name panics
// (programmer error, as in Prometheus's MustRegister).
type Registry struct {
	mu      sync.Mutex
	order   []string
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) register(e *entry) {
	validName(e.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", e.name))
	}
	r.entries[e.name] = e
	r.order = append(r.order, e.name)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at scrape
// time. This is how components that already keep their own atomic
// accounting (e.g. the stream channel's native emit/drop counters) are
// exposed with zero additional hot-path cost. fn must be monotonic and
// safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.register(&entry{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&entry{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed by fn at scrape
// time (e.g. a channel's live depth). fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&entry{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// NewHistogram registers and returns a fixed-bucket histogram; bounds are
// the bucket upper bounds (an implicit +Inf bucket is added).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&entry{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := newVec("CounterVec", labelNames, func() *Counter { return new(Counter) })
	r.register(&entry{name: name, help: help, kind: kindCounter, vec: v})
	return v
}

// NewHistogramVec registers and returns a labeled histogram family; every
// child shares the same bucket upper bounds (an implicit +Inf bucket is
// added).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	bounds = append([]float64(nil), bounds...)
	v := newVec("HistogramVec", labelNames, func() *Histogram { return newHistogram(bounds) })
	r.register(&entry{name: name, help: help, kind: kindHistogram, hvec: v})
	return v
}

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	v := newVec("GaugeVec", labelNames, func() *Gauge { return new(Gauge) })
	r.register(&entry{name: name, help: help, kind: kindGauge, gvec: v})
	return v
}

// Names returns all registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// snapshotEntries copies the entry list so rendering does not hold the
// registry lock while formatting.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name])
	}
	return out
}

// Snapshot captures all current values for programmatic use.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range r.snapshotEntries() {
		switch {
		case e.counter != nil:
			s.Counters[e.name] = e.counter.Value()
		case e.counterFn != nil:
			s.Counters[e.name] = e.counterFn()
		case e.vec != nil:
			e.vec.each(func(lbl string, c *Counter) { s.Counters[e.name+lbl] = c.Value() })
		case e.gvec != nil:
			e.gvec.each(func(lbl string, g *Gauge) { s.Gauges[e.name+lbl] = g.Value() })
		case e.gauge != nil:
			s.Gauges[e.name] = e.gauge.Value()
		case e.gaugeFn != nil:
			s.Gauges[e.name] = e.gaugeFn()
		case e.hist != nil:
			s.Histograms[e.name] = e.hist.snapshot()
		case e.hvec != nil:
			e.hvec.each(func(lbl string, h *Histogram) { s.Histograms[e.name+lbl] = h.snapshot() })
		}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, e := range r.snapshotEntries() {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
		switch {
		case e.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", e.name, e.counter.Value())
		case e.counterFn != nil:
			fmt.Fprintf(&b, "%s %d\n", e.name, e.counterFn())
		case e.vec != nil:
			e.vec.each(func(lbl string, c *Counter) {
				fmt.Fprintf(&b, "%s%s %d\n", e.name, lbl, c.Value())
			})
		case e.gvec != nil:
			e.gvec.each(func(lbl string, g *Gauge) {
				fmt.Fprintf(&b, "%s%s %s\n", e.name, lbl, formatFloat(g.Value()))
			})
		case e.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatFloat(e.gauge.Value()))
		case e.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatFloat(e.gaugeFn()))
		case e.hist != nil:
			snap := e.hist.snapshot()
			for _, bucket := range snap.Buckets {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", e.name, formatBound(bucket.UpperBound), bucket.Count)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", e.name, formatFloat(snap.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", e.name, snap.Count)
		case e.hvec != nil:
			e.hvec.each(func(lbl string, h *Histogram) {
				snap := h.snapshot()
				for _, bucket := range snap.Buckets {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", e.name,
						mergeLE(lbl, formatBound(bucket.UpperBound)), bucket.Count)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", e.name, lbl, formatFloat(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", e.name, lbl, snap.Count)
			})
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func isInf(f float64) bool { return f > 1.7e308 }

// formatBound renders a histogram bucket upper bound, "+Inf" for the last.
func formatBound(f float64) string {
	if isInf(f) {
		return "+Inf"
	}
	return formatFloat(f)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// mergeLE splices the "le" bucket label into an already-rendered label set:
// `{stage="3"}` + `0.001` → `{stage="3",le="0.001"}` (or a bare le set when
// the family has no labels).
func mergeLE(lbl, bound string) string {
	le := `le="` + escapeLabelValue(bound) + `"`
	if lbl == "" {
		return "{" + le + "}"
	}
	return lbl[:len(lbl)-1] + "," + le + "}"
}

// renderLabels renders `{k1="v1",k2="v2"}` with names in sorted order.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	var b strings.Builder
	b.WriteByte('{')
	for n, i := range idx {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
