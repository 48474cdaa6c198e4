// Package metrics is SAAD's self-observability substrate: stdlib-only
// counters, gauges and fixed-bucket histograms backed by sync/atomic, a
// named registry, and HTTP exposition in Prometheus text format plus
// expvar-style JSON and net/http/pprof.
//
// SAAD is itself a monitoring system; without this layer the pipeline is a
// black box (is the tracker emitting? is the stream dropping? is the
// detector falling behind?). Every pipeline component accepts an optional
// metrics bundle; all metric methods are nil-receiver-safe so instrumented
// hot paths need no branches and an unconfigured pipeline pays only a nil
// check.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and nil-receiver-safe (a nil Counter is a no-op).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as a float64. All
// methods are safe for concurrent use and nil-receiver-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the gauge (CAS loop; rare operation, never on hot paths).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are defined by
// their upper bounds (strictly increasing); an implicit +Inf bucket catches
// the tail. Observe is lock-free; all methods are nil-receiver-safe.
type Histogram struct {
	bounds  []float64 // upper bounds, excludes +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram returns a histogram with the given upper bounds; the bounds
// are copied and sorted.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the Prometheus "le" bucket; beyond all bounds
	// lands in the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds + +Inf.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: make([]BucketCount, len(h.bounds)+1),
		Count:   h.count.Load(),
		Sum:     h.Sum(),
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{UpperBound: bound, Count: cum}
	}
	return s
}

// LatencyBuckets is the default bucket layout for latency histograms:
// 1µs to 10s in decades, in seconds.
var LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// vec is a family of metrics of one type partitioned by label values (a
// small subset of Prometheus's vector metrics). Looking up a child takes a
// mutex; callers on hot paths should hold on to the child With returns.
type vec[M any] struct {
	typeName   string // the exported alias, for the panic text
	labelNames []string
	newChild   func() *M

	mu       sync.Mutex
	children map[string]*M
	values   map[string][]string
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec = vec[Counter]

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec = vec[Gauge]

// HistogramVec is a family of fixed-bucket histograms partitioned by label
// values. Every child shares the vector's bucket bounds.
type HistogramVec = vec[Histogram]

func newVec[M any](typeName string, labelNames []string, newChild func() *M) *vec[M] {
	for _, l := range labelNames {
		validName(l)
	}
	return &vec[M]{
		typeName:   typeName,
		labelNames: labelNames,
		newChild:   newChild,
		children:   map[string]*M{},
		values:     map[string][]string{},
	}
}

// With returns the child for the given label values (created on first
// use; nil from a nil vector). The number of values must match the label
// names the vector was registered with; a mismatch panics (programmer
// error).
func (v *vec[M]) With(values ...string) *M {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: %s got %d label values for %d labels", v.typeName, len(values), len(v.labelNames)))
	}
	key := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.children[key]
	if m == nil {
		m = v.newChild()
		v.children[key] = m
		v.values[key] = append([]string(nil), values...)
	}
	return m
}

// each calls fn with every child and its rendered label set, in
// deterministic (label-value) order, holding the vector's lock.
func (v *vec[M]) each(fn func(labels string, m *M)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(renderLabels(v.labelNames, v.values[k]), v.children[k])
	}
}

// labelKey joins label values unambiguously (values may contain commas).
func labelKey(values []string) string {
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s", len(v), v)
	}
	return key
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// HistogramSnapshot is a point-in-time view of a histogram with cumulative
// bucket counts (Prometheus "le" semantics).
type HistogramSnapshot struct {
	Buckets []BucketCount
	Count   uint64
	Sum     float64
}

// Snapshot is a point-in-time view of a whole registry for programmatic
// use in tests and benchmarks. Labeled counters appear in Counters keyed
// as `name{label="value",...}`.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Counter returns a counter value by name (0 when absent), sparing tests
// the map-presence dance.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge value by name (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// validName panics on metric or label names Prometheus would reject;
// registration happens at startup, so this is a programmer error.
func validName(name string) string {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	return name
}
