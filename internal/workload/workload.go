// Package workload implements a YCSB-like workload generator (the paper
// drives its experiments with YCSB 0.1.4 and 100 emulated clients,
// Section 5.2): zipfian/latest/uniform key choosers, configurable
// read/update/insert/scan mixes, and a closed-loop emulated client pool
// driven in virtual time.
package workload

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"
	"time"

	"saad/internal/vtime"
)

// OpType enumerates the YCSB core operations.
type OpType int

// Operation types.
const (
	OpRead OpType = iota + 1
	OpUpdate
	OpInsert
	OpScan
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// IsWrite reports whether the operation mutates data.
func (o OpType) IsWrite() bool { return o == OpUpdate || o == OpInsert }

// Op is one generated operation.
type Op struct {
	Type OpType
	Key  string
	// Value is the payload for writes (shared scratch; copy to retain).
	Value []byte
	// ScanLen is the number of keys for OpScan.
	ScanLen int
}

// KeyChooser picks record indexes in [0, n).
type KeyChooser interface {
	Next(r *vtime.RNG, n int) int
}

// ZipfianChooser implements the Gray et al. zipfian generator YCSB uses,
// with the standard constant 0.99 and hashing to scatter the hot items
// across the keyspace (YCSB's "scrambled zipfian").
type ZipfianChooser struct {
	theta float64
	// cached state for the last n
	n     int
	zetaN float64
	alpha float64
	eta   float64
	zeta2 float64
	// halfPowTheta is 0.5^theta, the width of the second item's band.
	halfPowTheta float64
	// Scramble scatters hot keys over the keyspace when true.
	Scramble bool
}

var _ KeyChooser = (*ZipfianChooser)(nil)

// NewZipfianChooser returns a chooser with the YCSB default constant 0.99.
func NewZipfianChooser(scramble bool) *ZipfianChooser {
	return &ZipfianChooser{theta: 0.99, Scramble: scramble}
}

func zeta(n int, theta float64) float64 {
	var z float64
	for i := 1; i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

func (z *ZipfianChooser) prepare(n int) {
	if z.n == n {
		return
	}
	// zetaN is zeta's running sum: a keyspace that grew (every insert of a
	// run grows it by one) adds the next terms in zeta's order, so the float
	// is zeta(n, theta) bit for bit; a smaller n starts the sum over.
	if n < z.n {
		z.n, z.zetaN = 0, 0
	}
	for i := z.n + 1; i <= n; i++ {
		z.zetaN += 1 / math.Pow(float64(i), z.theta)
	}
	z.n = n
	z.zeta2 = zeta(2, z.theta)
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetaN)
	z.halfPowTheta = math.Pow(0.5, z.theta)
}

// Next implements KeyChooser.
func (z *ZipfianChooser) Next(r *vtime.RNG, n int) int {
	if n <= 0 {
		return 0
	}
	z.prepare(n)
	u := r.Float64()
	uz := u * z.zetaN
	var idx int
	switch {
	case uz < 1:
		idx = 0
	case uz < 1+z.halfPowTheta:
		idx = 1
	default:
		idx = int(float64(n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if idx >= n {
		idx = n - 1
	}
	if z.Scramble {
		idx = int(fnvHash(uint64(idx)) % uint64(n))
	}
	return idx
}

func fnvHash(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// Mix is an operation mix in relative weights.
type Mix struct {
	Read, Update, Insert, Scan float64
}

// WriteHeavy is the paper's workload shape: most requests reaching the
// storage tier are writes because reads are absorbed by caches above it
// (Section 5.2).
func WriteHeavy() Mix { return Mix{Read: 0.10, Update: 0.80, Insert: 0.10} }

// Config configures a Generator.
type Config struct {
	// Records is the initial keyspace size.
	Records int
	// ValueSize is the payload size for writes. Default 100 bytes
	// (YCSB's field layout compressed to one field).
	ValueSize int
	// Mix is the operation mix; zero value defaults to WriteHeavy.
	Mix Mix
	// Chooser picks keys; nil defaults to scrambled zipfian.
	Chooser KeyChooser
	// MaxScanLen bounds scan lengths. Default 50.
	MaxScanLen int
	// Seed seeds the generator's RNG.
	Seed uint64
}

// Generator produces operations. Not safe for concurrent use.
type Generator struct {
	cfg     Config
	rng     *vtime.RNG
	records int
	value   []byte
	total   float64
}

// NewGenerator returns a generator over cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.Records <= 0 {
		cfg.Records = 1000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 100
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = WriteHeavy()
	}
	if cfg.Chooser == nil {
		cfg.Chooser = NewZipfianChooser(true)
	}
	if cfg.MaxScanLen <= 0 {
		cfg.MaxScanLen = 50
	}
	g := &Generator{
		cfg:     cfg,
		rng:     vtime.NewRNG(cfg.Seed),
		records: cfg.Records,
		value:   make([]byte, cfg.ValueSize),
	}
	for i := range g.value {
		g.value[i] = byte('a' + i%26)
	}
	g.total = cfg.Mix.Read + cfg.Mix.Update + cfg.Mix.Insert + cfg.Mix.Scan
	return g
}

// Key renders the i-th record's key in YCSB style.
func Key(i int) string { return "user" + strconv.Itoa(i) }

// Next produces the next operation.
func (g *Generator) Next() Op {
	u := g.rng.Float64() * g.total
	m := g.cfg.Mix
	switch {
	case u < m.Read:
		return Op{Type: OpRead, Key: Key(g.cfg.Chooser.Next(g.rng, g.records))}
	case u < m.Read+m.Update:
		return Op{Type: OpUpdate, Key: Key(g.cfg.Chooser.Next(g.rng, g.records)), Value: g.value}
	case u < m.Read+m.Update+m.Insert:
		k := Key(g.records)
		g.records++
		return Op{Type: OpInsert, Key: k, Value: g.value}
	default:
		return Op{
			Type:    OpScan,
			Key:     Key(g.cfg.Chooser.Next(g.rng, g.records)),
			ScanLen: 1 + g.rng.Intn(g.cfg.MaxScanLen),
		}
	}
}

// ClientPool is a closed-loop pool of emulated clients in virtual time:
// each client issues its next operation only after its previous one
// completed plus think time. This is what makes the simulated throughput
// respond to injected slowdowns the way the paper's YCSB clients do.
type ClientPool struct {
	heap  clientHeap
	think time.Duration
}

type clientSlot struct {
	free time.Time
	id   int
}

type clientHeap []clientSlot

func (h clientHeap) Len() int           { return len(h) }
func (h clientHeap) Less(i, j int) bool { return h[i].free.Before(h[j].free) }
func (h clientHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *clientHeap) Push(x any)        { *h = append(*h, x.(clientSlot)) }
func (h *clientHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// NewClientPool creates n clients all free at start, with the given think
// time between operations.
func NewClientPool(n int, start time.Time, think time.Duration) *ClientPool {
	p := &ClientPool{think: think}
	p.heap = make(clientHeap, 0, n)
	for i := 0; i < n; i++ {
		p.heap = append(p.heap, clientSlot{free: start, id: i})
	}
	heap.Init(&p.heap)
	return p
}

// Acquire returns the next client to become free and its issue time.
func (p *ClientPool) Acquire() (id int, at time.Time) {
	slot := heap.Pop(&p.heap).(clientSlot)
	return slot.id, slot.free
}

// Release marks the client free again after its operation completed at
// done (plus think time).
func (p *ClientPool) Release(id int, done time.Time) {
	heap.Push(&p.heap, clientSlot{free: done.Add(p.think), id: id})
}

// Run drives the closed loop until the next issue time is past end: the
// client that frees up first issues op at that time and is released at the
// completion time op returns.
func (p *ClientPool) Run(end time.Time, op func(id int, at time.Time) (done time.Time)) {
	for p.Len() > 0 && !p.heap[0].free.After(end) {
		id, at := p.Acquire()
		p.Release(id, op(id, at))
	}
}

// Len returns the number of idle clients currently in the pool.
func (p *ClientPool) Len() int { return p.heap.Len() }
