// Package lsm implements the Log-Structured Merge storage layout that both
// HBase and Cassandra are built on (paper Section 5.1): writes go to an
// in-memory sorted MemTable and a write-ahead log; full MemTables are
// flushed to immutable sorted SSTables (minor compaction); accumulating
// SSTables are merged into fewer ones (major compaction).
//
// The engine is a genuine key/value store — the simulated storage systems
// in internal/storage/{cassandra,hbase} execute real reads and writes
// against it and layer virtual I/O costs on top.
package lsm

import (
	"bytes"

	"saad/internal/vtime"
)

const maxSkipListLevel = 16

// Memtable is a sorted in-memory write buffer backed by a skip list (the
// "in-memory sorted linked-list" of Section 5.1). It is not safe for
// concurrent use; the simulators serialize access per node as a real server
// serializes access per memtable with a lock.
type Memtable struct {
	head    *skipNode
	level   int
	rng     *vtime.RNG
	entries int
	bytes   int
}

type skipNode struct {
	key   string
	value []byte
	next  [maxSkipListLevel]*skipNode
}

// NewMemtable returns an empty memtable seeded deterministically.
func NewMemtable(seed uint64) *Memtable {
	return &Memtable{
		head:  &skipNode{},
		level: 1,
		rng:   vtime.NewRNG(seed),
	}
}

func (m *Memtable) randomLevel() int {
	lvl := 1
	for lvl < maxSkipListLevel && m.rng.Bool(0.25) {
		lvl++
	}
	return lvl
}

// Put inserts or replaces key. The value is copied.
func (m *Memtable) Put(key string, value []byte) {
	var update [maxSkipListLevel]*skipNode
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	x = x.next[0]
	if x != nil && x.key == key {
		m.bytes += len(value) - len(x.value)
		x.value = bytes.Clone(value)
		return
	}
	lvl := m.randomLevel()
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level = lvl
	}
	node := &skipNode{key: key, value: bytes.Clone(value)}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
	m.entries++
	m.bytes += len(key) + len(value)
}

// Get returns the value for key and whether it exists. The returned slice
// is the memtable's copy; callers must not modify it.
func (m *Memtable) Get(key string) ([]byte, bool) {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x.value, true
	}
	return nil, false
}

// Len returns the number of distinct keys.
func (m *Memtable) Len() int { return m.entries }

// Bytes returns the approximate heap footprint of the buffered entries; the
// flush threshold keys off it.
func (m *Memtable) Bytes() int { return m.bytes }

// Each calls fn for every entry in ascending key order, stopping early if
// fn returns false.
func (m *Memtable) Each(fn func(key string, value []byte) bool) {
	for x := m.head.next[0]; x != nil; x = x.next[0] {
		if !fn(x.key, x.value) {
			return
		}
	}
}

// Entries materializes the sorted contents, the input to an SSTable build.
// The values are the memtable's own, not copies.
func (m *Memtable) Entries() []Entry {
	out := make([]Entry, 0, m.entries)
	m.Each(func(k string, v []byte) bool {
		out = append(out, Entry{Key: k, Value: v})
		return true
	})
	return out
}
