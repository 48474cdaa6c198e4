package lsm

import "sort"

// Entry is one key/value pair.
type Entry struct {
	Key   string
	Value []byte
}

// SSTable is an immutable sorted run of entries, the on-disk unit of the
// LSM layout. Lookup is binary search over the sorted keys.
type SSTable struct {
	entries []Entry
	bytes   int
	// Seq orders SSTables by creation; newer tables shadow older ones.
	Seq uint64
}

// BuildSSTable creates an SSTable from sorted entries (as produced by
// Memtable.Entries or a merge). The table takes ownership of the run and of
// its values: a value is copied once, by Memtable.Put, and flush and
// compaction move it, so the caller must neither reuse nor write the slice
// or any Value in it afterwards.
func BuildSSTable(seq uint64, entries []Entry) *SSTable {
	t := &SSTable{Seq: seq, entries: entries}
	for _, e := range entries {
		t.bytes += len(e.Key) + len(e.Value)
	}
	return t
}

// Get returns the value for key and whether it exists.
func (t *SSTable) Get(key string) ([]byte, bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Key >= key })
	if i < len(t.entries) && t.entries[i].Key == key {
		return t.entries[i].Value, true
	}
	return nil, false
}

// Len returns the number of entries.
func (t *SSTable) Len() int { return len(t.entries) }

// Bytes returns the table's approximate size.
func (t *SSTable) Bytes() int { return t.bytes }

// Scan calls fn for entries in [from, to) in key order, stopping early if
// fn returns false. An empty `to` means unbounded.
func (t *SSTable) Scan(from, to string, fn func(Entry) bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Key >= from })
	for ; i < len(t.entries); i++ {
		if to != "" && t.entries[i].Key >= to {
			return
		}
		if !fn(t.entries[i]) {
			return
		}
	}
}

// MergeTables merges several SSTables into one sorted entry run; on key
// collisions the entry from the table with the highest Seq wins (newest
// shadow). This is the core of minor/major compaction.
func MergeTables(tables []*SSTable) []Entry {
	type cursor struct {
		t   *SSTable
		idx int
	}
	cursors := make([]cursor, 0, len(tables))
	total := 0
	for _, t := range tables {
		if t.Len() > 0 {
			cursors = append(cursors, cursor{t: t})
			total += t.Len()
		}
	}
	out := make([]Entry, 0, total)
	for {
		// Find the smallest current key; among equals the highest Seq wins.
		best := -1
		for i := range cursors {
			c := &cursors[i]
			if c.idx >= c.t.Len() {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			bk := cursors[best].t.entries[cursors[best].idx].Key
			ck := c.t.entries[c.idx].Key
			if ck < bk || (ck == bk && c.t.Seq > cursors[best].t.Seq) {
				best = i
			}
		}
		if best == -1 {
			return out
		}
		winner := cursors[best].t.entries[cursors[best].idx]
		out = append(out, winner)
		// Skip this key in every cursor.
		for i := range cursors {
			c := &cursors[i]
			for c.idx < c.t.Len() && c.t.entries[c.idx].Key == winner.Key {
				c.idx++
			}
		}
	}
}
