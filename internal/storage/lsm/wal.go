package lsm

// WALRecord is one write-ahead-log entry.
type WALRecord struct {
	Seq   uint64
	Key   string
	Value []byte
}

// WAL is the write-ahead log: every update is appended (and, in the real
// systems, synced) before it is applied to the memtable; after a memtable
// flush the covered prefix is trimmed (Section 5.1).
type WAL struct {
	records []WALRecord
	nextSeq uint64
	bytes   int
	// appended counts records ever appended (monotonic, not affected by
	// trims) for diagnostics.
	appended uint64
}

// NewWAL returns an empty log starting at sequence 1.
func NewWAL() *WAL {
	return &WAL{nextSeq: 1}
}

// Append adds a record and returns its sequence number.
func (w *WAL) Append(key string, value []byte) uint64 {
	seq := w.nextSeq
	w.nextSeq++
	w.records = append(w.records, WALRecord{Seq: seq, Key: key, Value: value})
	w.bytes += len(key) + len(value) + 8
	w.appended++
	return seq
}

// Trim discards all records with Seq <= upTo (the memtable covering them
// has been flushed durably) and zeroes their slots, so the backing array
// stops pinning their keys and values.
func (w *WAL) Trim(upTo uint64) {
	i := 0
	for i < len(w.records) && w.records[i].Seq <= upTo {
		w.bytes -= len(w.records[i].Key) + len(w.records[i].Value) + 8
		i++
	}
	clear(w.records[:i])
	w.records = w.records[i:]
}

// Len returns the number of live records.
func (w *WAL) Len() int { return len(w.records) }

// Bytes returns the approximate live size.
func (w *WAL) Bytes() int { return w.bytes }

// LastSeq returns the highest sequence number ever issued (0 if none).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// Appended returns the total number of records ever appended.
func (w *WAL) Appended() uint64 { return w.appended }

// Replay calls fn for each live record in sequence order; it is the
// recovery path after a crash.
func (w *WAL) Replay(fn func(WALRecord) bool) {
	for _, r := range w.records {
		if !fn(r) {
			return
		}
	}
}
