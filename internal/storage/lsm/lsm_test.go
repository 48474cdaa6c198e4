package lsm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"saad/internal/vtime"
)

func TestMemtablePutGet(t *testing.T) {
	m := NewMemtable(1)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty memtable returned a value")
	}
	m.Put("b", []byte("2"))
	m.Put("a", []byte("1"))
	m.Put("c", []byte("3"))
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, ok := m.Get(k)
		if !ok || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v", k, got, ok)
		}
	}
	if _, ok := m.Get("aa"); ok {
		t.Fatal("absent key found")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemtableOverwrite(t *testing.T) {
	m := NewMemtable(1)
	m.Put("k", []byte("old"))
	before := m.Bytes()
	m.Put("k", []byte("newer"))
	got, _ := m.Get("k")
	if string(got) != "newer" {
		t.Fatalf("Get = %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Bytes() != before+2 { // "newer" is 2 bytes longer than "old"
		t.Fatalf("Bytes = %d, want %d", m.Bytes(), before+2)
	}
}

func TestMemtableSortedIteration(t *testing.T) {
	m := NewMemtable(7)
	rng := vtime.NewRNG(2)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", rng.Intn(100000))
		m.Put(keys[i], []byte{byte(i)})
	}
	var got []string
	m.Each(func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatal("iteration not sorted")
	}
	// Early stop.
	count := 0
	m.Each(func(string, []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop iterated %d", count)
	}
}

func TestMemtableValueCopied(t *testing.T) {
	m := NewMemtable(1)
	v := []byte("abc")
	m.Put("k", v)
	v[0] = 'z'
	got, _ := m.Get("k")
	if string(got) != "abc" {
		t.Fatal("memtable aliased caller's slice")
	}
}

// Property: memtable behaves exactly like a map with sorted iteration.
func TestMemtableModelProperty(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
	}) bool {
		m := NewMemtable(uint64(len(ops)))
		model := make(map[string][]byte)
		for _, op := range ops {
			k := fmt.Sprintf("k%03d", op.Key)
			v := []byte(fmt.Sprintf("v%d", op.Val))
			m.Put(k, v)
			model[k] = v
		}
		if m.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := m.Get(k)
			if !ok || string(got) != string(want) {
				return false
			}
		}
		var keys []string
		m.Each(func(k string, _ []byte) bool { keys = append(keys, k); return true })
		return sort.StringsAreSorted(keys) && len(keys) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSSTableGetScan(t *testing.T) {
	entries := []Entry{
		{Key: "a", Value: []byte("1")},
		{Key: "c", Value: []byte("3")},
		{Key: "e", Value: []byte("5")},
	}
	tab := BuildSSTable(1, entries)
	if tab.Len() != 3 || tab.Bytes() != 6 {
		t.Fatalf("Len=%d Bytes=%d", tab.Len(), tab.Bytes())
	}
	if v, ok := tab.Get("c"); !ok || string(v) != "3" {
		t.Fatalf("Get(c) = %q, %v", v, ok)
	}
	if _, ok := tab.Get("b"); ok {
		t.Fatal("absent key found")
	}
	var got []string
	tab.Scan("b", "e", func(e Entry) bool { got = append(got, e.Key); return true })
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("Scan = %v", got)
	}
	got = nil
	tab.Scan("", "", func(e Entry) bool { got = append(got, e.Key); return true })
	if len(got) != 3 {
		t.Fatalf("unbounded Scan = %v", got)
	}
	got = nil
	tab.Scan("", "", func(e Entry) bool { got = append(got, e.Key); return false })
	if len(got) != 1 {
		t.Fatalf("early-stop Scan = %v", got)
	}
}

func TestMergeTablesNewestWins(t *testing.T) {
	old := BuildSSTable(1, []Entry{
		{Key: "a", Value: []byte("old")},
		{Key: "b", Value: []byte("b1")},
	})
	newer := BuildSSTable(2, []Entry{
		{Key: "a", Value: []byte("new")},
		{Key: "c", Value: []byte("c2")},
	})
	merged := MergeTables([]*SSTable{old, newer})
	want := map[string]string{"a": "new", "b": "b1", "c": "c2"}
	if len(merged) != 3 {
		t.Fatalf("merged = %v", merged)
	}
	for _, e := range merged {
		if want[e.Key] != string(e.Value) {
			t.Fatalf("merged[%q] = %q, want %q", e.Key, e.Value, want[e.Key])
		}
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key }) {
		t.Fatal("merge output not sorted")
	}
	// Order of inputs must not matter.
	merged2 := MergeTables([]*SSTable{newer, old})
	for i := range merged {
		if merged[i].Key != merged2[i].Key || string(merged[i].Value) != string(merged2[i].Value) {
			t.Fatal("merge order-dependent")
		}
	}
	if got := MergeTables(nil); len(got) != 0 {
		t.Fatalf("empty merge = %v", got)
	}
}

func TestWALAppendTrimReplay(t *testing.T) {
	w := NewWAL()
	if w.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d", w.LastSeq())
	}
	s1 := w.Append("a", []byte("1"))
	s2 := w.Append("b", []byte("2"))
	s3 := w.Append("c", []byte("3"))
	if s1 != 1 || s2 != 2 || s3 != 3 {
		t.Fatalf("seqs = %d %d %d", s1, s2, s3)
	}
	if w.Len() != 3 || w.Appended() != 3 {
		t.Fatalf("Len=%d Appended=%d", w.Len(), w.Appended())
	}
	w.Trim(2)
	if w.Len() != 1 {
		t.Fatalf("after trim Len = %d", w.Len())
	}
	var seen []uint64
	w.Replay(func(r WALRecord) bool { seen = append(seen, r.Seq); return true })
	if len(seen) != 1 || seen[0] != 3 {
		t.Fatalf("replay = %v", seen)
	}
	if w.Appended() != 3 {
		t.Fatal("Appended affected by trim")
	}
	// Bytes bookkeeping returns to zero when fully trimmed.
	w.Trim(3)
	if w.Bytes() != 0 || w.Len() != 0 {
		t.Fatalf("fully trimmed: bytes=%d len=%d", w.Bytes(), w.Len())
	}
	// Replay early stop.
	w.Append("d", nil)
	w.Append("e", nil)
	n := 0
	w.Replay(func(WALRecord) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop replay = %d", n)
	}
}

func TestStorePutGetFlow(t *testing.T) {
	s := NewStore(StoreConfig{FlushBytes: 1 << 30, Seed: 1})
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k1"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if s.WAL().Len() != 1 {
		t.Fatalf("WAL len = %d", s.WAL().Len())
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("absent key found")
	}
}

func TestStoreFrozenRejectsPuts(t *testing.T) {
	s := NewStore(StoreConfig{Seed: 1})
	s.Freeze()
	if !s.Frozen() {
		t.Fatal("not frozen")
	}
	if err := s.Put("k", []byte("v")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("err = %v", err)
	}
	s.Unfreeze()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("after unfreeze: %v", err)
	}
}

func TestStoreFlushMovesDataAndTrimsWAL(t *testing.T) {
	s := NewStore(StoreConfig{FlushBytes: 64, Seed: 1})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("key%02d", i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if !s.NeedsFlush() {
		t.Fatal("NeedsFlush = false")
	}
	tab := s.Flush()
	if tab.Len() != 10 {
		t.Fatalf("flushed table len = %d", tab.Len())
	}
	if s.Memtable().Len() != 0 {
		t.Fatal("memtable not reset")
	}
	if s.WAL().Len() != 0 {
		t.Fatal("WAL not trimmed")
	}
	if s.Flushes() != 1 {
		t.Fatalf("Flushes = %d", s.Flushes())
	}
	// Data still readable through the SSTable.
	if v, ok := s.Get("key03"); !ok || string(v) != "0123456789" {
		t.Fatalf("post-flush Get = %q, %v", v, ok)
	}
	if n := s.TablesSearched("key03"); n != 1 {
		t.Fatalf("TablesSearched = %d", n)
	}
	if n := s.TablesSearched("absent"); n != 1 {
		t.Fatalf("TablesSearched(miss) = %d", n)
	}
}

func TestStoreFlushClearsFreeze(t *testing.T) {
	s := NewStore(StoreConfig{Seed: 1})
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	s.Flush()
	if s.Frozen() {
		t.Fatal("flush left store frozen")
	}
}

func TestStoreCompaction(t *testing.T) {
	s := NewStore(StoreConfig{FlushBytes: 32, CompactTables: 3, MajorTables: 5, Seed: 1})
	flushN := func(n int, tag string) {
		for i := 0; i < n; i++ {
			for j := 0; j < 4; j++ {
				if err := s.Put(fmt.Sprintf("%s-%d-%d", tag, i, j), []byte("0123456789")); err != nil {
					t.Fatal(err)
				}
			}
			s.Flush()
		}
	}
	flushN(3, "a")
	if !s.NeedsCompaction() {
		t.Fatal("NeedsCompaction = false at 3 tables")
	}
	read, written := s.Compact(2)
	if read <= 0 || written <= 0 {
		t.Fatalf("compaction io = %d, %d", read, written)
	}
	if len(s.Tables()) != 2 {
		t.Fatalf("tables after minor = %d", len(s.Tables()))
	}
	flushN(4, "b")
	if !s.NeedsMajorCompaction() {
		t.Fatal("NeedsMajorCompaction = false at 6 tables")
	}
	s.CompactAll()
	if len(s.Tables()) != 1 {
		t.Fatalf("tables after major = %d", len(s.Tables()))
	}
	// All keys still present.
	for _, k := range []string{"a-0-0", "a-2-3", "b-3-1"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %q lost in compaction", k)
		}
	}
	if s.Compactions() != 2 {
		t.Fatalf("Compactions = %d", s.Compactions())
	}
	if !strings.Contains(s.Stats(), "tables=1") {
		t.Fatalf("Stats = %q", s.Stats())
	}
}

func TestStoreCompactDegenerate(t *testing.T) {
	s := NewStore(StoreConfig{Seed: 1})
	if r, w := s.Compact(5); r != 0 || w != 0 {
		t.Fatal("compacting empty store did something")
	}
}

// Property: a store under an arbitrary workload of puts, flushes and
// compactions always agrees with a plain map.
func TestStoreModelProperty(t *testing.T) {
	f := func(ops []struct {
		Key    byte
		Val    uint16
		Action uint8
	}) bool {
		s := NewStore(StoreConfig{FlushBytes: 1 << 30, Seed: 99})
		model := make(map[string]string)
		for _, op := range ops {
			k := fmt.Sprintf("k%02d", op.Key%32)
			v := fmt.Sprintf("v%d", op.Val)
			switch op.Action % 8 {
			case 6:
				s.Flush()
			case 7:
				s.Compact(2)
			default:
				if err := s.Put(k, []byte(v)); err != nil {
					return false
				}
				model[k] = v
			}
		}
		for k, want := range model {
			got, ok := s.Get(k)
			if !ok || string(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreShadowingAcrossTables(t *testing.T) {
	s := NewStore(StoreConfig{Seed: 1})
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if v, _ := s.Get("k"); string(v) != "v2" {
		t.Fatalf("Get = %q, want newest", v)
	}
	s.CompactAll()
	if v, _ := s.Get("k"); string(v) != "v2" {
		t.Fatalf("post-compaction Get = %q", v)
	}
	tabs := s.Tables()
	if len(tabs) != 1 || tabs[0].Len() != 1 {
		t.Fatalf("tables = %v", tabs)
	}
}

// A value is copied once, by Memtable.Put, and Flush moves it into the
// table: neither the caller rewriting its buffer (the workload generator
// reuses one) nor a later Put of the same key may change what the SSTable
// holds, and the flush itself must not copy.
func TestFlushMovesValuesWithoutAliasingWriters(t *testing.T) {
	s := NewStore(StoreConfig{FlushBytes: 1 << 30, Seed: 1})
	buf := []byte("first")
	if err := s.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	inMem, _ := s.Memtable().Get("k")
	tab := s.Flush()
	copy(buf, "XXXXX")
	if err := s.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	v, ok := tab.Get("k")
	if !ok || string(v) != "first" {
		t.Fatalf("SSTable value = %q, %v; want the flushed \"first\"", v, ok)
	}
	if &v[0] != &inMem[0] {
		t.Fatal("Flush copied the value instead of moving the memtable's")
	}
	if got, _ := s.Get("k"); string(got) != "second" {
		t.Fatalf("Get = %q, want the memtable's \"second\"", got)
	}
}

// After a compaction every surviving key reads the newest victim's value,
// the merged table holds the victims' value bytes themselves (moved, not
// cloned), and the store references no victim any more.
func TestCompactMovesNewestValuesAndDropsVictims(t *testing.T) {
	s := NewStore(StoreConfig{FlushBytes: 1 << 30, Seed: 1})
	want := make(map[string]string)
	for gen := 0; gen < 3; gen++ {
		for i := gen; i < 6; i += gen + 1 {
			k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("gen%d-%d", gen, i)
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		s.Flush()
	}
	victims := s.Tables()
	origin := make(map[*byte]bool)
	for _, tab := range victims {
		tab.Scan("", "", func(e Entry) bool { origin[&e.Value[0]] = true; return true })
	}
	s.CompactAll()
	tables := s.Tables()
	if len(tables) != 1 {
		t.Fatalf("tables after major compaction = %d", len(tables))
	}
	for _, v := range victims {
		if tables[0] == v {
			t.Fatal("store still references a victim table")
		}
	}
	if tables[0].Len() != len(want) {
		t.Fatalf("merged table has %d keys, want %d", tables[0].Len(), len(want))
	}
	tables[0].Scan("", "", func(e Entry) bool {
		if string(e.Value) != want[e.Key] {
			t.Errorf("%s = %q, want the newest victim's %q", e.Key, e.Value, want[e.Key])
		}
		if !origin[&e.Value[0]] {
			t.Errorf("%s: compaction cloned the value instead of moving it", e.Key)
		}
		return true
	})
}

// Trim zeroes the slots it drops, so the log's backing array stops pinning
// trimmed keys and values.
func TestWALTrimClearsTrimmedSlots(t *testing.T) {
	w := NewWAL()
	w.Append("a", []byte("1"))
	w.Append("b", []byte("2"))
	w.Append("c", []byte("3"))
	backing := w.records
	w.Trim(2)
	for i, r := range backing[:2] {
		if r.Key != "" || r.Value != nil || r.Seq != 0 {
			t.Fatalf("trimmed slot %d still holds %+v", i, r)
		}
	}
	if backing[2].Key != "c" || w.Len() != 1 {
		t.Fatalf("live record disturbed: %+v, Len %d", backing[2], w.Len())
	}
}
