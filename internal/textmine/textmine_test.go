package textmine

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func fixture(t *testing.T) (*logpoint.Dictionary, []logpoint.ID) {
	t.Helper()
	dict := logpoint.NewDictionary()
	sid, err := dict.RegisterStage("DataXceiver", logpoint.DispatcherWorker)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]logpoint.ID, 0, 3)
	for _, tpl := range []string{
		"Receiving block blk_",
		"Receiving one packet for blk_",
		"Closing down.",
	} {
		id, err := dict.RegisterPoint(sid, logpoint.LevelDebug, tpl)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	eid, err := dict.RegisterPoint(sid, logpoint.LevelError, "IOException writing block file")
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, eid)
	return dict, ids
}

func syn(ids []logpoint.ID, counts []uint32) *synopsis.Synopsis {
	s := &synopsis.Synopsis{
		Stage: 1, Host: 1, TaskID: 42,
		Start: epoch, Duration: 10 * time.Millisecond,
	}
	for i, id := range ids {
		s.Points = append(s.Points, synopsis.PointCount{Point: id, Count: counts[i]})
	}
	s.Normalize()
	return s
}

func TestRenderSynopsisMessageCountAndFormat(t *testing.T) {
	dict, ids := fixture(t)
	s := syn(ids[:3], []uint32{1, 25, 1})
	var buf bytes.Buffer
	msgs, n, err := RenderSynopsis(&buf, dict, s)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != 27 {
		t.Fatalf("messages = %d, want 27", msgs)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("bytes = %d, buffer %d", n, buf.Len())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 27 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, "DEBUG [Thread-42] DataXceiver: ") {
			t.Fatalf("malformed line %q", line)
		}
	}
	if !strings.Contains(lines[0], "Receiving block blk_") {
		t.Fatalf("first line %q", lines[0])
	}
}

func TestRenderSynopsisEmpty(t *testing.T) {
	dict, _ := fixture(t)
	var buf bytes.Buffer
	msgs, n, err := RenderSynopsis(&buf, dict, &synopsis.Synopsis{})
	if err != nil || msgs != 0 || n != 0 {
		t.Fatalf("msgs=%d n=%d err=%v", msgs, n, err)
	}
}

func TestRenderSynopsisUnknownPoint(t *testing.T) {
	dict, _ := fixture(t)
	s := syn([]logpoint.ID{99}, []uint32{1})
	var buf bytes.Buffer
	msgs, _, err := RenderSynopsis(&buf, dict, s)
	if err != nil || msgs != 1 {
		t.Fatalf("msgs=%d err=%v", msgs, err)
	}
	if !strings.Contains(buf.String(), "unknown log point") {
		t.Fatalf("line = %q", buf.String())
	}
}

func TestVolumeAccumulates(t *testing.T) {
	dict, ids := fixture(t)
	var v Volume
	v.Add(dict, syn(ids[:3], []uint32{1, 25, 1}))
	v.Add(dict, syn(ids[:3], []uint32{1, 1, 1}))
	if v.Messages() != 30 {
		t.Fatalf("messages = %d", v.Messages())
	}
	if v.Bytes() < 30*60 {
		t.Fatalf("bytes = %d, implausibly small", v.Bytes())
	}
}

func TestVolumeVsSynopsisSizeGap(t *testing.T) {
	// The Figure 8 property: DEBUG volume dwarfs synopsis volume, and the
	// factor grows with per-task hit counts.
	dict, ids := fixture(t)
	s := syn(ids[:3], []uint32{1, 25, 1}) // HDFS-like chatty task
	var v Volume
	v.Add(dict, s)
	synBytes := int64(synopsis.EncodedSize(s))
	if v.Bytes() < 50*synBytes {
		t.Fatalf("volume gap = %dx, want >= 50x (debug=%d syn=%d)",
			v.Bytes()/synBytes, v.Bytes(), synBytes)
	}
}

func TestMatcherRoundTrip(t *testing.T) {
	dict, ids := fixture(t)
	m, err := NewMatcher(dict)
	if err != nil {
		t.Fatal(err)
	}
	s := syn(ids[:3], []uint32{2, 3, 1})
	var buf bytes.Buffer
	if _, _, err := RenderSynopsis(&buf, dict, s); err != nil {
		t.Fatal(err)
	}
	stats, err := m.MatchAll(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 6 || stats.Matched != 6 || stats.Unmatched != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Counts[ids[0]] != 2 || stats.Counts[ids[1]] != 3 || stats.Counts[ids[2]] != 1 {
		t.Fatalf("counts = %v", stats.Counts)
	}
}

func TestMatcherUnmatchedLines(t *testing.T) {
	dict, _ := fixture(t)
	m, err := NewMatcher(dict)
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("garbage line\nanother one\n")
	stats, err := m.MatchAll(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 2 || stats.Matched != 0 || stats.Unmatched != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestMatcherPrefixCollision(t *testing.T) {
	// "Receiving block blk_" is a prefix-distinct template from
	// "Receiving one packet for blk_": both must match only themselves.
	dict, ids := fixture(t)
	m, err := NewMatcher(dict)
	if err != nil {
		t.Fatal(err)
	}
	line := []byte("2026-01-01 00:00:00,000 DEBUG [Thread-1] DataXceiver: Receiving one packet for blk_ 7f")
	id, ok := m.MatchLine(line)
	if !ok || id != ids[1] {
		t.Fatalf("matched %d, %v; want %d", id, ok, ids[1])
	}
}
