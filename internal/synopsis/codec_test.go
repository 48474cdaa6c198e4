package synopsis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"saad/internal/logpoint"
)

func sampleSynopsis(i int) *Synopsis {
	s := &Synopsis{
		Stage:    logpoint.StageID(i%40 + 1),
		Host:     uint16(i % 4),
		TaskID:   uint64(i),
		Start:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond),
		Duration: time.Duration(i%100+1) * 37 * time.Microsecond,
		Points: []PointCount{
			{Point: logpoint.ID(i%7 + 1), Count: uint32(i%3 + 1)},
			{Point: logpoint.ID(i%7 + 10), Count: 1},
			{Point: logpoint.ID(i%7 + 200), Count: uint32(i%50 + 1)},
		},
	}
	s.Normalize()
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	var wire []byte
	const n = 1000
	size := 0
	for i := 0; i < n; i++ {
		wire = AppendRecord(wire, sampleSynopsis(i))
		size += EncodedSize(sampleSynopsis(i))
	}
	if size != len(wire) {
		t.Fatalf("EncodedSize sums to %d, buffer has %d", size, len(wire))
	}

	dec := NewDecoder(bytes.NewReader(wire))
	var got Synopsis
	for i := 0; i < n; i++ {
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		want := sampleSynopsis(i)
		if got.Stage != want.Stage || got.Host != want.Host || got.TaskID != want.TaskID {
			t.Fatalf("record %d header = %+v, want %+v", i, got, want)
		}
		if !got.Start.Equal(want.Start) {
			t.Fatalf("record %d start = %v, want %v", i, got.Start, want.Start)
		}
		if got.Duration != want.Duration {
			t.Fatalf("record %d duration = %v, want %v", i, got.Duration, want.Duration)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("record %d points = %v", i, got.Points)
		}
		for j := range want.Points {
			if got.Points[j] != want.Points[j] {
				t.Fatalf("record %d point %d = %v, want %v", i, j, got.Points[j], want.Points[j])
			}
		}
	}
	if err := dec.Decode(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestCodecEmptyPoints(t *testing.T) {
	s := &Synopsis{Stage: 1, TaskID: 9, Start: time.UnixMicro(12345).UTC()}
	var got Synopsis
	got.Points = []PointCount{{1, 1}} // must be reset by decode
	if err := NewDecoder(bytes.NewReader(AppendRecord(nil, s))).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 0 {
		t.Fatalf("points = %v, want empty", got.Points)
	}
}

func TestCodecCompactness(t *testing.T) {
	// A typical synopsis (5 log points) must stay within a few tens of
	// bytes — the property Figure 8's volume reduction rests on.
	s := &Synopsis{
		Stage: 12, Host: 3, TaskID: 123456,
		Start:    time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC),
		Duration: 18 * time.Millisecond,
		Points:   []PointCount{{11, 1}, {12, 25}, {13, 24}, {14, 25}, {15, 1}},
	}
	size := EncodedSize(s)
	if size > 48 {
		t.Fatalf("encoded size = %d bytes, want <= 48", size)
	}
	if size < 10 {
		t.Fatalf("encoded size = %d bytes, implausibly small", size)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendRecord(nil, sampleSynopsis(1))
	for cut := 1; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		var s Synopsis
		if err := dec.Decode(&s); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

func TestDecodeOversizedRecordRejected(t *testing.T) {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, maxRecordSize+1)
	dec := NewDecoder(bytes.NewReader(hdr))
	var s Synopsis
	if err := dec.Decode(&s); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestDecodeBogusPointCount(t *testing.T) {
	// Craft a body claiming more points than bytes remain.
	var body []byte
	for i := 0; i < 5; i++ { // stage, host, task, start, duration
		body = binary.AppendUvarint(body, 1)
	}
	body = binary.AppendUvarint(body, 1<<30) // absurd point count
	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(len(body)))
	rec = append(rec, body...)
	var s Synopsis
	if err := NewDecoder(bytes.NewReader(rec)).Decode(&s); err == nil {
		t.Fatal("bogus point count accepted")
	}

	// Values too wide for their fields are corruption too: they must not
	// wrap (host 65539 is not host 3). Fields in order: stage, host, task,
	// start, duration, point count, then (id delta, count) pairs.
	for _, tc := range []struct {
		name   string
		fields []uint64
		want   string
	}{
		{"in range", []uint64{65535, 65535, 1, 1, 1, 1, 65535, 1<<32 - 1}, ""},
		{"stage", []uint64{65536, 3, 1, 1, 1, 1, 5, 1}, "stage 65536 out of range"},
		{"host", []uint64{7, 65539, 1, 1, 1, 1, 5, 1}, "host 65539 out of range"},
		{"point id delta", []uint64{7, 3, 1, 1, 1, 1, 65541, 1}, "id delta 65541 out of range"},
		{"point count", []uint64{7, 3, 1, 1, 1, 1, 5, 1 << 32}, "count 4294967296 out of range"},
	} {
		body := uvarints(tc.fields...)
		rec := append(uvarints(uint64(len(body))), body...)
		err := NewDecoder(bytes.NewReader(rec)).Decode(&s)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("out-of-range %s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// Property: encode/decode round-trips arbitrary normalized synopses.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(stage uint16, host uint16, task uint64, startUs uint32, durUs uint32, rawPts []uint16, counts []uint8) bool {
		s := &Synopsis{
			Stage:    logpoint.StageID(stage),
			Host:     host,
			TaskID:   task,
			Start:    time.UnixMicro(int64(startUs)).UTC(),
			Duration: time.Duration(durUs) * time.Microsecond,
		}
		for i, p := range rawPts {
			c := uint32(1)
			if i < len(counts) {
				c = uint32(counts[i]) + 1
			}
			s.Points = append(s.Points, PointCount{Point: logpoint.ID(p), Count: c})
		}
		s.Normalize()
		var got Synopsis
		if err := NewDecoder(bytes.NewReader(AppendRecord(nil, s))).Decode(&got); err != nil {
			return false
		}
		if got.Stage != s.Stage || got.Host != s.Host || got.TaskID != s.TaskID ||
			!got.Start.Equal(s.Start) || got.Duration != s.Duration || len(got.Points) != len(s.Points) {
			return false
		}
		for i := range s.Points {
			if got.Points[i] != s.Points[i] {
				return false
			}
		}
		return got.Signature() == s.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
