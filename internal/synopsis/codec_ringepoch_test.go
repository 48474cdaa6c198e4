package synopsis

import (
	"bufio"
	"bytes"
	"testing"

	"saad/internal/trace"
)

// TestCodecRingEpochRoundTripV1 proves the ring-epoch extension survives a
// v1 encode/decode and that decoding a plain record into a reused struct
// clears a previous record's epoch.
func TestCodecRingEpochRoundTripV1(t *testing.T) {
	s := traceTestSyn()
	s.RingEpoch = 42

	wire := AppendRecord(nil, s)
	plain := traceTestSyn()
	plain.TaskID = 78
	wire = AppendRecord(wire, plain)

	dec := NewDecoder(bytes.NewReader(wire))
	var got Synopsis
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RingEpoch != 42 {
		t.Fatalf("ring epoch = %d, want 42", got.RingEpoch)
	}
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RingEpoch != 0 {
		t.Fatalf("epoch from a previous record leaked: %d", got.RingEpoch)
	}
}

// TestCodecRingEpochRoundTripV2 covers the batched framing, including a
// record carrying both the trace and the ring-epoch extensions.
func TestCodecRingEpochRoundTripV2(t *testing.T) {
	a := traceTestSyn()
	a.RingEpoch = 7
	a.Trace = &trace.Span{Emit: 11, Send: 12}
	b := traceTestSyn()
	b.TaskID = 78
	c := traceTestSyn()
	c.TaskID = 79
	c.RingEpoch = 9

	frames := NewBatchEncoder().AppendFrames(nil, []*Synopsis{a, b, c})
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(frames)))
	var got Synopsis
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RingEpoch != 7 {
		t.Fatalf("first record epoch = %d, want 7", got.RingEpoch)
	}
	if got.Trace == nil || got.Trace.Emit != 11 || got.Trace.Send != 12 {
		t.Fatalf("trace extension lost beside ring epoch: %+v", got.Trace)
	}
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RingEpoch != 0 {
		t.Fatalf("second record epoch = %d, want 0", got.RingEpoch)
	}
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RingEpoch != 9 || got.TaskID != 79 {
		t.Fatalf("third record = task %d epoch %d, want 79/9", got.TaskID, got.RingEpoch)
	}
}

// TestCodecRingEpochCostsNothingWhenUnset pins that a record without a ring
// epoch pays nothing for the extension in either framing.
func TestCodecRingEpochCostsNothingWhenUnset(t *testing.T) {
	s := traceTestSyn()
	plain := len(AppendRecord(nil, s))
	s.RingEpoch = 3
	stamped := len(AppendRecord(nil, s))
	if stamped <= plain {
		t.Fatalf("stamped record (%dB) should exceed plain (%dB)", stamped, plain)
	}
	if got := EncodedSize(s); got != stamped {
		t.Fatalf("EncodedSize = %d, want %d", got, stamped)
	}
	s.RingEpoch = 0
	if again := len(AppendRecord(nil, s)); again != plain {
		t.Fatalf("unstamped record grew from %dB to %dB", plain, again)
	}

	// v2: a clear flag bit in the record's head is all an unset epoch
	// costs — zero bytes — and a set one adds the extension count, id,
	// length and value.
	enc := NewBatchEncoder()
	enc.appendRecordV2(nil, s) // defines the flow
	v2plain := len(enc.appendRecordV2(nil, s))
	// One byte each of head, task delta and start delta, the duration, and
	// (the test synopsis has a count != 1) a count per point.
	if want := 3 + uvarintLen(uint64(s.Duration.Microseconds())) + len(s.Points); v2plain != want {
		t.Fatalf("unstamped v2 record of a known flow is %dB, want %dB", v2plain, want)
	}
	s.RingEpoch = 3
	if v2stamped := len(enc.appendRecordV2(nil, s)); v2stamped != v2plain+4 {
		t.Fatalf("stamped v2 record is %dB, want %dB + 4", v2stamped, v2plain)
	}
	s.RingEpoch = 0
	if again := len(enc.appendRecordV2(nil, s)); again != v2plain {
		t.Fatalf("unstamped v2 record grew from %dB to %dB", v2plain, again)
	}
}
