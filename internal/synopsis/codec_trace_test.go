package synopsis

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"saad/internal/trace"
)

func traceTestSyn() *Synopsis {
	s := &Synopsis{
		Stage:    3,
		Host:     9,
		TaskID:   77,
		Start:    time.UnixMicro(1_700_000_000_000_000).UTC(),
		Duration: 12 * time.Millisecond,
		Points:   []PointCount{{Point: 1, Count: 2}, {Point: 5, Count: 1}},
	}
	s.Normalize()
	return s
}

func TestCodecTraceExtensionRoundTrip(t *testing.T) {
	s := traceTestSyn()
	s.Trace = &trace.Span{Stage: 3, Host: 9, TaskID: 77, Emit: 1_000_000, Send: 2_000_000}

	wire := AppendRecord(nil, s)
	// A second, untraced record: decoding it into the same struct must
	// clear the first record's span.
	plain := traceTestSyn()
	plain.TaskID = 78
	wire = AppendRecord(wire, plain)

	dec := NewDecoder(bytes.NewReader(wire))
	var got Synopsis
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	sp := got.Trace
	if sp == nil {
		t.Fatal("decoded synopsis lost its trace extension")
	}
	if sp.Emit != 1_000_000 || sp.Send != 2_000_000 {
		t.Fatalf("span stamps = emit %d send %d, want 1000000/2000000", sp.Emit, sp.Send)
	}
	if sp.Stage != 3 || sp.Host != 9 || sp.TaskID != 77 {
		t.Fatalf("span identity not filled from frame: %+v", sp)
	}
	if sp.Recv != 0 || sp.Done != 0 {
		t.Fatalf("decoder must not invent downstream stamps: %+v", sp)
	}
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Trace != nil {
		t.Fatal("span from a previous record leaked into an untraced decode")
	}
	if got.TaskID != 78 {
		t.Fatalf("second record task id = %d, want 78", got.TaskID)
	}
}

// TestCodecTraceCostsNothingWhenUnsampled pins the backward-compat /
// volume property: an unsampled synopsis encodes to exactly the same bytes
// as before tracing existed (v1: no flags, no placeholder fields; v2: a
// clear flag bit and nothing else), so old and new peers interoperate
// frame by frame and Figure 8's volume story is untouched for the
// 1-in-N-complement majority.
func TestCodecTraceCostsNothingWhenUnsampled(t *testing.T) {
	s := traceTestSyn()
	plain := len(AppendRecord(nil, s))
	s.Trace = &trace.Span{Emit: 1}
	traced := len(AppendRecord(nil, s))
	if traced <= plain {
		t.Fatalf("traced record (%dB) should exceed plain (%dB)", traced, plain)
	}
	s.Trace = nil
	if again := len(AppendRecord(nil, s)); again != plain {
		t.Fatalf("unsampled record grew from %dB to %dB", plain, again)
	}

	// v2: the extension block hangs off a flag bit in the record's head, so
	// an unsampled record of a known flow pays not even a zero count for
	// it — only the one span field that differs from the plain record.
	enc := NewBatchEncoder()
	enc.appendRecordV2(nil, s) // defines the flow
	v2plain := len(enc.appendRecordV2(nil, s))
	// One byte each of head, task delta and start delta, the duration, and
	// (the test synopsis has a count != 1) a count per point.
	if want := 3 + uvarintLen(uint64(s.Duration.Microseconds())) + len(s.Points); v2plain != want {
		t.Fatalf("unsampled v2 record of a known flow is %dB, want %dB", v2plain, want)
	}
	s.Trace = &trace.Span{Emit: 1}
	if traced := len(enc.appendRecordV2(nil, s)); traced != v2plain+5 {
		t.Fatalf("traced v2 record is %dB, want %dB + extension count, id, length and two stamps", traced, v2plain)
	}
	s.Trace = nil
	if again := len(enc.appendRecordV2(nil, s)); again != v2plain {
		t.Fatalf("unsampled v2 record grew from %dB to %dB", v2plain, again)
	}
}

// TestCodecUnknownExtensionSkipped drives the forward-compat path: a frame
// carrying an extension this decoder has never heard of (and then a trace
// extension after it) decodes fully, proving the extension loop skips
// unknown ids instead of failing or stopping early.
func TestCodecUnknownExtensionSkipped(t *testing.T) {
	var body []byte
	body = binary.AppendUvarint(body, 3)         // stage
	body = binary.AppendUvarint(body, 9)         // host
	body = binary.AppendUvarint(body, 77)        // task id
	body = binary.AppendUvarint(body, 1_000_000) // start µs
	body = binary.AppendUvarint(body, 500)       // duration µs
	body = binary.AppendUvarint(body, 0)         // no points
	// Unknown extension id 99 with an opaque 3-byte payload.
	body = binary.AppendUvarint(body, 99)
	body = binary.AppendUvarint(body, 3)
	body = append(body, 0xDE, 0xAD, 0xBF)
	// Followed by a trace extension the decoder does understand.
	var payload []byte
	payload = binary.AppendUvarint(payload, 42)
	payload = binary.AppendUvarint(payload, 43)
	body = binary.AppendUvarint(body, extTrace)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)

	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(len(body)))
	rec = append(rec, body...)

	dec := NewDecoder(bytes.NewReader(rec))
	var got Synopsis
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("decode with unknown extension failed: %v", err)
	}
	if got.TaskID != 77 || got.Host != 9 {
		t.Fatalf("fields wrong after extension skip: %+v", got)
	}
	if got.Trace == nil || got.Trace.Emit != 42 || got.Trace.Send != 43 {
		t.Fatalf("trace extension after unknown one not decoded: %+v", got.Trace)
	}

	// A truncated extension must error, not read past the body.
	bad := []byte{}
	bad = binary.AppendUvarint(bad, 3)
	bad = binary.AppendUvarint(bad, 9)
	bad = binary.AppendUvarint(bad, 77)
	bad = binary.AppendUvarint(bad, 1)
	bad = binary.AppendUvarint(bad, 1)
	bad = binary.AppendUvarint(bad, 0)
	bad = binary.AppendUvarint(bad, extTrace)
	bad = binary.AppendUvarint(bad, 10) // claims 10 payload bytes, has none
	var badRec []byte
	badRec = binary.AppendUvarint(badRec, uint64(len(bad)))
	badRec = append(badRec, bad...)
	if err := NewDecoder(bytes.NewReader(badRec)).Decode(&got); err == nil {
		t.Fatal("truncated extension decoded without error")
	}
}

// TestCodecRetiredExtensionSkipped: a peer built before the
// ring-epoch stamp was deleted still sends extension id 2 (one uvarint)
// after the trace extension. Both decoders take such a record with every
// other field exact — the stamp falls through the skip-unknown rule.
func TestCodecRetiredExtensionSkipped(t *testing.T) {
	want := traceTestSyn()
	want.Trace = &trace.Span{Emit: 1_000_000, Send: 2_000_000}
	stamp := []byte{2, 1, 42} // id 2, one payload byte, epoch 42

	t.Run("record", func(t *testing.T) {
		body := append(appendBody(nil, want), stamp...)
		rec := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		// A record of ours behind it: the stamp's bytes were consumed exactly.
		rec = AppendRecord(rec, want)
		dec := NewDecoder(bytes.NewReader(rec))
		for i := 0; i < 2; i++ {
			var got Synopsis
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			assertEqualSynopsis(t, i, &got, want)
		}
	})

	t.Run("v2 frame", func(t *testing.T) {
		// Our encoder ends a traced record with [count 1][trace extension];
		// the old one wrote count 2 and the stamp behind it.
		rec := NewBatchEncoder().appendRecordV2(nil, want)
		rec[len(rec)-len(appendExtensions(nil, want))-1] = 2
		rec = append(rec, stamp...)
		frame := binary.AppendUvarint(nil, uint64(2+len(rec))) // kind, count, records
		frame = append(frame, frameBatch, 1)
		frame = append(frame, rec...)
		// A frame of ours behind it, on the same connection: the flow the old
		// frame defined is referenced, so the tables stayed in step.
		next := *want
		next.TaskID++
		enc := NewBatchEncoder()
		enc.AppendFrames(nil, []*Synopsis{want})
		frame = enc.AppendFrames(frame, []*Synopsis{&next})

		dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(frame)))
		for i, w := range []*Synopsis{want, &next} {
			var got Synopsis
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			assertEqualSynopsis(t, i, &got, w)
		}
		if dec.InternedRefs() != 1 {
			t.Fatalf("InternedRefs = %d, want 1 (the second frame's record)", dec.InternedRefs())
		}
	})
}
