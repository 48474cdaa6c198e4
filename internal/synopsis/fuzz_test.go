package synopsis

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// synopsisFromFuzz derives a normalized synopsis from fuzzer-chosen
// primitives. ptSeed drives a small deterministic point-list generator so
// the corpus explores empty, single and multi-point shapes.
func synopsisFromFuzz(stage, host uint16, task uint64, startUs, durUs int64, npts uint8, ptSeed uint64, traced bool) *Synopsis {
	if startUs < 0 {
		startUs = -startUs
	}
	if durUs < 0 {
		durUs = -durUs
	}
	s := &Synopsis{
		Stage:    logpoint.StageID(stage),
		Host:     host,
		TaskID:   task,
		Start:    time.UnixMicro(startUs % (1 << 48)).UTC(),
		Duration: time.Duration(durUs%(1<<40)) * time.Microsecond,
	}
	n := int(npts % 32)
	for i := 0; i < n; i++ {
		ptSeed = ptSeed*6364136223846793005 + 1442695040888963407
		s.Points = append(s.Points, PointCount{
			Point: logpoint.ID(ptSeed >> 48),
			Count: uint32(ptSeed>>16)%1000 + 1,
		})
	}
	s.Normalize()
	if traced {
		s.Trace = &trace.Span{
			Emit: int64(ptSeed % (1 << 50)),
			Send: int64((ptSeed >> 3) % (1 << 50)),
		}
	}
	return s
}

// recordCorpus seeds both round-trip fuzz targets: synopsisFromFuzz's
// arguments for a small record, a traced one with no points and wide
// fields, and a 31-point one on the last host.
var recordCorpus = []struct {
	stage, host    uint16
	task           uint64
	startUs, durUs int64
	npts           uint8
	ptSeed         uint64
	traced         bool
}{
	{1, 2, 3, 4, 5, 3, 6, false},
	{40, 0, 1 << 60, 1 << 40, 77, 0, 9, true},
	{0, 65535, 0, 0, 0, 31, 1, true},
}

// FuzzRecordRoundTrip drives the same synopsis through both wire formats —
// a v1 record and a v2 batch (encoded twice, so the second copy exercises
// the interned-ref path) — and requires byte-exact field equality on every
// decode.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, c := range recordCorpus {
		f.Add(c.stage, c.host, c.task, c.startUs, c.durUs, c.npts, c.ptSeed, c.traced)
	}
	f.Fuzz(func(t *testing.T, stage, host uint16, task uint64, startUs, durUs int64, npts uint8, ptSeed uint64, traced bool) {
		want := synopsisFromFuzz(stage, host, task, startUs, durUs, npts, ptSeed, traced)

		// v1: length-prefixed single record.
		dec := NewDecoder(bytes.NewReader(AppendRecord(nil, want)))
		var got1 Synopsis
		if err := dec.Decode(&got1); err != nil {
			t.Fatalf("v1 decode: %v", err)
		}
		assertEqualSynopsis(t, 0, &got1, want)

		// v2: two batches from one connection-scoped encoder; the first
		// defines the (stage, host, signature) flow inline, the second refs
		// it.
		enc := NewBatchEncoder()
		wire := enc.AppendFrames(nil, []*Synopsis{want})
		wire = enc.AppendFrames(wire, []*Synopsis{want})
		bdec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
		for i := 0; i < 2; i++ {
			var got2 Synopsis
			if err := bdec.Decode(&got2); err != nil {
				t.Fatalf("v2 decode copy %d: %v", i, err)
			}
			assertEqualSynopsis(t, i, &got2, want)
		}
		if enc.InternedRefs() != 1 {
			t.Fatalf("interned refs = %d, want exactly 1 (second copy)", enc.InternedRefs())
		}
	})
}

// FuzzBatchSequence drives a whole connection's worth of records through
// the stateful v2 codec: the script (two bytes a record, see
// sequenceRecord) interleaves groups and signatures derived from the base
// synopsis, steps task ids and starts in both directions, toggles counts
// and the trace extension, cuts batches and resets the connection, and every
// decoded record must equal the one encoded, field for field.
func FuzzBatchSequence(f *testing.F) {
	scripts := [][]byte{
		{0x00, 0x00, 0x00, 0x00},
		// Every group, signature variant and flag once, a cut and a reset.
		{0x10, seqUnitCounts, 0x25, seqBackwards, 0x3a, seqCut, 0x4f, seqTrace, 0x0c, seqReset, 0x10, 0, 0x25, seqBackwards | seqTrace},
		bytes.Repeat([]byte{0xf3, seqBackwards, 0x07, seqUnitCounts | seqCut}, 40),
	}
	for i, c := range recordCorpus {
		f.Add(c.stage, c.host, c.task, c.startUs, c.durUs, c.npts, c.ptSeed, c.traced, scripts[i%len(scripts)])
	}
	// The script says which records carry a span, so the corpus's traced
	// flag has nothing to add here.
	f.Fuzz(func(t *testing.T, stage, host uint16, task uint64, startUs, durUs int64, npts uint8, ptSeed uint64, _ bool, script []byte) {
		if len(script) > 1<<13 {
			script = script[:1<<13]
		}
		runSequence(t, synopsisFromFuzz(stage, host, task, startUs, durUs, npts, ptSeed, false), script)
	})
}

// FuzzDecodeCorrupt feeds arbitrary bytes to both decoders: they must
// terminate without panicking and without unbounded allocation, surfacing
// an error (or clean EOF) in bounded records.
func FuzzDecodeCorrupt(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, sampleSynopsis(1)))
	f.Add(NewBatchEncoder().AppendFrames(nil, []*Synopsis{sampleSynopsis(2), sampleSynopsis(3)}))
	f.Add(AppendHello(nil, MaxProtocolVersion))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecords = 1 << 16

		dec := NewDecoder(bytes.NewReader(data))
		var s Synopsis
		for i := 0; ; i++ {
			if i > maxRecords {
				t.Fatalf("v1 decoder yielded more than %d records from %d bytes", maxRecords, len(data))
			}
			if err := dec.Decode(&s); err != nil {
				break
			}
			if len(s.Points) > len(data) {
				t.Fatalf("v1 decoder produced %d points from %d input bytes", len(s.Points), len(data))
			}
		}

		bdec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(data)))
		for i := 0; ; i++ {
			if i > maxRecords {
				t.Fatalf("v2 decoder yielded more than %d records from %d bytes", maxRecords, len(data))
			}
			if err := bdec.Decode(&s); err != nil {
				break // clean EOF or a surfaced corruption error — both fine
			}
			if len(s.Points) > len(data) {
				t.Fatalf("v2 decoder produced %d points from %d input bytes", len(s.Points), len(data))
			}
		}
	})
}
