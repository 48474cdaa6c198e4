package synopsis

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// The v2 codec is stateful — a record's bytes depend on the connection's
// intern table, on the entry's last task id and on the frame's previous
// start — so these tests push whole sequences through one connection and
// require field-exact equality on every record.

// A sequence script spends two bytes per record: the first picks the flow
// and how far the task id and the start step, the second what else the
// record carries and what happens after it.
const (
	seqGroupMask = 0x03 // byte 0, bits 0-1: which of four (stage, host) groups
	seqSigShift  = 2    // byte 0, bits 2-3: signature variant (3 = 70 points, never interned)
	seqStepShift = 4    // byte 0, bits 4-7: step size

	seqUnitCounts = 1 << 0 // byte 1: every count is 1
	seqBackwards  = 1 << 1 // task id and start step backwards: negative deltas
	seqTrace      = 1 << 3 // trace extension
	seqCut        = 1 << 4 // the AppendFrames batch ends after this record
	seqReset      = 1 << 5 // ... and so does the connection: a fresh encoder and decoder
)

// sequenceRecord derives record i of a script from base.
func sequenceRecord(base *Synopsis, i int, flow, flags byte, task *uint64, start *time.Time) *Synopsis {
	group := flow & seqGroupMask
	s := &Synopsis{
		Stage:    base.Stage + logpoint.StageID(group&1),
		Host:     base.Host + uint16(group>>1),
		Duration: base.Duration + time.Duration(i%7)*time.Microsecond,
	}
	switch flow >> seqSigShift & 0x03 {
	case 0:
		s.Points = append(s.Points, base.Points...)
	case 1:
		if len(base.Points) > 0 {
			s.Points = append(s.Points, base.Points[1:]...)
		}
	case 2:
		s.Points = append(s.Points, base.Points...)
		s.Points = append(s.Points, PointCount{Point: 65535, Count: 3})
		s.Normalize()
	case 3:
		for j := 0; j < maxInternPoints+6; j++ {
			s.Points = append(s.Points, PointCount{Point: logpoint.ID(1000 + 3*j), Count: uint32(j%5 + 1)})
		}
	}
	if flags&seqUnitCounts != 0 {
		for j := range s.Points {
			s.Points[j].Count = 1
		}
	}
	step := uint64(flow>>seqStepShift)*37 + 1
	if flags&seqBackwards != 0 {
		*task -= step
		*start = start.Add(-time.Duration(step) * 250 * time.Microsecond)
	} else {
		*task += step
		*start = start.Add(time.Duration(step) * 250 * time.Microsecond)
	}
	s.TaskID, s.Start = *task, *start
	if flags&seqTrace != 0 {
		s.Trace = &trace.Span{Emit: int64(i) * 1e6, Send: int64(i)*1e6 + int64(step)}
	}
	return s
}

// runSequence plays script over one encoder, decodes every connection's
// bytes with a fresh decoder into one reused synopsis, and compares field
// by field. It returns how many AppendFrames calls and how many frames the
// script made.
func runSequence(t *testing.T, base *Synopsis, script []byte) (calls, frames int) {
	t.Helper()
	enc := NewBatchEncoder()
	var wire []byte
	var want, batch []*Synopsis
	flush := func() {
		if len(batch) > 0 {
			wire = enc.AppendFrames(wire, batch)
			calls++
			batch = batch[:0]
		}
	}
	endConnection := func() {
		flush()
		dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
		var got Synopsis // reused: stale points and spans must not leak
		left := 0        // records of the current frame
		for i, w := range want {
			if left == 0 {
				var err error
				if left, err = dec.Next(); err != nil {
					t.Fatalf("frame before record %d of %d: %v", i, len(want), err)
				}
				frames++
			}
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("decode record %d of %d: %v", i, len(want), err)
			}
			left--
			assertEqualSynopsis(t, i, &got, w)
		}
		if err := dec.Decode(&got); !errors.Is(err, io.EOF) {
			t.Fatalf("after %d records: got %v, want io.EOF", len(want), err)
		}
		if dec.InternedRefs() > uint64(len(want)) {
			t.Fatalf("%d interned refs in %d records", dec.InternedRefs(), len(want))
		}
		wire, want = wire[:0], want[:0]
	}
	task, start := base.TaskID, base.Start
	for i := 0; i+1 < len(script); i += 2 {
		s := sequenceRecord(base, i/2, script[i], script[i+1], &task, &start)
		batch = append(batch, s)
		want = append(want, s)
		switch flags := script[i+1]; {
		case flags&seqReset != 0:
			endConnection()
			enc = NewBatchEncoder()
		case flags&seqCut != 0:
			flush()
		}
	}
	endConnection()
	return calls, frames
}

// TestBatchSequenceProperty drives random scripts — interleaved groups and
// signatures, steps in both directions, counts, the trace extension, the
// uninternable signature, cuts and resets — through the sequence runner.
func TestBatchSequenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20141208))
	for round := 0; round < 60; round++ {
		base := synopsisFromFuzz(uint16(rng.Uint32()), uint16(rng.Uint32()), rng.Uint64(),
			rng.Int63(), rng.Int63(), uint8(rng.Uint32()), rng.Uint64(), false)
		script := make([]byte, 2*(1+rng.Intn(600)))
		rng.Read(script)
		for i := 1; i < len(script); i += 2 {
			if rng.Intn(8) != 0 {
				script[i] &^= seqReset // a connection usually outlives a few frames
			}
		}
		runSequence(t, base, script)
	}

	// One AppendFrames call of more records than a frame holds: the split
	// falls inside the call, and the second frame's first start is absolute
	// again.
	base := synopsisFromFuzz(40, 3, 1<<40, 1<<40, 77, 5, 9, false)
	script := make([]byte, 2*(MaxBatchRecords+100))
	rng.Read(script)
	for i := 1; i < len(script); i += 2 {
		script[i] &^= seqCut | seqReset
	}
	if calls, frames := runSequence(t, base, script); calls != 1 || frames != 2 {
		t.Fatalf("%d records made %d AppendFrames calls and %d frames, want 1 and 2", len(script)/2, calls, frames)
	}
}

// TestBatchInternTableFull drives the table to maxInternEntries: the flows
// that found room are sent as refs from then on, the ones that did not are
// sent inline forever, and both ends agree on which is which.
func TestBatchInternTableFull(t *testing.T) {
	const extra = 50
	flows := make([]*Synopsis, maxInternEntries+extra)
	for i := range flows {
		flows[i] = &Synopsis{
			Stage: logpoint.StageID(i >> 16), Host: uint16(i), TaskID: uint64(i) * 3,
			Start:    time.UnixMicro(int64(1e15 + i)).UTC(),
			Duration: time.Duration(i%90) * time.Microsecond,
			Points:   []PointCount{{Point: logpoint.ID(i % 11), Count: 1}, {Point: 20, Count: uint32(i%2 + 1)}},
		}
	}
	enc := NewBatchEncoder()
	var wire []byte
	for pass := 0; pass < 2; pass++ {
		for at := 0; at < len(flows); at += MaxBatchRecords {
			wire = enc.AppendFrames(wire, flows[at:min(at+MaxBatchRecords, len(flows))])
		}
	}
	if got := enc.InternedRefs(); got != maxInternEntries {
		t.Fatalf("encoder sent %d refs, want %d: the second pass of every flow the table took", got, maxInternEntries)
	}
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	var got Synopsis
	for i := 0; i < 2*len(flows); i++ {
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		assertEqualSynopsis(t, i, &got, flows[i%len(flows)])
	}
	if err := dec.Decode(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("got %v, want io.EOF", err)
	}
	if dec.InternedRefs() != maxInternEntries || len(dec.flows) != maxInternEntries {
		t.Fatalf("decoder saw %d refs into a table of %d, want %d and %d", dec.InternedRefs(), len(dec.flows), maxInternEntries, maxInternEntries)
	}
}

// TestBatchDecodeDoesNotAliasTable pins the copy on a ref hit: the engine
// recycles and mutates the decoded record's Points, and the next record of
// the same flow must still get the pristine signature.
func TestBatchDecodeDoesNotAliasTable(t *testing.T) {
	s := traceTestSyn()
	s.Points = []PointCount{{Point: 1, Count: 1}, {Point: 5, Count: 1}, {Point: 9, Count: 1}}
	enc := NewBatchEncoder()
	wire := enc.AppendFrames(nil, []*Synopsis{s, s, s})
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	var got Synopsis
	for i := 0; i < 3; i++ {
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		assertEqualSynopsis(t, i, &got, s)
		// What a downstream stage may do to a record it owns.
		for j := range got.Points {
			got.Points[j] = PointCount{Point: 999, Count: 77}
		}
		got.Points = append(got.Points[:1], PointCount{Point: 4242, Count: 2})
	}
	for i, id := range dec.points {
		if id != s.Points[i].Point {
			t.Fatalf("table signature %v changed under a caller's writes, want the ids of %v", dec.points, s.Points)
		}
	}
}

// TestBatchDecoderTableBound feeds a stream of nothing but definitions —
// far more, and some far longer, than the table takes — and checks what
// the decoder holds on to afterwards: maxInternEntries entries of at most
// maxInternPoints ids, whatever the peer sends.
func TestBatchDecoderTableBound(t *testing.T) {
	record := func(i, npts int) []byte {
		// head (a definition, no flags), stage, host, point count
		rec := uvarints(0, uint64(i&0xffff), uint64(i>>16), uint64(npts))
		for j := 0; j < npts; j++ {
			rec = append(rec, 1) // id delta
		}
		return append(rec, 2, 2, 2) // task, start, duration
	}
	var wire []byte
	total := 0
	for total < 2*maxInternEntries { // a quarter are too long to intern
		var body []byte
		n := 0
		for ; n < MaxBatchRecords; n++ {
			npts := maxInternPoints
			if (total+n)%4 == 3 {
				npts = maxInternPoints + 1 // never interned
			}
			body = append(body, record(total+n, npts)...)
		}
		wire = append(wire, testFrame(frameBatch, uint64(n), body)...)
		total += n
	}
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	var s Synopsis
	for i := 0; i < total; i++ {
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("decode definition %d: %v", i, err)
		}
	}
	if len(dec.flows) != maxInternEntries {
		t.Fatalf("table holds %d entries after %d definitions, want the bound %d", len(dec.flows), total, maxInternEntries)
	}
	if limit := maxInternEntries * maxInternPoints; len(dec.points) > limit || cap(dec.points) > 2*limit {
		t.Fatalf("signature arena holds %d ids (capacity %d), want at most %d", len(dec.points), cap(dec.points), limit)
	}
	for i, f := range dec.flows {
		if f.npts > maxInternPoints {
			t.Fatalf("entry %d interned a %d-point signature, limit %d", i, f.npts, maxInternPoints)
		}
	}
}

// TestBatchSteadyStateSize pins the wire cost the format exists for: a
// stream that keeps to a fixed set of flows — four hosts, per-host task
// ids, starts a fraction of a millisecond apart, 512-record frames — costs
// at most 8 bytes a record once its first frame has defined them.
func TestBatchSteadyStateSize(t *testing.T) {
	const frameRecords, frames, hosts, flowsPerHost = 512, 12, 4, 25
	rng := rand.New(rand.NewSource(7))
	sigs := make([][]PointCount, flowsPerHost)
	for i := range sigs {
		for j := 0; j <= i%6; j++ {
			sigs[i] = append(sigs[i], PointCount{Point: logpoint.ID(10*i + 3*j + 1), Count: 1})
		}
	}
	var nextTask [hosts]uint64
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	enc := NewBatchEncoder()
	var sizes []int
	for f := 0; f < frames; f++ {
		batch := make([]*Synopsis, frameRecords)
		for i := range batch {
			host, flow := rng.Intn(hosts), rng.Intn(flowsPerHost)
			nextTask[host]++
			start = start.Add(time.Duration(rng.Intn(400)) * time.Microsecond)
			s := &Synopsis{
				Stage: logpoint.StageID(flow%9 + 1), Host: uint16(host), TaskID: nextTask[host],
				Start: start, Duration: time.Duration(50+rng.Intn(20000)) * time.Microsecond,
				Points: append([]PointCount(nil), sigs[flow]...),
			}
			if len(s.Points) > 0 && rng.Intn(14) == 0 { // the odd repeated log point
				s.Points[0].Count = 2
			}
			batch[i] = s
		}
		sizes = append(sizes, len(enc.AppendFrames(nil, batch)))
	}
	steady := 0
	for _, n := range sizes[1:] {
		steady += n
	}
	perRecord := float64(steady) / float64((frames-1)*frameRecords)
	t.Logf("first frame %.2f B/record, steady state %.2f B/record", float64(sizes[0])/frameRecords, perRecord)
	if perRecord > 8 {
		t.Fatalf("steady-state v2 stream costs %.2f B/record, want at most 8", perRecord)
	}
}
