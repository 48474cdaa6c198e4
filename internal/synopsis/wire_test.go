package synopsis

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// TestEncodedSizeMatchesAppendRecord pins the arithmetic EncodedSize to the
// encoder's actual output, traced and untraced, across varied shapes.
func TestEncodedSizeMatchesAppendRecord(t *testing.T) {
	for i := 0; i < 500; i++ {
		s := sampleSynopsis(i)
		if i%3 == 0 {
			s.Trace = &trace.Span{Emit: int64(i) * 1e9, Send: int64(i)*1e9 + 5}
		}
		if got, want := EncodedSize(s), len(AppendRecord(nil, s)); got != want {
			t.Fatalf("synopsis %d: EncodedSize=%d, len(AppendRecord)=%d", i, got, want)
		}
	}
	empty := &Synopsis{Start: time.UnixMicro(0).UTC()}
	if got, want := EncodedSize(empty), len(AppendRecord(nil, empty)); got != want {
		t.Fatalf("empty synopsis: EncodedSize=%d, len(AppendRecord)=%d", got, want)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		var buf [10]byte
		if got, want := uvarintLen(v), putUvarintLen(buf[:], v); got != want {
			t.Fatalf("uvarintLen(%d)=%d, PutUvarint wrote %d", v, got, want)
		}
	}
}

func putUvarintLen(buf []byte, v uint64) int {
	n := 0
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	return n + 1
}

// roundTripV2 encodes batches with enc and decodes everything back.
func roundTripV2(t *testing.T, enc *BatchEncoder, batches [][]*Synopsis) []*Synopsis {
	t.Helper()
	var wire []byte
	for _, b := range batches {
		wire = enc.AppendFrames(wire, b)
	}
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	var out []*Synopsis
	for {
		var s Synopsis
		err := dec.Decode(&s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decode record %d: %v", len(out), err)
		}
		out = append(out, s.Clone())
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	enc := NewBatchEncoder()
	var want []*Synopsis
	var batches [][]*Synopsis
	for b := 0; b < 7; b++ {
		var batch []*Synopsis
		for i := 0; i < 50+b; i++ {
			s := sampleSynopsis(b*100 + i)
			if (b+i)%5 == 0 {
				s.Trace = &trace.Span{Emit: 100 + int64(i), Send: 200 + int64(i)}
			}
			batch = append(batch, s)
			want = append(want, s)
		}
		batches = append(batches, batch)
	}
	got := roundTripV2(t, enc, batches)
	if len(got) != len(want) {
		t.Fatalf("decoded %d synopses, want %d", len(got), len(want))
	}
	for i := range want {
		assertEqualSynopsis(t, i, got[i], want[i])
	}
	if enc.InternedRefs() == 0 {
		t.Fatal("expected interned header refs after repeated (host,stage) groups")
	}
}

func assertEqualSynopsis(t *testing.T, i int, got, want *Synopsis) {
	t.Helper()
	if got.Stage != want.Stage || got.Host != want.Host || got.TaskID != want.TaskID {
		t.Fatalf("synopsis %d header mismatch: got %v want %v", i, got, want)
	}
	if !got.Start.Equal(want.Start) || got.Duration != want.Duration {
		t.Fatalf("synopsis %d time mismatch: got %v/%v want %v/%v", i, got.Start, got.Duration, want.Start, want.Duration)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("synopsis %d point count mismatch: got %d want %d", i, len(got.Points), len(want.Points))
	}
	for j := range want.Points {
		if got.Points[j] != want.Points[j] {
			t.Fatalf("synopsis %d point %d mismatch: got %v want %v", i, j, got.Points[j], want.Points[j])
		}
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("synopsis %d trace presence mismatch", i)
	}
	if want.Trace != nil && (got.Trace.Emit != want.Trace.Emit || got.Trace.Send != want.Trace.Send) {
		t.Fatalf("synopsis %d trace stamps mismatch: got %+v want %+v", i, got.Trace, want.Trace)
	}
}

// TestBatchInterning verifies a repeated flow shrinks to one uvarint: the
// second batch of the same (stage, host, signature) must be strictly
// smaller than the first, and a new connection's encoder must re-emit the
// inline definition.
func TestBatchInterning(t *testing.T) {
	mk := func(n int) []*Synopsis {
		out := make([]*Synopsis, n)
		for i := range out {
			out[i] = &Synopsis{
				Stage: 7, Host: 3, TaskID: uint64(i),
				Start:  time.UnixMicro(1000).UTC(),
				Points: []PointCount{{Point: 5, Count: 1}},
			}
		}
		return out
	}
	enc := NewBatchEncoder()
	first := len(enc.AppendFrames(nil, mk(10)))
	second := len(enc.AppendFrames(nil, mk(10)))
	if second >= first {
		t.Fatalf("interned batch (%dB) not smaller than defining batch (%dB)", second, first)
	}
	third := len(NewBatchEncoder().AppendFrames(nil, mk(10)))
	if third != first {
		t.Fatalf("new encoder's batch %dB, want the defining size %dB again", third, first)
	}
}

// TestBatchDecoderRejectsStaleRef proves the decoder refuses an intern ref
// it never saw a definition for — the reconnect/reset safety property.
func TestBatchDecoderRejectsStaleRef(t *testing.T) {
	enc := NewBatchEncoder()
	warm := enc.AppendFrames(nil, []*Synopsis{sampleSynopsis(1)})
	// Same encoder, table now warm: this frame uses a bare ref.
	refOnly := enc.AppendFrames(nil, []*Synopsis{sampleSynopsis(1)})
	_ = warm
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(refOnly)))
	var s Synopsis
	if err := dec.Decode(&s); err == nil {
		t.Fatal("decoder accepted an intern ref with an empty table (simulated reconnect without reset)")
	}
}

func TestBatchFrameSplitting(t *testing.T) {
	enc := NewBatchEncoder()
	batch := make([]*Synopsis, MaxBatchRecords+5)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
	}
	wire := enc.AppendFrames(nil, batch)
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	frames, n := 0, 0
	for {
		records, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		for ; records > 0; records-- {
			var s Synopsis
			if err := dec.Decode(&s); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n != len(batch) {
		t.Fatalf("decoded %d records, want %d", n, len(batch))
	}
	if frames < 2 {
		t.Fatalf("batch of %d records produced %d frames, want a split", len(batch), frames)
	}
}

func TestBatchDecoderCorruptInputs(t *testing.T) {
	enc := NewBatchEncoder()
	good := enc.AppendFrames(nil, []*Synopsis{sampleSynopsis(3), sampleSynopsis(4)})

	// Every truncation of a valid stream must error (or EOF at offset 0).
	for cut := 0; cut < len(good); cut++ {
		dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(good[:cut])))
		var s Synopsis
		var err error
		for err == nil {
			err = dec.Decode(&s)
		}
		if errors.Is(err, io.EOF) && cut != 0 {
			t.Fatalf("truncation at %d/%d decoded as clean EOF", cut, len(good))
		}
	}

	// An oversized frame length must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 GB
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(huge)))
	var s Synopsis
	if err := dec.Decode(&s); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}

	// Hand-built records. A definition is head (0 plus flag bits), stage,
	// host, point count and id deltas; every record goes on with task,
	// start, duration and — with the counts flag — one count per point.
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"valid definition", testFrame(frameBatch, 1, uvarints(0, 7, 3, 1, 5, 2, 2, 9)), ""},
		// A value too wide for its field must not wrap into another host's
		// (stage's, point's) window: host 65539 is not host 3.
		{"host beyond uint16", testFrame(frameBatch, 1, uvarints(0, 7, 65539, 1, 5, 2, 2, 9)), "host 65539 out of range"},
		{"stage beyond uint16", testFrame(frameBatch, 1, uvarints(0, 1<<16, 3, 1, 5, 2, 2, 9)), "stage 65536 out of range"},
		{"point delta beyond uint16", testFrame(frameBatch, 1, uvarints(0, 7, 3, 1, 65541, 2, 2, 9)), "id delta 65541 out of range"},
		{"count beyond uint32", testFrame(frameBatch, 1, uvarints(headHasCounts, 7, 3, 1, 5, 2, 2, 9, 1<<32+1)), "count 4294967297 out of range"},
		{"flow ref into an empty table", testFrame(frameBatch, 1, uvarints(1<<headRefShift, 2, 2, 9)), "beyond intern table"},
		{"more points than bytes", testFrame(frameBatch, 1, uvarints(0, 7, 3, 1<<30)), "points exceeds remaining"},
		{"too many extensions", testFrame(frameBatch, 1, uvarints(headHasExt, 7, 3, 1, 5, 2, 2, 9, maxRecordExtensions+1)), "extension count"},
		{"extension longer than the frame", testFrame(frameBatch, 1, uvarints(headHasExt, 7, 3, 1, 5, 2, 2, 9, 1, extTrace, 40)), "exceeds remaining"},
		{"trailing bytes", testFrame(frameBatch, 1, uvarints(0, 7, 3, 1, 5, 2, 2, 9, 0)), "trailing bytes"},
		// The pre-interning record layout shipped as kind 1: a stale peer is
		// refused by name instead of being misparsed.
		{"stale kind-1 frame", testFrame(1, 1, uvarints(0, 7, 3, 1, 5, 2, 2, 9)), "unknown frame kind 1"},
		{"zero records", testFrame(frameBatch, 0, nil), "record count 0 out of range"},
		{"too many records", testFrame(frameBatch, MaxBatchRecords+1, make([]byte, minRecordSize*(MaxBatchRecords+1))), "out of range"},
	} {
		dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(tc.frame)))
		err := dec.Decode(&s)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// uvarints encodes vs one after another: a hand-built record or body.
func uvarints(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// testFrame wraps a record section in a batch frame header announcing n
// records.
func testFrame(kind byte, n uint64, body []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(1+uvarintLen(n)+len(body)))
	out = append(out, kind)
	out = binary.AppendUvarint(out, n)
	return append(out, body...)
}

// TestFrameRecordCountBound pins Next's sanity bound to the layout's
// true minimum record: a frame of minimum-size records decodes, and the
// same bytes announcing one record more are refused at the frame header,
// before any record is parsed.
func TestFrameRecordCountBound(t *testing.T) {
	const n = 10
	batch := make([]*Synopsis, n)
	for i := range batch {
		batch[i] = &Synopsis{
			Stage: 7, Host: 3, TaskID: uint64(i + 1),
			Start:    time.UnixMicro(int64(5 + i)).UTC(),
			Duration: 9 * time.Microsecond,
			Points:   []PointCount{{Point: 5, Count: 1}},
		}
	}
	enc := NewBatchEncoder()
	warm := enc.AppendFrames(nil, batch[:1])
	frame := enc.AppendFrames(nil, batch)
	if got, want := len(frame), 3+n*minRecordSize; got != want {
		t.Fatalf("frame of %d known-flow records is %d bytes, want header 3 + %d × %d", n, got, n, minRecordSize)
	}
	decodeAll := func(wire []byte) (int, error) {
		dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
		var s Synopsis
		for i := 0; ; i++ {
			if err := dec.Decode(&s); err != nil {
				return i, err
			}
		}
	}
	if got, err := decodeAll(append(append([]byte(nil), warm...), frame...)); got != 1+n || !errors.Is(err, io.EOF) {
		t.Fatalf("decoded %d records (%v), want %d then EOF", got, err, 1+n)
	}
	if frame[2] != n {
		t.Fatalf("frame header %v: record count not where the test expects it", frame[:3])
	}
	frame[2] = n + 1
	got, err := decodeAll(append(append([]byte(nil), warm...), frame...))
	if got != 1 || err == nil || !strings.Contains(err.Error(), "exceed remaining") {
		t.Fatalf("frame announcing %d records in %d bytes: decoded %d records of it, err %v; want refusal at the frame header", n+1, n*minRecordSize, got-1, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	hello := AppendHello(nil, MaxProtocolVersion)
	br := bufio.NewReader(bytes.NewReader(hello))
	maxVer, ok, err := PeekHello(br)
	if err != nil || !ok || maxVer != MaxProtocolVersion {
		t.Fatalf("PeekHello = (%d, %v, %v), want (%d, true, nil)", maxVer, ok, err, MaxProtocolVersion)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("hello not fully consumed: %v", err)
	}

	ack := AppendHelloAck(nil, ProtocolV2)
	ver, err := ReadHelloAck(bufio.NewReader(bytes.NewReader(ack)))
	if err != nil || ver != ProtocolV2 {
		t.Fatalf("ReadHelloAck = (%d, %v), want (%d, nil)", ver, err, ProtocolV2)
	}
}

// TestPeekHelloPassesV1 proves hello detection never consumes (or
// misclassifies) a legacy stream, including records with multi-byte length
// prefixes.
func TestPeekHelloPassesV1(t *testing.T) {
	big := sampleSynopsis(9)
	for i := 0; i < 40; i++ { // push the record length past 128 bytes
		big.Points = append(big.Points, PointCount{Point: logpoint.ID(300 + i*3), Count: 2})
	}
	big.Normalize()
	for _, s := range []*Synopsis{sampleSynopsis(1), big} {
		wire := AppendRecord(nil, s)
		br := bufio.NewReader(bytes.NewReader(wire))
		_, ok, err := PeekHello(br)
		if err != nil || ok {
			t.Fatalf("PeekHello on v1 stream = (%v, %v), want (false, nil)", ok, err)
		}
		dec := NewDecoder(br)
		var got Synopsis
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("v1 decode after peek: %v", err)
		}
		assertEqualSynopsis(t, 0, &got, s)
	}
}

// TestHelloRejectedByV1Decoder pins the downgrade signal: a legacy server
// reading a hello must fail with ErrRecordTooLarge, not hang or misparse.
func TestHelloRejectedByV1Decoder(t *testing.T) {
	hello := AppendHello(nil, MaxProtocolVersion)
	dec := NewDecoder(bytes.NewReader(hello))
	var s Synopsis
	if err := dec.Decode(&s); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("v1 decoder on hello: got %v, want ErrRecordTooLarge", err)
	}
}

func TestPool(t *testing.T) {
	p := NewPool(2)
	var one [1]*Synopsis
	p.GetN(one[:])
	s := one[0]
	s.Stage, s.Host, s.TaskID = 3, 4, 5
	s.Points = append(s.Points, PointCount{Point: 9, Count: 2})
	s.Trace = &trace.Span{}
	p.Put(s)
	p.GetN(one[:])
	got := one[0]
	if got != s {
		t.Fatal("pool did not recycle the released synopsis")
	}
	if got.Stage != 0 || got.Host != 0 || got.TaskID != 0 || got.Trace != nil || len(got.Points) != 0 {
		t.Fatalf("recycled synopsis not reset: %+v", got)
	}
	if cap(got.Points) == 0 {
		t.Fatal("recycled synopsis lost its point capacity")
	}
	// nil pool degrades to allocation, never panics.
	var np *Pool
	if np.GetN(one[:]); one[0] == nil || one[0] == s {
		t.Fatal("nil pool GetN did not allocate")
	}
	np.Put(&Synopsis{})
}
