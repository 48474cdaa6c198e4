package synopsis

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// Codec framing: each record is a uvarint length prefix followed by the
// record body. The body packs all fields as uvarints with delta-encoded
// log point ids, which keeps a typical synopsis under 30 bytes — the paper
// reports ~48 bytes average for its Java encoding; the volume comparison in
// Figure 8 hinges on this compactness.
//
// Frame extensions: after the fixed fields and the point list, a record may
// carry zero or more trailing extensions, each a uvarint extension id, a
// uvarint payload length, and the payload. Decoders skip extensions they do
// not understand, and pre-extension decoders (which stop reading after the
// point list) ignore the trailing bytes entirely — this is how the trace
// extension stays backward compatible per connection without any handshake:
// only sampled synopses pay the extra bytes, and old peers still decode
// every frame.

// extTrace carries the sampled pipeline span's origin timestamps: uvarint
// Emit then uvarint Send, both unix nanoseconds (0 = not stamped). Id 2 is
// retired, not free: peers built before the ring-epoch stamp was deleted
// still send it, and it is skipped as unknown.
const extTrace = 1

// maxRecordSize bounds a single encoded record to keep a corrupt or
// malicious length prefix from allocating unbounded memory.
const maxRecordSize = 1 << 20

// ErrRecordTooLarge is returned when a length prefix exceeds maxRecordSize.
var ErrRecordTooLarge = errors.New("synopsis: record exceeds size limit")

// uvarintLen returns the number of bytes binary.PutUvarint emits for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// tracePayloadSize returns the encoded size of the extTrace payload.
func tracePayloadSize(sp *trace.Span) int {
	return uvarintLen(uint64(sp.Emit)) + uvarintLen(uint64(sp.Send))
}

// bodySize returns the exact encoded body length of s — the record bytes
// after the length prefix — computed arithmetically so encoders can reserve
// or prefix without producing the encoding first.
func bodySize(s *Synopsis) int {
	n := uvarintLen(uint64(s.Stage)) +
		uvarintLen(uint64(s.Host)) +
		uvarintLen(s.TaskID) +
		uvarintLen(uint64(s.Start.UnixMicro())) +
		uvarintLen(uint64(s.Duration.Microseconds())) +
		uvarintLen(uint64(len(s.Points)))
	var prev logpoint.ID
	for _, pc := range s.Points {
		n += uvarintLen(uint64(pc.Point-prev)) + uvarintLen(uint64(pc.Count))
		prev = pc.Point
	}
	if sp := s.Trace; sp != nil {
		p := tracePayloadSize(sp)
		n += uvarintLen(extTrace) + uvarintLen(uint64(p)) + p
	}
	return n
}

// appendBody appends the record body of s (no length prefix) to dst.
func appendBody(dst []byte, s *Synopsis) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Stage))
	dst = binary.AppendUvarint(dst, uint64(s.Host))
	dst = binary.AppendUvarint(dst, s.TaskID)
	dst = binary.AppendUvarint(dst, uint64(s.Start.UnixMicro()))
	dst = binary.AppendUvarint(dst, uint64(s.Duration.Microseconds()))
	dst = binary.AppendUvarint(dst, uint64(len(s.Points)))
	var prev logpoint.ID
	for _, pc := range s.Points {
		dst = binary.AppendUvarint(dst, uint64(pc.Point-prev))
		dst = binary.AppendUvarint(dst, uint64(pc.Count))
		prev = pc.Point
	}
	return appendExtensions(dst, s)
}

// appendExtensions appends the extensions s carries — id, payload length,
// payload each — in the form both framings share; nothing when it carries
// none.
func appendExtensions(dst []byte, s *Synopsis) []byte {
	if sp := s.Trace; sp != nil {
		dst = binary.AppendUvarint(dst, extTrace)
		dst = binary.AppendUvarint(dst, uint64(tracePayloadSize(sp)))
		dst = binary.AppendUvarint(dst, uint64(sp.Emit))
		dst = binary.AppendUvarint(dst, uint64(sp.Send))
	}
	return dst
}

// AppendRecord appends the canonical binary encoding of s to dst and returns
// the extended slice. The synopsis should be normalized. It is truly
// append-only: with sufficient capacity in dst it performs no allocation.
func AppendRecord(dst []byte, s *Synopsis) []byte {
	dst = binary.AppendUvarint(dst, uint64(bodySize(s)))
	return appendBody(dst, s)
}

// EncodedSize returns the number of bytes AppendRecord would emit for s,
// computed arithmetically without producing the encoding.
func EncodedSize(s *Synopsis) int {
	b := bodySize(s)
	return uvarintLen(uint64(b)) + b
}

// Decoder reads length-prefixed synopsis records from an io.Reader.
// Decoder is not safe for concurrent use.
type Decoder struct {
	r   *bufio.Reader
	buf []byte
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Decode reads the next record into s. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF for a truncated record.
func (d *Decoder) Decode(s *Synopsis) error {
	size, err := binary.ReadUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("synopsis: read length: %w", err)
	}
	if size > maxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, size)
	}
	if cap(d.buf) < int(size) {
		d.buf = make([]byte, size)
	}
	d.buf = d.buf[:size]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return fmt.Errorf("synopsis: read body: %w", err)
	}
	return decodeBody(d.buf, s)
}

func decodeBody(buf []byte, s *Synopsis) error {
	get := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		buf = buf[n:]
		return v, nil
	}
	stage, err := get()
	if err != nil {
		return fmt.Errorf("synopsis: decode stage: %w", err)
	}
	host, err := get()
	if err != nil {
		return fmt.Errorf("synopsis: decode host: %w", err)
	}
	task, err := get()
	if err != nil {
		return fmt.Errorf("synopsis: decode task id: %w", err)
	}
	startUs, err := get()
	if err != nil {
		return fmt.Errorf("synopsis: decode start: %w", err)
	}
	durUs, err := get()
	if err != nil {
		return fmt.Errorf("synopsis: decode duration: %w", err)
	}
	npts, err := get()
	if err != nil {
		return fmt.Errorf("synopsis: decode point count: %w", err)
	}
	if npts > uint64(len(buf)) { // each point needs >= 2 bytes; cheap sanity bound
		return fmt.Errorf("synopsis: %d points exceeds remaining %d bytes", npts, len(buf))
	}
	// A value too wide for its field is corruption, not something to wrap
	// into another host's or stage's window.
	if stage > math.MaxUint16 {
		return fmt.Errorf("synopsis: stage %d out of range", stage)
	}
	if host > math.MaxUint16 {
		return fmt.Errorf("synopsis: host %d out of range", host)
	}
	s.Stage = logpoint.StageID(stage)
	s.Host = uint16(host)
	s.TaskID = task
	s.Start = time.UnixMicro(int64(startUs)).UTC()
	s.Duration = time.Duration(durUs) * time.Microsecond
	s.Trace = nil // decoders reuse s; a prior record's span must not leak
	s.resizePoints(int(npts))
	var prev logpoint.ID
	for i := range s.Points {
		delta, err := get()
		if err != nil {
			return fmt.Errorf("synopsis: decode point %d id: %w", i, err)
		}
		count, err := get()
		if err != nil {
			return fmt.Errorf("synopsis: decode point %d count: %w", i, err)
		}
		if delta > math.MaxUint16 {
			return fmt.Errorf("synopsis: point %d id delta %d out of range", i, delta)
		}
		if count > math.MaxUint32 {
			return fmt.Errorf("synopsis: point %d count %d out of range", i, count)
		}
		prev += logpoint.ID(delta)
		s.Points[i] = PointCount{Point: prev, Count: uint32(count)}
	}
	// Trailing frame extensions: skip unknown ids so newer peers can extend
	// the frame without breaking this decoder, mirroring how pre-extension
	// decoders ignore these bytes altogether.
	for len(buf) > 0 {
		extID, err := get()
		if err != nil {
			return fmt.Errorf("synopsis: decode extension id: %w", err)
		}
		extLen, err := get()
		if err != nil {
			return fmt.Errorf("synopsis: decode extension length: %w", err)
		}
		if extLen > uint64(len(buf)) {
			return fmt.Errorf("synopsis: extension %d length %d exceeds remaining %d bytes", extID, extLen, len(buf))
		}
		payload := buf[:extLen]
		buf = buf[extLen:]
		if err := applyExtension(s, extID, payload); err != nil {
			return err
		}
	}
	return nil
}

// resizePoints sets len(s.Points) to n, keeping the backing array when it
// is large enough; the caller overwrites every element. A new array is at
// least four points (32 B, an exact size class) and twice the old one: a
// pooled record meets tasks of every size in turn, and growing to exactly n
// would re-make its array for each one point larger than the last.
func (s *Synopsis) resizePoints(n int) {
	if c := cap(s.Points); c < n {
		s.Points = make([]PointCount, max(n, 4, 2*c))
	}
	s.Points = s.Points[:n]
}

// applyExtension interprets one trailing frame extension on s. Unknown
// extension ids are skipped so newer peers can extend the record without
// breaking this decoder.
func applyExtension(s *Synopsis, extID uint64, payload []byte) error {
	if extID != extTrace {
		return nil
	}
	emit, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("synopsis: decode trace emit: %w", io.ErrUnexpectedEOF)
	}
	send, n2 := binary.Uvarint(payload[n:])
	if n2 <= 0 {
		return fmt.Errorf("synopsis: decode trace send: %w", io.ErrUnexpectedEOF)
	}
	s.Trace = &trace.Span{
		Stage:  uint16(s.Stage),
		Host:   s.Host,
		TaskID: s.TaskID,
		Emit:   int64(emit),
		Send:   int64(send),
	}
	return nil
}
