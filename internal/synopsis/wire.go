package synopsis

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"saad/internal/logpoint"
)

// Protocol v2 — the batched, flow-interning, delta-coded wire format
// (DESIGN §15).
//
// Every connection opens with a client hello (below); after the server's
// ack the stream is batch frames:
//
//	uvarint frameLen | byte kind | uvarint n | n × record
//
// where each record is self-delimiting (no per-record length prefix) and
// carries only what is new about the task:
//
//	uvarint head              ref<<2 | hasCounts<<1 | hasExt
//	                          ref = 0 ⇒ a flow definition follows inline:
//	                            uvarint stage, uvarint host,
//	                            uvarint npts | npts × uvarint pointDelta
//	                          and, while the table has room and npts <=
//	                          maxInternPoints, the (stage, host, signature)
//	                          triple is appended to the per-connection intern
//	                          table — both sides apply the same rule, so no
//	                          table synchronization is needed;
//	                          ref = k>0 ⇒ the triple is table entry k-1
//	zigzag taskDelta          against the table entry's last task id
//	                          (against 0 when the flow is not in the table)
//	zigzag startDelta         unix µs against the previous record of the
//	                          same frame (a frame's first record: against 0)
//	uvarint durationMicro
//	npts × uvarint count      only when hasCounts; otherwise every count is 1
//	uvarint extCount | extCount × (uvarint extID, uvarint extLen, payload)
//	                          only when hasExt
//
// The intern table (and each entry's last task id) is connection state: it
// starts empty on every connection and is never carried across reconnects —
// a resync resets it on both ends by construction, so a server joining
// mid-stream (or a client replaying spilled records after an outage) needs
// no resynchronization protocol. Start deltas restart with every frame, so
// a frame needs nothing but the connection's table to decode.
//
// Hello: the client opens with
//
//	uvarint helloMagic | uvarint maxVersion | uvarint flags
//
// and waits for the server's ack (same three fields, version = 2). The
// hello is mandatory and there is no downgrade: version 2 is the only
// protocol either side speaks, so a server hangs up — without writing a
// byte — on a peer that opens with anything else or offers less, and a
// client treats a missing or different ack as a failed dial. The ack is the
// server's only write; the stream is strictly one-way afterwards.

const (
	// ProtocolV2 is the batched framing with flow interning — the wire
	// protocol. (Version 1, bare per-record framing with no hello, is
	// retired; a peer offering it is refused.)
	ProtocolV2 = 2
	// MaxProtocolVersion is the newest protocol this build speaks.
	MaxProtocolVersion = ProtocolV2

	// helloMagic opens a client hello. It exceeds maxRecordSize, so no bare
	// record stream can start with it.
	helloMagic = 0x53414144 // "SAAD"

	// maxFrameSize bounds one v2 batch frame (corrupt length prefixes must
	// not allocate unbounded memory).
	maxFrameSize = 1 << 22
	// maxFrameBody is the soft cap batch encoders split frames at, leaving
	// headroom for the frame header itself.
	maxFrameBody = maxFrameSize - 64
	// MaxBatchRecords bounds the records carried by one batch frame.
	MaxBatchRecords = 4096
	// maxInternEntries bounds the per-connection intern table; once full,
	// further flows are sent inline forever (both sides stop appending at
	// the same point, keeping the tables identical).
	maxInternEntries = 1 << 16
	// maxInternPoints is the longest signature the table takes: a longer
	// one is sent inline every time, by the same rule on both ends, which
	// bounds a hostile peer's table at maxInternEntries × maxInternPoints
	// point ids.
	maxInternPoints = 64
	// maxRecordExtensions bounds the trailing extensions one v2 record may
	// carry.
	maxRecordExtensions = 16
	// minRecordSize is the smallest v2 record: head, task delta, start
	// delta and duration, one byte each.
	minRecordSize = 4

	// frameBatch is the only v2 frame kind. Kind 1 was the layout that
	// interned (stage, host) only; a peer still sending it is refused with
	// "unknown frame kind" rather than misparsed.
	frameBatch = 2

	// Flag bits in a record's head, below the flow ref.
	headHasExt    = 1 << 0
	headHasCounts = 1 << 1
	headRefShift  = 2
)

// ErrFrameTooLarge is returned when a v2 frame length exceeds maxFrameSize.
var ErrFrameTooLarge = errors.New("synopsis: frame exceeds size limit")

// ErrBadHello is returned when a hello or hello ack is malformed.
var ErrBadHello = errors.New("synopsis: malformed hello")

// AppendHello appends the client hello to dst: magic, the newest version
// the client speaks, and a zero flags word reserved for future use.
func AppendHello(dst []byte, maxVersion int) []byte {
	dst = binary.AppendUvarint(dst, helloMagic)
	dst = binary.AppendUvarint(dst, uint64(maxVersion))
	return binary.AppendUvarint(dst, 0)
}

// AppendHelloAck appends the server ack to dst: magic, the version chosen
// for the connection, and a zero flags word.
func AppendHelloAck(dst []byte, version int) []byte {
	dst = binary.AppendUvarint(dst, helloMagic)
	dst = binary.AppendUvarint(dst, uint64(version))
	return binary.AppendUvarint(dst, 0)
}

// ReadHelloAck reads the server's hello ack and returns the chosen
// protocol version.
func ReadHelloAck(r io.ByteReader) (int, error) {
	magic, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("synopsis: read hello ack: %w", err)
	}
	if magic != helloMagic {
		return 0, fmt.Errorf("%w: ack magic %#x", ErrBadHello, magic)
	}
	ver, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("synopsis: read hello ack version: %w", err)
	}
	if _, err := binary.ReadUvarint(r); err != nil { // flags (reserved)
		return 0, fmt.Errorf("synopsis: read hello ack flags: %w", err)
	}
	if ver == 0 || ver > MaxProtocolVersion {
		return 0, fmt.Errorf("%w: ack version %d", ErrBadHello, ver)
	}
	return int(ver), nil
}

// PeekHello inspects the start of a freshly accepted stream. It returns
// (maxVersion, true, nil) after consuming a client hello, or (0, false, nil)
// when the peer opened with anything else (nothing consumed) — a peer the
// caller refuses. An error is a read failure surfaced to the caller
// unchanged (timeout, EOF, ...) or a malformed hello.
//
// The first byte of the magic has the continuation bit set and the magic
// needs 5 uvarint bytes — so one peeked byte settles most foreign streams
// and five settle all of them.
func PeekHello(br *bufio.Reader) (int, bool, error) {
	first, err := br.Peek(1)
	if err != nil {
		return 0, false, err
	}
	if first[0]&0x80 == 0 {
		return 0, false, nil // a one-byte uvarint cannot be the magic
	}
	head, err := br.Peek(binary.MaxVarintLen32)
	if err != nil && len(head) == 0 {
		return 0, false, err
	}
	v, n := binary.Uvarint(head)
	if n <= 0 || v != helloMagic {
		return 0, false, nil // some other uvarint
	}
	if _, err := br.Discard(n); err != nil {
		return 0, false, err
	}
	maxVer, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, false, fmt.Errorf("synopsis: read hello version: %w", err)
	}
	if _, err := binary.ReadUvarint(br); err != nil { // flags (reserved)
		return 0, false, fmt.Errorf("synopsis: read hello flags: %w", err)
	}
	if maxVer == 0 {
		return 0, false, fmt.Errorf("%w: hello version 0", ErrBadHello)
	}
	return int(maxVer), true, nil
}

// zigzag maps a signed delta onto the uvarint range so small magnitudes of
// either sign stay one byte.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BatchEncoder builds v2 batch frames with per-connection flow interning.
// It is connection state: allocate one per connection so encoder and
// decoder tables stay in lockstep. Not safe for
// concurrent use.
type BatchEncoder struct {
	// ids maps a flow key — stage, host and the signature's point ids, two
	// big-endian bytes each — to its table index.
	ids map[string]uint32
	// lastTask is the table's other column: the task id of the latest
	// record sent for each entry, the base of the next one's delta.
	lastTask  []uint64
	key       [4 + 2*maxInternPoints]byte // flow-key scratch
	body      []byte                      // reusable record-section scratch
	prevStart int64                       // start µs of the frame's previous record
	interned  uint64
}

// NewBatchEncoder returns an encoder with an empty intern table.
func NewBatchEncoder() *BatchEncoder {
	return &BatchEncoder{ids: make(map[string]uint32)}
}

// InternedRefs returns how many records were emitted as a one-uvarint
// reference to a known (stage, host, signature) flow (rather than with an
// inline definition) since construction.
func (e *BatchEncoder) InternedRefs() uint64 { return e.interned }

// appendRecordV2 appends one self-delimiting v2 record to dst, updating
// the intern table and the frame's start-delta base. Only a definition the
// table takes allocates (its map key).
func (e *BatchEncoder) appendRecordV2(dst []byte, s *Synopsis) []byte {
	var flags uint64
	if s.Trace != nil {
		flags = headHasExt
	}
	for _, pc := range s.Points {
		if pc.Count != 1 {
			flags |= headHasCounts
			break
		}
	}
	// A signature too long for the table is never looked up, so it builds
	// no key.
	var key []byte
	var id uint32
	var known bool
	if len(s.Points) <= maxInternPoints {
		key = e.key[:4+2*len(s.Points)]
		key[0], key[1], key[2], key[3] = byte(s.Stage>>8), byte(s.Stage), byte(s.Host>>8), byte(s.Host)
		for i, pc := range s.Points {
			key[4+2*i], key[5+2*i] = byte(pc.Point>>8), byte(pc.Point)
		}
		id, known = e.ids[string(key)]
	}
	var taskBase uint64
	if known {
		dst = binary.AppendUvarint(dst, (uint64(id)+1)<<headRefShift|flags)
		taskBase, e.lastTask[id] = e.lastTask[id], s.TaskID
		e.interned++
	} else {
		dst = binary.AppendUvarint(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(s.Stage))
		dst = binary.AppendUvarint(dst, uint64(s.Host))
		dst = binary.AppendUvarint(dst, uint64(len(s.Points)))
		var prev logpoint.ID
		for _, pc := range s.Points {
			dst = binary.AppendUvarint(dst, uint64(pc.Point-prev))
			prev = pc.Point
		}
		if key != nil && len(e.lastTask) < maxInternEntries {
			id = uint32(len(e.lastTask))
			e.ids[string(key)] = id
			e.lastTask = append(e.lastTask, s.TaskID)
		}
	}
	start := s.Start.UnixMicro()
	dst = binary.AppendUvarint(dst, zigzag(int64(s.TaskID-taskBase)))
	dst = binary.AppendUvarint(dst, zigzag(start-e.prevStart))
	e.prevStart = start
	dst = binary.AppendUvarint(dst, uint64(s.Duration.Microseconds()))
	if flags&headHasCounts != 0 {
		for _, pc := range s.Points {
			dst = binary.AppendUvarint(dst, uint64(pc.Count))
		}
	}
	if flags&headHasExt != 0 {
		dst = append(dst, 1) // extension count: the trace span
		dst = appendExtensions(dst, s)
	}
	return dst
}

// AppendFrames appends batch to dst as one or more v2 batch frames,
// splitting whenever the accumulated record section would exceed the frame
// size bound, and returns the extended slice. With sufficient capacity in
// dst and the encoder's scratch, steady-state encoding performs no
// allocation.
func (e *BatchEncoder) AppendFrames(dst []byte, batch []*Synopsis) []byte {
	for len(batch) > 0 {
		body := e.body[:0]
		e.prevStart = 0 // a frame's first start is absolute
		n := 0
		for _, s := range batch {
			body = e.appendRecordV2(body, s)
			n++
			if n == MaxBatchRecords || len(body) >= maxFrameBody {
				break
			}
		}
		e.body = body
		batch = batch[n:]
		// frameLen covers the kind byte, the record count and the records.
		frameLen := 1 + uvarintLen(uint64(n)) + len(body)
		dst = binary.AppendUvarint(dst, uint64(frameLen))
		dst = append(dst, frameBatch)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = append(dst, body...)
	}
	return dst
}

// flow is one decoder-side intern table entry: a (stage, host, signature)
// triple, the signature's point ids held in the decoder's shared arena,
// and the task id of the latest record that used the entry.
type flow struct {
	stage    logpoint.StageID
	host     uint16
	npts     uint32
	off      uint32 // first point id in BatchDecoder.points
	lastTask uint64
}

// BatchDecoder reads v2 batch frames from a stream, mirroring the
// encoder's intern table. Decode has the same contract as Decoder.Decode —
// one synopsis per call, io.EOF at a clean frame boundary end of stream —
// so both protocol versions feed the same receive loop. Not safe for
// concurrent use.
type BatchDecoder struct {
	r *bufio.Reader
	// flows is the decoder-side intern table and points the arena its
	// entries' signatures live in: at most maxInternEntries entries of at
	// most maxInternPoints ids each, whatever the peer sends.
	flows     []flow
	points    []logpoint.ID
	buf       []byte // whole-frame scratch, reused
	body      []byte // unconsumed record bytes of the current frame
	left      int    // records left in the current frame
	prevStart int64  // start µs of the frame's previous record
	// frameHook, when set, is called at each frame header with the record
	// count it announces (metrics: batch-size histogram).
	frameHook func(records int)
	interned  uint64
}

// NewBatchDecoder returns a decoder reading v2 frames from br. The caller
// hands over the buffered reader it used for hello detection so no
// buffered bytes are lost.
func NewBatchDecoder(br *bufio.Reader) *BatchDecoder {
	return &BatchDecoder{r: br}
}

// SetFrameHook registers fn to observe each frame's record count.
func (d *BatchDecoder) SetFrameHook(fn func(records int)) { d.frameHook = fn }

// InternedRefs returns how many records arrived as references to a known
// (stage, host, signature) flow since construction.
func (d *BatchDecoder) InternedRefs() uint64 { return d.interned }

// Remaining reports how many records of the current frame are still
// undecoded. Zero means the next Decode will read a fresh frame — i.e. the
// last Decode completed a frame, which is the natural batch boundary for
// handing decoded records downstream.
func (d *BatchDecoder) Remaining() int { return d.left }

// nextFrame reads one frame into the scratch buffer and prepares its
// record section. io.EOF means a clean end of stream at a frame boundary.
func (d *BatchDecoder) nextFrame() error {
	frameLen, err := binary.ReadUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("synopsis: read frame length: %w", err)
	}
	if frameLen > maxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, frameLen)
	}
	if frameLen < 2 {
		return fmt.Errorf("synopsis: frame length %d below header size", frameLen)
	}
	if cap(d.buf) < int(frameLen) {
		d.buf = make([]byte, frameLen)
	}
	d.buf = d.buf[:frameLen]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return fmt.Errorf("synopsis: read frame: %w", err)
	}
	kind := d.buf[0]
	if kind != frameBatch {
		return fmt.Errorf("synopsis: unknown frame kind %d", kind)
	}
	rest := d.buf[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("synopsis: decode frame record count: %w", io.ErrUnexpectedEOF)
	}
	rest = rest[n:]
	if count == 0 || count > MaxBatchRecords {
		return fmt.Errorf("synopsis: frame record count %d out of range", count)
	}
	if count*minRecordSize > uint64(len(rest)) {
		return fmt.Errorf("synopsis: %d records of at least %d bytes exceed remaining %d frame bytes", count, minRecordSize, len(rest))
	}
	d.body = rest
	d.left = int(count)
	d.prevStart = 0
	if d.frameHook != nil {
		d.frameHook(int(count))
	}
	return nil
}

// Decode reads the next record into s, pulling the next batch frame off
// the stream when the current one is exhausted. Decoding into a reused s
// (or one drawn from a Pool) performs no steady-state allocation: the
// frame scratch, the intern table and s.Points are all reused.
func (d *BatchDecoder) Decode(s *Synopsis) error {
	if d.left == 0 {
		if err := d.nextFrame(); err != nil {
			return err
		}
	}
	if err := d.decodeRecordV2(s); err != nil {
		// A malformed record poisons the whole frame; drop the remainder so
		// a resumed caller cannot misparse from mid-record.
		d.left, d.body = 0, nil
		return err
	}
	d.left--
	if d.left == 0 && len(d.body) != 0 {
		n := len(d.body)
		d.body = nil
		return fmt.Errorf("synopsis: %d trailing bytes after last record in frame", n)
	}
	return nil
}

// uvarint decodes one uvarint at the head of buf, returning the value and
// the remainder; ok is false on truncation or overflow. The one-byte fast
// path is taken by nearly every field of a steady-state record (flow refs,
// deltas, counts), keeping the whole call inlinable.
func uvarint(buf []byte) (v uint64, rest []byte, ok bool) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), buf[1:], true
	}
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, buf, false
	}
	return v, buf[n:], true
}

func (d *BatchDecoder) decodeRecordV2(s *Synopsis) error {
	buf := d.body
	var ok bool
	var head uint64
	if head, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode record head: %w", io.ErrUnexpectedEOF)
	}
	var entry *flow // nil for a flow the table does not hold
	if ref := head >> headRefShift; ref == 0 {
		var stage, host, npts uint64
		if stage, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode stage: %w", io.ErrUnexpectedEOF)
		}
		if stage > math.MaxUint16 {
			return fmt.Errorf("synopsis: stage %d out of range", stage)
		}
		if host, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode host: %w", io.ErrUnexpectedEOF)
		}
		if host > math.MaxUint16 {
			return fmt.Errorf("synopsis: host %d out of range", host)
		}
		if npts, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode point count: %w", io.ErrUnexpectedEOF)
		}
		if npts > uint64(len(buf)) { // each point id needs >= 1 byte; cheap sanity bound
			return fmt.Errorf("synopsis: %d points exceeds remaining %d bytes", npts, len(buf))
		}
		s.Stage = logpoint.StageID(stage)
		s.Host = uint16(host)
		s.resizePoints(int(npts))
		var prev logpoint.ID
		for i := range s.Points {
			var delta uint64
			if delta, buf, ok = uvarint(buf); !ok {
				return fmt.Errorf("synopsis: decode point %d id: %w", i, io.ErrUnexpectedEOF)
			}
			if delta > math.MaxUint16 {
				return fmt.Errorf("synopsis: point %d id delta %d out of range", i, delta)
			}
			prev += logpoint.ID(delta)
			s.Points[i] = PointCount{Point: prev, Count: 1}
		}
		if len(d.flows) < maxInternEntries && npts <= maxInternPoints {
			d.flows = append(d.flows, flow{stage: s.Stage, host: s.Host, npts: uint32(npts), off: uint32(len(d.points))})
			for _, pc := range s.Points {
				d.points = append(d.points, pc.Point)
			}
			entry = &d.flows[len(d.flows)-1]
		}
	} else {
		if ref > uint64(len(d.flows)) {
			return fmt.Errorf("synopsis: flow ref %d beyond intern table size %d", ref, len(d.flows))
		}
		entry = &d.flows[ref-1]
		s.Stage = entry.stage
		s.Host = entry.host
		// Copy, never alias: s.Points is recycled and mutated downstream.
		s.resizePoints(int(entry.npts))
		for i, id := range d.points[entry.off : entry.off+entry.npts] {
			s.Points[i] = PointCount{Point: id, Count: 1}
		}
		d.interned++
	}
	var taskDelta, startDelta, durUs uint64
	if taskDelta, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode task id: %w", io.ErrUnexpectedEOF)
	}
	if startDelta, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode start: %w", io.ErrUnexpectedEOF)
	}
	if durUs, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode duration: %w", io.ErrUnexpectedEOF)
	}
	s.TaskID = uint64(unzigzag(taskDelta))
	if entry != nil {
		s.TaskID += entry.lastTask
		entry.lastTask = s.TaskID
	}
	d.prevStart += unzigzag(startDelta)
	s.Start = time.UnixMicro(d.prevStart).UTC()
	s.Duration = time.Duration(durUs) * time.Microsecond
	s.Trace = nil // decoders reuse s; a prior record's span must not leak
	if head&headHasCounts != 0 {
		for i := range s.Points {
			var count uint64
			if count, buf, ok = uvarint(buf); !ok {
				return fmt.Errorf("synopsis: decode point %d count: %w", i, io.ErrUnexpectedEOF)
			}
			if count > math.MaxUint32 {
				return fmt.Errorf("synopsis: point %d count %d out of range", i, count)
			}
			s.Points[i].Count = uint32(count)
		}
	}
	if head&headHasExt != 0 {
		var extCount uint64
		if extCount, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode extension count: %w", io.ErrUnexpectedEOF)
		}
		if extCount > maxRecordExtensions {
			return fmt.Errorf("synopsis: extension count %d out of range", extCount)
		}
		for i := uint64(0); i < extCount; i++ {
			var extID, extLen uint64
			if extID, buf, ok = uvarint(buf); !ok {
				return fmt.Errorf("synopsis: decode extension id: %w", io.ErrUnexpectedEOF)
			}
			if extLen, buf, ok = uvarint(buf); !ok {
				return fmt.Errorf("synopsis: decode extension length: %w", io.ErrUnexpectedEOF)
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
	}
	d.body = buf
	return nil
}

// Pool is a bounded free list of Synopsis values for zero-allocation
// receive paths: the stream server draws from it per decoded record and
// the analyzer engine releases each synopsis back once its detector core
// is done. All methods are nil-safe — a nil *Pool degrades to plain
// allocation — and safe for concurrent use.
//
// The free list is a mutex-guarded stack rather than a channel: at
// millions of records per second the two channel operations per record
// dominate the receive loop, while a stack pop is a fraction of the cost
// and GetN amortizes even that across a whole refill chunk.
type Pool struct {
	mu   sync.Mutex
	free []*Synopsis
}

// NewPool returns a pool holding at most capacity idle synopses.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{free: make([]*Synopsis, 0, capacity)}
}

// GetN fills every element of dst with an idle or fresh synopsis under a
// single lock — the receive loop's bulk refill, so per-record pool cost
// amortizes to near zero. A fresh synopsis is one record5 block (see New),
// so decoding up to five points into it costs nothing more.
func (p *Pool) GetN(dst []*Synopsis) {
	take := 0
	if p != nil {
		p.mu.Lock()
		n := len(p.free)
		take = min(len(dst), n)
		for i := 0; i < take; i++ {
			dst[i] = p.free[n-1-i]
			p.free[n-1-i] = nil
		}
		p.free = p.free[:n-take]
		p.mu.Unlock()
	}
	for i := take; i < len(dst); i++ {
		dst[i] = blank()
	}
}

// Put recycles s. The caller must not touch s afterwards. When the pool is
// full (or nil) s is left to the garbage collector.
func (p *Pool) Put(s *Synopsis) {
	if p == nil || s == nil {
		return
	}
	pts := s.Points[:0]
	*s = Synopsis{Points: pts}
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// PutN recycles a batch under a single lock. The caller must not touch the
// elements (or the slice, which is cleared) afterwards; synopses beyond
// the pool's capacity are left to the garbage collector.
func (p *Pool) PutN(batch []*Synopsis) {
	if p == nil {
		return
	}
	for _, s := range batch {
		if s == nil {
			continue
		}
		pts := s.Points[:0]
		*s = Synopsis{Points: pts}
	}
	p.mu.Lock()
	for i, s := range batch {
		if s == nil {
			continue
		}
		if len(p.free) == cap(p.free) {
			break
		}
		p.free = append(p.free, s)
		batch[i] = nil
	}
	p.mu.Unlock()
	clear(batch)
}
