package synopsis

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// TestFrameSplitStaysUnderSizeLimit: a frame ends before a record that could
// carry it past maxFrameSize, not after, so records far longer than a frame
// header still make frames the decoder takes. 4,096 records of 1,100
// distinct points each (≈ 1.1 KB a record, 4.5 MB in all) cross the limit
// inside one AppendFrames call.
func TestFrameSplitStaysUnderSizeLimit(t *testing.T) {
	const records, points = MaxBatchRecords, 1100
	pts := make([]PointCount, points)
	for i := range pts {
		pts[i] = PointCount{Point: logpoint.ID(i + 1), Count: 1}
	}
	batch := make([]*Synopsis, records)
	for i := range batch {
		batch[i] = &Synopsis{
			Stage: 3, Host: 1, TaskID: uint64(i),
			Start:    time.UnixMicro(1e15 + int64(i)).UTC(),
			Duration: time.Duration(i%90) * time.Microsecond,
			Points:   pts, // read only: one array serves every record
		}
	}
	wire := NewBatchEncoder().AppendFrames(nil, batch)
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	var got Synopsis
	decoded, frames := 0, 0
	for {
		n, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("frame %d, after %d records: %v", frames, decoded, err)
		}
		for ; n > 0; n-- {
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("record %d: %v", decoded, err)
			}
			assertEqualSynopsis(t, decoded, &got, batch[decoded])
			decoded++
		}
		frames++
	}
	if decoded != records || frames < 2 {
		t.Fatalf("%d B of wire decoded to %d records in %d frames, want %d records in at least 2", len(wire), decoded, frames, records)
	}
}

// appendFramesTwoBuffers is the frame encoder as it was before frames were
// encoded in place: each frame's records go into a scratch buffer of their
// own, then the header and a copy of the records onto dst. It splits after
// the record that takes the records past maxFrameSize-64 bytes.
func appendFramesTwoBuffers(e *BatchEncoder, scratch *[]byte, dst []byte, batch []*Synopsis) []byte {
	for len(batch) > 0 {
		body := (*scratch)[:0]
		e.prevStart = 0
		n := 0
		for _, s := range batch {
			body = e.appendRecordV2(body, s)
			n++
			if n == MaxBatchRecords || len(body) >= maxFrameSize-64 {
				break
			}
		}
		*scratch = body
		batch = batch[n:]
		dst = binary.AppendUvarint(dst, uint64(1+uvarintLen(uint64(n))+len(body)))
		dst = append(dst, frameBatch)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = append(dst, body...)
	}
	return dst
}

// TestAppendFramesEquivalence holds the in-place encoder to the two-buffer
// one byte for byte over seeded connections: batches of 1 to 600 records,
// one past MaxBatchRecords, traced records, counts, signatures too long to
// intern.
func TestAppendFramesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	record := func(i int) *Synopsis {
		s := sampleSynopsis(rng.Intn(5000))
		s.TaskID = uint64(i) * 7
		switch rng.Intn(9) {
		case 0:
			s.Trace = &trace.Span{Emit: rng.Int63(), Send: rng.Int63()}
		case 1:
			s.Points = pointsN(maxInternPoints + 1 + rng.Intn(30))
			s.Normalize()
		}
		return s
	}
	for conn := 0; conn < 8; conn++ {
		inPlace, twoBuffers := NewBatchEncoder(), NewBatchEncoder()
		var scratch, got, want []byte
		sizes := []int{1, MaxBatchRecords + 300}
		for len(sizes) < 12 {
			sizes = append(sizes, 1+rng.Intn(600))
		}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		next := 0
		for _, n := range sizes {
			batch := make([]*Synopsis, n)
			for i := range batch {
				batch[i] = record(next)
				next++
			}
			got = inPlace.AppendFrames(got, batch)
			want = appendFramesTwoBuffers(twoBuffers, &scratch, want, batch)
			if !bytes.Equal(got, want) {
				t.Fatalf("connection %d, batch of %d records: %d B in place, %d B from two buffers, first difference at byte %d",
					conn, n, len(got), len(want), firstDifference(got, want))
			}
		}
	}
}

func firstDifference(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
