// Package synopsis defines the task execution synopsis — the few-tens-of-
// bytes record the tracker emits when a task terminates (paper Section 3.2.2
// and 4.1) — together with its compact binary codec and the task signature
// derivation used by the analyzer.
package synopsis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// PointCount records how many times a task encountered one log point.
type PointCount struct {
	Point logpoint.ID
	Count uint32
}

// Synopsis summarizes one task execution. It mirrors the paper's struct:
//
//	struct synopsis{
//	  byte sid; int uid; int ts; int duration;
//	  struct { short int lpid; int count; } log_points[];
//	}
//
// extended with the host id used to tag synopses with semantic information
// before streaming (Section 3.1).
type Synopsis struct {
	// Stage is the stage this task is an instance of.
	Stage logpoint.StageID
	// Host identifies the cluster node the task ran on.
	Host uint16
	// TaskID is unique per task within a host.
	TaskID uint64
	// Start is the task start time.
	Start time.Time
	// Duration is the time between the task start and the last log point it
	// encountered (the paper's duration feature, Section 3.3.1).
	Duration time.Duration
	// Points lists the distinct log points encountered with their visit
	// frequencies, sorted by point id.
	Points []PointCount
	// Trace is the sampled pipeline span riding with this synopsis, nil for
	// the (overwhelmingly common) unsampled case. The codec carries it as a
	// trailing frame extension old decoders skip, so tracing peers
	// interoperate with untraced ones.
	Trace *trace.Span
	// RingEpoch is inert: nothing sets it, the codec does not carry it and
	// nothing reads it (a receiving peer routes by its own ring). It is
	// declared only because benchmark/layers.go still assigns it, and goes
	// with those lines in the next benchmark-only PR.
	RingEpoch uint64
}

// record3 and record5 are the heap blocks behind New: the 88-byte synopsis
// and, inline, the points it owns. Each fills an exact size class — 112 and
// 128 B — so a task pays for the points it has: 85% of the Cassandra lap's
// tasks touch three distinct points and all but a few in 10^4 at most five.
type record3 struct {
	Synopsis
	inline [3]PointCount
}

type record5 struct {
	Synopsis
	inline [5]PointCount
}

// New returns a zero synopsis owning a copy of pts, in one allocation when
// len(pts) <= 5 — the smaller of record3 and record5 that holds them;
// Points then aliases the block's inline array, which ends the block, so an
// append past it reallocates instead of running on — and in two beyond. The
// caller fills in the header fields and owns the result like any other
// *Synopsis.
//
// Pinning rule: because Points may point into the block, a holder of
// s.Points alone keeps the whole block alive, not just the points. Code
// that retains points past the synopsis should copy them out.
func New(pts []PointCount) *Synopsis {
	var s *Synopsis
	switch n := len(pts); {
	case n <= len(record3{}.inline):
		r := &record3{}
		r.Points = r.inline[:n]
		s = &r.Synopsis
	case n <= len(record5{}.inline):
		s = blank()
		s.Points = s.Points[:n]
	default:
		// Once per task, never per hit, and only for the few tasks with more
		// distinct points than the larger block holds inline.
		s = &Synopsis{Points: make([]PointCount, n)}
	}
	copy(s.Points, pts)
	return s
}

// blank returns an empty synopsis in a record5 block: the receive paths'
// fresh record, into which a record of up to five points decodes without
// another allocation.
func blank() *Synopsis {
	r := &record5{}
	r.Points = r.inline[:0]
	return &r.Synopsis
}

// Clone returns a deep copy of the synopsis data in a block of its own (see
// New): the points are copied out of s, never aliased, so the clone does
// not pin s's block nor s the clone's. The Trace span pointer is shared, not
// copied: a span follows one task's journey and successive pipeline hops
// stamp the same span.
func (s *Synopsis) Clone() *Synopsis {
	c := New(s.Points)
	pts := c.Points
	*c = *s
	c.Points = pts
	return c
}

// Normalize sorts Points by id and merges duplicates, establishing the
// canonical form the codec and Signature rely on. It allocates nothing.
func (s *Synopsis) Normalize() {
	if len(s.Points) < 2 {
		return
	}
	slices.SortFunc(s.Points, func(a, b PointCount) int { return cmp.Compare(a.Point, b.Point) })
	out := s.Points[:1]
	for _, pc := range s.Points[1:] {
		if last := &out[len(out)-1]; last.Point == pc.Point {
			last.Count += pc.Count
		} else {
			out = append(out, pc)
		}
	}
	s.Points = out
}

// Signature returns the task signature: the set of distinct log points
// encountered, independent of order and frequency (Section 3.3.1). The
// synopsis must be in canonical form (Normalize).
func (s *Synopsis) Signature() Signature {
	ids := make([]logpoint.ID, len(s.Points))
	for i, pc := range s.Points {
		ids[i] = pc.Point
	}
	return Compute(ids)
}

// TotalHits returns the total number of log point encounters.
func (s *Synopsis) TotalHits() int {
	var n uint64
	for _, pc := range s.Points {
		n += uint64(pc.Count)
	}
	return int(n)
}

// String implements fmt.Stringer for diagnostics.
func (s *Synopsis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "synopsis{stage=%d host=%d task=%d dur=%s points=[", s.Stage, s.Host, s.TaskID, s.Duration)
	for i, pc := range s.Points {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d×%d", pc.Point, pc.Count)
	}
	b.WriteString("]}")
	return b.String()
}

// Signature is the canonical encoding of a set of log points: the sorted
// distinct ids packed two bytes each into a string, so it is directly usable
// as a map key. The empty signature (task hit no log points) is valid.
type Signature string

// Compute builds a Signature from ids (sorted and deduplicated internally;
// the input slice is not modified).
func Compute(ids []logpoint.ID) Signature {
	if len(ids) == 0 {
		return ""
	}
	sorted := make([]logpoint.ID, len(ids))
	copy(sorted, ids)
	slices.Sort(sorted)
	buf := make([]byte, 0, 2*len(sorted))
	var prev logpoint.ID
	for i, id := range sorted {
		if i > 0 && id == prev {
			continue
		}
		buf = append(buf, byte(id>>8), byte(id))
		prev = id
	}
	return Signature(buf)
}

// Points decodes the signature back into its sorted distinct ids.
func (s Signature) Points() []logpoint.ID {
	if len(s)%2 != 0 {
		return nil
	}
	out := make([]logpoint.ID, 0, len(s)/2)
	for i := 0; i+1 < len(s); i += 2 {
		out = append(out, logpoint.ID(s[i])<<8|logpoint.ID(s[i+1]))
	}
	return out
}

// Len returns the number of distinct log points in the signature.
func (s Signature) Len() int { return len(s) / 2 }

// Contains reports whether the signature includes id.
func (s Signature) Contains(id logpoint.ID) bool {
	pts := s.Points()
	i := sort.Search(len(pts), func(i int) bool { return pts[i] >= id })
	return i < len(pts) && pts[i] == id
}

// String implements fmt.Stringer with a readable form like "{3,7,12}".
func (s Signature) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Points() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}
