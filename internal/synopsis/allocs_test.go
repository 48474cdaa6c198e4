package synopsis

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
)

// The allocation pins DESIGN §15 cites: the record constructor costs one
// 112- or 128-byte block (two allocations past five points), a fresh
// receive record one block, and the steady-state codec nothing.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
}

func pointsN(n int) []PointCount {
	pts := make([]PointCount, n)
	for i := range pts {
		pts[i] = PointCount{Point: logpoint.ID(n - i), Count: uint32(i + 1)}
	}
	return pts
}

var sinkSynopsis *Synopsis

func TestNewAndCloneAllocs(t *testing.T) {
	skipUnderRace(t)
	for n, want := range map[int]float64{0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 2, 9: 2} {
		pts := pointsN(n)
		if got := testing.AllocsPerRun(200, func() { sinkSynopsis = New(pts) }); got != want {
			t.Errorf("New(%d points) = %v allocs, want %v", n, got, want)
		}
		src := New(pts)
		if got := testing.AllocsPerRun(200, func() { sinkSynopsis = src.Clone() }); got != want {
			t.Errorf("Clone(%d points) = %v allocs, want %v", n, got, want)
		}
	}
}

// TestRecordBlockSizes: each record block fills its size class exactly. A
// field added to Synopsis moves every record into the next class up — this
// fails first, naming the cost.
func TestRecordBlockSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"Synopsis", unsafe.Sizeof(Synopsis{}), 88},
		{"record3 (Synopsis + 3 points, the 112-byte class)", unsafe.Sizeof(record3{}), 112},
		{"record5 (Synopsis + 5 points, the 128-byte class)", unsafe.Sizeof(record5{}), 128},
	} {
		if tc.got != tc.want {
			t.Errorf("unsafe.Sizeof(%s) = %d B, want %d: every tracker record now pays the difference, rounded up to the next size class", tc.name, tc.got, tc.want)
		}
	}
}

// bytesPerCall returns the heap bytes one call of f allocates, averaged over
// 10,000 calls: the least of three such rounds. TotalAlloc is process-wide,
// so another goroutine's allocation can only add to a round, never take
// from it; the least round is the one it touched least.
func bytesPerCall(f func()) float64 {
	const calls, rounds = 10000, 3
	f()
	least := math.Inf(1)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return least
}

// TestNewAndCloneBytes pins what a record costs in bytes: the smaller block
// that holds its points, and past five points a bare header (88 B in the
// 96-byte class) plus the points' own array.
func TestNewAndCloneBytes(t *testing.T) {
	skipUnderRace(t)
	for n, want := range map[int]float64{0: 112, 1: 112, 3: 112, 4: 128, 5: 128, 6: 96 + 48} {
		pts := pointsN(n)
		if got := bytesPerCall(func() { sinkSynopsis = New(pts) }); math.Abs(got-want) > 0.5 {
			t.Errorf("New(%d points) = %.2f B, want %v", n, got, want)
		}
		src := New(pts)
		if got := bytesPerCall(func() { sinkSynopsis = src.Clone() }); math.Abs(got-want) > 0.5 {
			t.Errorf("Clone(%d points) = %.2f B, want %v", n, got, want)
		}
	}
}

// TestPoolGetNAllocs: a record the pool mints — when it runs dry, or when
// there is no pool — is one block, and decoding up to five points into it
// allocates nothing more.
func TestPoolGetNAllocs(t *testing.T) {
	skipUnderRace(t)
	dst := make([]*Synopsis, 64)
	for _, p := range []*Pool{NewPool(len(dst)), nil} {
		if got := testing.AllocsPerRun(100, func() { p.GetN(dst) }); got != float64(len(dst)) {
			t.Errorf("GetN(%d) on an empty pool (nil: %v) = %v allocs, want 1 per record", len(dst), p == nil, got)
		}
	}

	const runs = 1000
	batch := make([]*Synopsis, 128)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
		batch[i].Points = pointsN(5)
		batch[i].Normalize()
	}
	enc := NewBatchEncoder()
	var wire []byte
	for n := 0; n <= runs+1; n += len(batch) {
		wire = enc.AppendFrames(wire, batch)
	}
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	empty, one := NewPool(1), dst[:1]
	decodeFresh := func() {
		empty.GetN(one)
		if err := dec.Decode(one[0]); err != nil {
			t.Fatal(err)
		}
	}
	decodeFresh() // warm the frame scratch and the intern table
	if got := testing.AllocsPerRun(runs, decodeFresh); got != 1 {
		t.Errorf("minting a record and decoding 5 points into it = %v allocs, want 1", got)
	}
}

func TestNormalizeAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, n := range []int{2, 5, 9, 40} {
		unsorted := pointsN(n)
		s := &Synopsis{Points: make([]PointCount, n)}
		got := testing.AllocsPerRun(200, func() {
			s.Points = s.Points[:n]
			copy(s.Points, unsorted)
			s.Normalize()
		})
		if got != 0 {
			t.Errorf("Normalize(%d points) = %v allocs, want 0", n, got)
		}
	}
}

func TestAppendFramesAllocs(t *testing.T) {
	skipUnderRace(t)
	batch := make([]*Synopsis, 128)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
	}
	enc := NewBatchEncoder()
	enc.AppendFrames(nil, batch) // define the flows: a definition allocates its map key
	// The encoder has no scratch of its own: a dst with room is all it needs.
	dst := make([]byte, 0, 64<<10)
	got := testing.AllocsPerRun(100, func() { dst = enc.AppendFrames(dst[:0], batch) })
	if got != 0 {
		t.Errorf("AppendFrames into a dst with room = %v allocs, want 0", got)
	}
}

func TestBatchDecodeAllocs(t *testing.T) {
	skipUnderRace(t)
	const runs = 1000
	batch := make([]*Synopsis, 128)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
	}
	// The first frame defines the groups and is the largest, so one decoded
	// record warms the frame scratch and the intern table for all the rest.
	enc := NewBatchEncoder()
	var wire []byte
	for n := 0; n <= runs+1; n += len(batch) {
		wire = enc.AppendFrames(wire, batch)
	}
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	s := &Synopsis{Points: make([]PointCount, 0, 16)} // a warmed pool record
	got := testing.AllocsPerRun(runs, func() {
		if err := dec.Decode(s); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("BatchDecoder.Decode = %v allocs, want 0", got)
	}
}

// TestDecodeGrowingPointsAllocs pins how a pooled record's Points array
// grows: a record that meets tasks of 1, 2, … 12 distinct points in turn
// re-makes the array three times (4, 8, 16), not once per size. The cost of
// the decoder itself is taken off by decoding the same bytes into a record
// that already has the room.
func TestDecodeGrowingPointsAllocs(t *testing.T) {
	skipUnderRace(t)
	const sizes = 12
	batch := make([]*Synopsis, sizes)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
		batch[i].Points = pointsN(i + 1)
		batch[i].Normalize()
	}
	wire := NewBatchEncoder().AppendFrames(nil, batch)
	var last *Synopsis
	decodeAll := func(room int) float64 {
		return testing.AllocsPerRun(20, func() {
			last = &Synopsis{Points: make([]PointCount, 0, room)}
			dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
			for range batch {
				if err := dec.Decode(last); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	roomy := decodeAll(16) - 1 // less the array it starts with
	if growths := decodeAll(0) - roomy; growths > 3 {
		t.Errorf("one record decoding 1..%d points re-made its Points array %v times, want at most 3", sizes, growths)
	}
	if len(last.Points) != sizes {
		t.Fatalf("the last record decoded has %d points, want %d", len(last.Points), sizes)
	}
}
