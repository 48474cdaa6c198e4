package stream

import (
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"saad/internal/raceflag"
	"saad/internal/synopsis"
)

// batchRecorder is a BatchSink that notes the task ids it is handed, in
// order, and then treats the borrowed slice one of the two ways the contract
// allows.
type batchRecorder struct {
	// clears overwrites the slice before returning, as a sink that recycles
	// through synopsis.Pool.PutN does; otherwise the sink keeps the records
	// (in a slice of its own) and leaves the server's alone.
	clears bool

	mu   sync.Mutex
	ids  []uint64
	kept []*synopsis.Synopsis
}

func (b *batchRecorder) Emit(*synopsis.Synopsis) { panic("a BatchSink is fed by the frame") }

func (b *batchRecorder) EmitBatch(batch []*synopsis.Synopsis) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range batch {
		b.ids = append(b.ids, s.TaskID)
	}
	if b.clears {
		clear(batch)
	} else {
		b.kept = append(b.kept, batch...)
	}
}

func (b *batchRecorder) seen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ids)
}

// TestServerBorrowsBatch: the server lends one slice per connection to the
// sink, frame after frame. Over 50 frames of 1 to 4096 records — growing,
// shrinking, the bounds included — a sink that clears what it is lent and one
// that keeps the records both see every record once, in order, and the
// records kept are still the ones received after the slice has moved on.
func TestServerBorrowsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, synopsis.MaxBatchRecords, 1, 2}
	for len(sizes) < 50 {
		sizes = append(sizes, 1+rng.Intn(synopsis.MaxBatchRecords))
	}
	for _, clears := range []bool{true, false} {
		sink := &batchRecorder{clears: clears}
		srv, err := Listen("127.0.0.1:0", sink)
		if err != nil {
			t.Fatal(err)
		}
		peer := dialRaw(t, srv.Addr())
		next := uint64(0)
		for _, n := range sizes {
			frame := make([]*synopsis.Synopsis, n)
			for i := range frame {
				frame[i] = syn(next)
				next++
			}
			peer.send(t, frame...)
		}
		_ = peer.Close()
		waitUntil(t, 10*time.Second, "every frame to be delivered", func() bool {
			return sink.seen() == int(next)
		})
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		for i, id := range sink.ids {
			if id != uint64(i) {
				t.Fatalf("clears=%v: record %d delivered in position %d", clears, id, i)
			}
		}
		for i, s := range sink.kept {
			if s == nil || s.TaskID != uint64(i) {
				t.Fatalf("a record the sink kept changed under it at position %d: %+v", i, s)
			}
		}
	}
}

// recyclingSink is the benchmark's server-leg sink: count, and put the
// frame's records straight back in the receive pool.
type recyclingSink struct {
	pool *synopsis.Pool
	n    atomic.Int64
}

func (r *recyclingSink) Emit(s *synopsis.Synopsis) {
	r.pool.Put(s)
	r.n.Add(1)
}

func (r *recyclingSink) EmitBatch(batch []*synopsis.Synopsis) {
	n := int64(len(batch)) // PutN clears the batch
	r.pool.PutN(batch)
	r.n.Add(n)
}

const receivePerFrame = 512

// TestServerReceiveAllocs pins the receive path of one frame — socket read,
// decode into pooled records, delivery to a BatchSink that recycles them —
// at no allocation once the connection's buffers have seen a frame.
func TestServerReceiveAllocs(t *testing.T) {
	if got := receiveAllocs(t, synopsis.NewPool(4096), syn(0).Points); got != 0 {
		t.Fatalf("receiving a %d-record frame allocates %v times, want 0", receivePerFrame, got)
	}
}

// TestUnpooledServerReceiveAllocs: a server without a receive pool mints
// each record as one block that five points decode into — one allocation
// per record, not a header and then a points array.
func TestUnpooledServerReceiveAllocs(t *testing.T) {
	five := []synopsis.PointCount{{Point: 1, Count: 1}, {Point: 2, Count: 1}, {Point: 3, Count: 2}, {Point: 4, Count: 1}, {Point: 5, Count: 3}}
	if got := receiveAllocs(t, nil, five); got != receivePerFrame {
		t.Fatalf("receiving a %d-record frame without a pool allocates %v times, want 1 per record", receivePerFrame, got)
	}
}

// receiveAllocs returns the allocations of receiving one frame of
// receivePerFrame records carrying pts, once the connection's buffers have
// seen a few, on a server drawing from pool (nil: none) whose sink hands
// the records back to it.
func receiveAllocs(t *testing.T, pool *synopsis.Pool, pts []synopsis.PointCount) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	const perFrame, warm, runs = receivePerFrame, 4, 50
	sink := &recyclingSink{pool: pool}
	srv, err := Listen("127.0.0.1:0", sink, WithServerPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := dialRaw(t, srv.Addr())
	defer peer.Close()

	// The codec is stateful, so each frame is encoded once, in order, ahead
	// of the measurement: all the measured call does is write bytes.
	frames := make([][]byte, warm+runs+1)
	batch := make([]*synopsis.Synopsis, perFrame)
	id := uint64(0)
	for f := range frames {
		for i := range batch {
			batch[i] = syn(id)
			batch[i].Host = uint16(1 + i%4)
			batch[i].Points = pts
			id++
		}
		frames[f] = peer.enc.AppendFrames(nil, batch)
	}
	sent := 0
	deliver := func() {
		if _, err := peer.Write(frames[sent]); err != nil {
			t.Fatal(err)
		}
		sent++
		for sink.n.Load() < int64(sent*perFrame) {
			runtime.Gosched()
		}
	}
	for sent < warm {
		deliver()
	}
	return testing.AllocsPerRun(runs, deliver)
}

// TestServerReturnsCutFrameToPool: when a connection dies with a frame half
// decoded, the records the server drew for it — those already decoded, the
// one in hand and those not reached — go back to the receive pool. After
// every entry of the malformed-frame table has cut a connection in turn,
// the 64-record pool still hands out only the 64 records it was stocked
// with.
func TestServerReturnsCutFrameToPool(t *testing.T) {
	const stock = 64
	pool := synopsis.NewPool(stock)
	own := make(map[*synopsis.Synopsis]bool, stock)
	recs := make([]*synopsis.Synopsis, stock)
	for i := range recs {
		recs[i] = &synopsis.Synopsis{}
		own[recs[i]] = true
	}
	pool.PutN(recs)

	sink := &recyclingSink{pool: pool}
	srv, err := Listen("127.0.0.1:0", sink, WithServerPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, tc := range malformedFrames() {
		peer := dialRaw(t, srv.Addr())
		for j := 0; j < tc.valid; j++ {
			peer.send(t, syn(uint64(j)))
		}
		if _, err := peer.Write(tc.payload); err != nil {
			t.Fatal(err)
		}
		_ = peer.Close()
		// One connection at a time: a cut frame's records go back only as
		// its handler retires, and a second connection's frame could draw
		// on the stock meanwhile.
		waitUntil(t, 10*time.Second, "the cut connection's handler to retire", func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return srv.ended == uint64(i+1)
		})
	}
	pool.GetN(recs)
	for i, s := range recs {
		if !own[s] {
			t.Fatalf("record %d of %d out of the pool is fresh: a cut connection kept one of the pool's", i, stock)
		}
		delete(own, s)
	}
}

// TestServerHoldsNoPoolRecordBetweenFrames: a connection draws each frame's
// records when the frame arrives and the sink takes them all, so between
// frames an open connection holds none of the pool's. After frames of
// several sizes have gone through one connection into a recycling sink, the
// pool, while the connection stays open, hands out only the records it was
// stocked with.
func TestServerHoldsNoPoolRecordBetweenFrames(t *testing.T) {
	const stock = 1024
	pool := synopsis.NewPool(stock)
	own := make(map[*synopsis.Synopsis]bool, stock)
	recs := make([]*synopsis.Synopsis, stock)
	pool.GetN(recs) // fresh: the pool is empty
	for _, s := range recs {
		own[s] = true
	}
	pool.PutN(recs)

	sink := &recyclingSink{pool: pool}
	srv, err := Listen("127.0.0.1:0", sink, WithServerPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := dialRaw(t, srv.Addr())
	defer peer.Close()
	sent := 0
	// No frame may need more than the stock, or the pool mints records and
	// the sink's recycling mixes them into it.
	for _, n := range []int{100, 300, 1, 257, 500} {
		frame := make([]*synopsis.Synopsis, n)
		for i := range frame {
			frame[i] = syn(uint64(sent + i))
		}
		peer.send(t, frame...)
		sent += n
	}
	waitUntil(t, 10*time.Second, "every frame to be delivered", func() bool {
		return sink.n.Load() == int64(sent)
	})
	pool.GetN(recs)
	for i, s := range recs {
		if !own[s] {
			t.Fatalf("record %d of %d out of the pool is fresh: the open connection holds one of the pool's", i, stock)
		}
		delete(own, s)
	}
}

// TestConnectionHeapBound pins what an open connection costs the server at
// rest after a frame: its read buffer, the decoder's frame scratch and the
// batch slice the frame's records were lent in, plus a little bookkeeping —
// and no worst-case buffering. Sixteen raw peers each send one 2,048-record
// frame and stay connected; the least growth of three rounds is the
// measurement.
func TestConnectionHeapBound(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap measurements are exact only without the race detector")
	}
	const conns, records, rounds, slack = 16, 2048, 3, 8 << 10
	batch := make([]*synopsis.Synopsis, records)
	for i := range batch {
		batch[i] = syn(uint64(i))
	}
	frame := synopsis.NewBatchEncoder().AppendFrames(nil, batch)
	sink := &recyclingSink{} // no pool: the records are garbage once delivered
	srv, err := Listen("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	grown := int64(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		peers := make([]net.Conn, conns)
		before := live()
		for i := range peers {
			peers[i] = dialRaw(t, srv.Addr()).Conn
			if _, err := peers[i].Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, 10*time.Second, "every frame to be delivered", func() bool {
			return sink.n.Load() == int64((r+1)*conns*records)
		})
		grown = min(grown, live()-before)
		for _, p := range peers {
			_ = p.Close()
		}
		waitUntil(t, 10*time.Second, "the connection handlers to retire", func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return srv.ended == uint64((r+1)*conns)
		})
	}
	perConn := grown / conns
	limit := int64(readBufferSize + len(frame) + records*int(unsafe.Sizeof((*synopsis.Synopsis)(nil))) + slack)
	t.Logf("%d connections after a %d-record frame (%d B) grew the live heap by %d B, %d B a connection", conns, records, len(frame), grown, perConn)
	if perConn > limit {
		t.Fatalf("an open connection holds %d B after a %d B frame; want at most %d (read buffer %d + frame + batch slice + %d slack)",
			perConn, len(frame), limit, readBufferSize, slack)
	}
}
