// Package federation scales the analyzer past one process: N saad-analyzer
// peers each own a slice of the (host, stage) group-key space via a
// consistent-hash ring, agree on membership through a gossip protocol, and
// move per-group detector state between each other with checkpoint handoff
// when the topology changes — so per-group FIFO order and open-window state
// survive a peer joining or leaving and the fleet's merged anomaly output
// stays bit-identical to a single engine's (DESIGN §16).
package federation

import (
	"hash/fnv"
	"sort"

	"saad/internal/logpoint"
)

// DefaultVirtualNodes is the per-peer virtual node count. 128 vnodes keep
// the per-peer load imbalance within a few percent for small fleets while
// the ring stays tiny (N×128 16-byte entries).
const DefaultVirtualNodes = 128

// KeyHash maps one (host, stage) group key onto the ring's 64-bit key
// space. Every routing decision in the fleet — tracker clients, peer
// forwarding, rebalance planning — uses this one function, so a group has
// exactly one owner per topology. (The engine's internal shard hash is a
// different, per-process function; the two partitions are independent
// layers.)
func KeyHash(host uint16, stage logpoint.StageID) uint64 {
	// FNV-1a over the 4 identity bytes, unrolled so the hot path makes no
	// hash.Hash allocation.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(host&0xff)) * prime64
	h = (h ^ uint64(host>>8)) * prime64
	h = (h ^ uint64(uint16(stage)&0xff)) * prime64
	h = (h ^ uint64(uint16(stage)>>8)) * prime64
	return fmix64(h)
}

// fmix64 is the murmur3 finalizer: FNV's high bits are weakly mixed for
// short inputs and the ring compares full 64-bit values, so both key and
// vnode hashes get a final avalanche pass.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: a position on the 64-bit circle owned by a
// peer.
type ringPoint struct {
	pos  uint64
	peer string
}

// Ring is an immutable consistent-hash ring over a set of peer ids.
// Construct with NewRing; share freely across goroutines.
type Ring struct {
	points []ringPoint // sorted by pos
	peers  []string    // sorted member ids
	epoch  uint64
}

// NewRing builds a ring with vnodes virtual nodes per peer (0 means
// DefaultVirtualNodes). The epoch tags the topology version; routing peers
// stamp it onto synopses so receivers can detect stale placement. Peer
// order does not matter: the same member set always yields the same ring.
func NewRing(peers []string, vnodes int, epoch uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := make([]string, len(peers))
	copy(sorted, peers)
	sort.Strings(sorted)
	r := &Ring{
		points: make([]ringPoint, 0, len(sorted)*vnodes),
		peers:  sorted,
		epoch:  epoch,
	}
	for _, p := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pos: vnodeHash(p, v), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.peer < b.peer // deterministic tie-break across builds
	})
	return r
}

// vnodeHash positions one virtual node of a peer on the circle.
func vnodeHash(peer string, vnode int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(peer))
	_, _ = h.Write([]byte{'#', byte(vnode >> 24), byte(vnode >> 16), byte(vnode >> 8), byte(vnode)})
	return fmix64(h.Sum64())
}

// Epoch returns the topology version this ring was built for.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Peers returns the sorted member ids (shared slice; do not mutate).
func (r *Ring) Peers() []string { return r.peers }

// OwnerOfHash returns the peer owning a precomputed key hash: the first
// virtual node clockwise from the hash. Empty string on an empty ring.
func (r *Ring) OwnerOfHash(h uint64) string {
	pts := r.points
	if len(pts) == 0 {
		return ""
	}
	// Binary search for the first point with pos >= h, wrapping to 0.
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].pos < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return pts[lo].peer
}

// Owner returns the peer owning the (host, stage) group key.
func (r *Ring) Owner(host uint16, stage logpoint.StageID) string {
	return r.OwnerOfHash(KeyHash(host, stage))
}

// OwnedRanges returns the arcs of the key circle owned by peer as
// [start, end] pairs of ring positions (end exclusive, wrapping). Used by
// /statusz to show what a peer is responsible for; not on any hot path.
func (r *Ring) OwnedRanges(peer string) [][2]uint64 {
	if len(r.points) == 0 {
		return nil
	}
	var out [][2]uint64
	for i, pt := range r.points {
		if pt.peer != peer {
			continue
		}
		start := r.points[(i+len(r.points)-1)%len(r.points)].pos
		out = append(out, [2]uint64{start, pt.pos})
	}
	return out
}
