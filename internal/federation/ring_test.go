package federation

import (
	"fmt"
	"math/rand"
	"testing"

	"saad/internal/logpoint"
	"saad/internal/raceflag"
)

// allKeys enumerates a representative slab of the group-key space.
func allKeys(hosts, stages int) [][2]uint16 {
	keys := make([][2]uint16, 0, hosts*stages)
	for h := 0; h < hosts; h++ {
		for s := 0; s < stages; s++ {
			keys = append(keys, [2]uint16{uint16(h), uint16(s)})
		}
	}
	return keys
}

// TestRingDeterministicPlacement pins that placement is a pure function of
// the member set: peer order, ring rebuilds and concurrent readers all see
// the same owner for every key.
func TestRingDeterministicPlacement(t *testing.T) {
	keys := allKeys(64, 32)
	a := NewRing([]string{"peer-a", "peer-b", "peer-c"}, 0, 1)
	b := NewRing([]string{"peer-c", "peer-a", "peer-b"}, 0, 9) // different order+epoch
	for _, k := range keys {
		host, stage := k[0], logpoint.StageID(k[1])
		if ao, bo := a.Owner(host, stage), b.Owner(host, stage); ao != bo {
			t.Fatalf("placement depends on construction order: key (%d,%d) -> %q vs %q", host, stage, ao, bo)
		}
		if a.Owner(host, stage) != a.Owner(host, stage) {
			t.Fatalf("placement not stable across calls for key (%d,%d)", host, stage)
		}
	}
	// Every peer must own something on a space this big.
	owned := map[string]int{}
	for _, k := range keys {
		owned[a.Owner(k[0], logpoint.StageID(k[1]))]++
	}
	for _, p := range a.Peers() {
		if owned[p] == 0 {
			t.Fatalf("peer %q owns zero of %d keys", p, len(keys))
		}
	}
}

// TestRingBalancedLoad checks the vnode count keeps the per-peer share
// within a loose factor of ideal — consistent hashing is approximate, but
// gross imbalance would defeat the fleet.
func TestRingBalancedLoad(t *testing.T) {
	keys := allKeys(128, 64)
	for _, n := range []int{2, 3, 5, 8} {
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("peer-%d", i)
		}
		r := NewRing(peers, 0, 1)
		owned := map[string]int{}
		for _, k := range keys {
			owned[r.Owner(k[0], logpoint.StageID(k[1]))]++
		}
		ideal := float64(len(keys)) / float64(n)
		for p, c := range owned {
			if f := float64(c) / ideal; f < 0.5 || f > 2.0 {
				t.Errorf("n=%d: peer %s owns %d keys (%.2f× ideal %.0f)", n, p, c, f, ideal)
			}
		}
	}
}

// TestRingMinimalMovement is the satellite property test: when one peer
// joins or leaves an N-peer ring, the fraction of keys that change owner
// must stay near 1/N — the defining property of consistent hashing. Keys
// not involving the joining/leaving peer must never move.
func TestRingMinimalMovement(t *testing.T) {
	keys := allKeys(128, 64)
	total := float64(len(keys))
	for _, n := range []int{2, 3, 4, 6, 10} {
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("peer-%d", i)
		}
		before := NewRing(peers, 0, 1)

		// Join: peer-N enters.
		after := NewRing(append(append([]string{}, peers...), fmt.Sprintf("peer-%d", n)), 0, 2)
		moved := 0
		for _, k := range keys {
			ob, oa := before.Owner(k[0], logpoint.StageID(k[1])), after.Owner(k[0], logpoint.StageID(k[1]))
			if ob != oa {
				moved++
				if oa != fmt.Sprintf("peer-%d", n) {
					t.Fatalf("n=%d join: key (%d,%d) moved %s -> %s, not to the joiner", n, k[0], k[1], ob, oa)
				}
			}
		}
		// Ideal is 1/(N+1); allow 2× slack for vnode variance.
		if bound := 2.0 / float64(n+1); float64(moved)/total > bound {
			t.Errorf("n=%d join moved %d/%d keys (%.3f > bound %.3f)", n, moved, len(keys), float64(moved)/total, bound)
		}

		// Leave: peer-0 departs.
		shrunk := NewRing(peers[1:], 0, 3)
		moved = 0
		for _, k := range keys {
			ob, oa := before.Owner(k[0], logpoint.StageID(k[1])), shrunk.Owner(k[0], logpoint.StageID(k[1]))
			if ob != oa {
				moved++
				if ob != "peer-0" {
					t.Fatalf("n=%d leave: key (%d,%d) moved %s -> %s but its owner did not leave", n, k[0], k[1], ob, oa)
				}
			}
		}
		if bound := 2.0 / float64(n); float64(moved)/total > bound {
			t.Errorf("n=%d leave moved %d/%d keys (%.3f > bound %.3f)", n, moved, len(keys), float64(moved)/total, bound)
		}
	}
}

// TestRingOwnedRangesCoverOwners cross-checks OwnedRanges against Owner on
// random probes: a hash landing in a peer's arc must be owned by that peer.
func TestRingOwnedRangesCoverOwners(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 16, 1)
	ranges := map[string][][2]uint64{}
	for _, p := range r.Peers() {
		ranges[p] = r.OwnedRanges(p)
	}
	rng := rand.New(rand.NewSource(20141208))
	for i := 0; i < 4096; i++ {
		h := rng.Uint64()
		owner := r.OwnerOfHash(h)
		in := false
		for _, arc := range ranges[owner] {
			start, end := arc[0], arc[1]
			if start < end {
				if h > start && h <= end {
					in = true
				}
			} else if h > start || h <= end { // wrapping arc
				in = true
			}
		}
		if !in {
			t.Fatalf("hash %#x owned by %s but not inside any of its arcs", h, owner)
		}
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := NewRing([]string{"peer-0", "peer-1", "peer-2"}, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(uint16(i), logpoint.StageID(i%7))
	}
}

// TestRoutingAllocs pins what the fleet pays to route one record: reading
// the current ring off the membership, hashing the group key and finding its
// owner allocate nothing.
func TestRoutingAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are exact only without the race detector")
	}
	m := NewMembership(PeerInfo{ID: "peer-a"}, MembershipConfig{})
	m.AddPeer(PeerInfo{ID: "peer-b"})
	m.AddPeer(PeerInfo{ID: "peer-c"})
	var host uint16
	got := testing.AllocsPerRun(1000, func() {
		host++
		r := m.Ring()
		if byHash, byKey := r.OwnerOfHash(KeyHash(host, 3)), r.Owner(host, 3); byHash == "" || byHash != byKey {
			t.Fatalf("host %d: OwnerOfHash says %q, Owner says %q", host, byHash, byKey)
		}
	})
	if got != 0 {
		t.Errorf("Membership.Ring + KeyHash + OwnerOfHash + Owner = %v allocs, want 0", got)
	}
}
