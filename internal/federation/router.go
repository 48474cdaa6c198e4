package federation

import (
	"saad/internal/logpoint"
)

// Route implements stream.Router over the live membership view: the ring
// owner's ingest address, "" when the owner is unknown. Safe from any
// goroutine; the ring load is wait-free.
func (m *Membership) Route(host uint16, stage logpoint.StageID) string {
	info, _ := m.Info(m.Ring().Owner(host, stage))
	return info.Addr
}

// StaticRouter implements stream.Router from a fixed peer list — the
// tracker-side configuration (-analyzer-peers), where trackers do not join
// the gossip mesh. Its view can go stale when the fleet loses a peer; a
// receiving peer routes by its own ring and forwards the record to the
// current owner, so a static route is never wrong for long.
type StaticRouter struct {
	ring  *Ring
	addrs map[string]string
}

// NewStaticRouter builds a router over the given peers. vnodes <= 0 uses
// DefaultVirtualNodes. The static ring carries epoch 1: it is a fixed
// initial topology, not a live view.
func NewStaticRouter(peers []PeerInfo, vnodes int) *StaticRouter {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	ids := make([]string, 0, len(peers))
	addrs := make(map[string]string, len(peers))
	for _, p := range peers {
		ids = append(ids, p.ID)
		addrs[p.ID] = p.Addr
	}
	return &StaticRouter{ring: NewRing(ids, vnodes, 1), addrs: addrs}
}

// Route implements stream.Router.
func (r *StaticRouter) Route(host uint16, stage logpoint.StageID) string {
	return r.addrs[r.ring.Owner(host, stage)]
}

// Ring exposes the underlying static ring (diagnostics, tests).
func (r *StaticRouter) Ring() *Ring { return r.ring }
