package federation

import (
	"testing"
	"time"

	"saad/internal/analyzer/analyzertest"
	"saad/internal/stream"
)

// TestForwardLinkRedialsRestartedPeer: a peer whose ingest server dies and
// comes back on the same address is forwarded to again. The forward link
// latches its transport error; the forwarding peer must evict it, count the
// records that met the gap as dropped, and redial.
func TestForwardLinkRedialsRestartedPeer(t *testing.T) {
	fleet := startFleet(t, analyzertest.Model(t), []string{"a", "b"}, MembershipConfig{}, nil)
	joinMesh(fleet)
	a, b := fleet[0], fleet[1]

	// A group b owns in a's view: everything a receives for it is forwarded.
	host := uint16(0)
	for a.peer.Membership().Ring().Owner(host, 1) != "b" {
		host++
	}
	ts := analyzertest.Epoch
	forward := func() {
		a.peer.Emit(analyzertest.Syn(1, host, ts, 10*time.Millisecond, 1, 2, 4, 5))
		ts = ts.Add(time.Millisecond)
	}
	poll := func(what string, cond func() bool) {
		t.Helper()
		waitUntil(t, 10*time.Second, what, cond)
	}

	forward()
	poll("the first forward to arrive", func() bool { return b.eng.Fed() == 1 })

	addr := b.srv.Addr()
	if err := b.srv.Close(); err != nil {
		t.Fatal(err)
	}
	poll("the gap to be counted", func() bool {
		forward()
		return a.peer.Status().ForwardsDropped > 0
	})

	srv, err := stream.Listen(addr, b.peer)
	if err != nil {
		t.Fatal(err)
	}
	b.srv = srv
	before := b.eng.Fed()
	poll("forwarding to resume on the restarted peer", func() bool {
		forward()
		return b.eng.Fed() > before
	})
}
