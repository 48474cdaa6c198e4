package federation

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Checkpoint handoff: the control-plane channel peers move group state
// over during a rebalance. One TCP connection per handoff, JSON both ways
// — a rebalance moves at most a few hundred KB a few times per topology
// change, so protocol simplicity wins over framing cleverness. The blob
// inside is the analyzer's group-export form, i.e. the PR 2 checkpoint
// window section.

// handoffMsg is the request: who is sending and the group-export blob.
type handoffMsg struct {
	From   string          `json:"from"`
	Groups json.RawMessage `json:"groups"`
}

// handoffAck is the response. A non-OK ack means nothing was adopted and
// the sender should keep (re-adopt) the state.
type handoffAck struct {
	OK       bool   `json:"ok"`
	Imported int    `json:"imported"`
	Dropped  int    `json:"dropped"`
	Error    string `json:"error,omitempty"`
}

// handoffIOTimeout bounds one handoff exchange end to end.
const handoffIOTimeout = 10 * time.Second

// listener narrows net.Listener to what the peer stores (and keeps the
// handoff transport swappable in tests).
type listener interface {
	Accept() (net.Conn, error)
	Addr() net.Addr
	Close() error
}

// listenHandoff binds the handoff listener; empty addr means an ephemeral
// loopback port.
func listenHandoff(addr string) (listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("federation: bind handoff addr %s: %w", addr, err)
	}
	return ln, nil
}

// acceptHandoffs serves handoff connections until the listener closes.
func (p *Peer) acceptHandoffs() {
	defer close(p.handoffDone)
	for {
		conn, err := p.handoffLn.Accept()
		if err != nil {
			return
		}
		go p.handleHandoff(conn)
	}
}

// handleHandoff adopts one incoming group-state blob and acks. Conflicting
// groups (a record raced ahead of its state and opened a fresh window
// here) are dropped and counted, not fatal: the transfer is best effort by
// design during churn, and exact only on the quiesced graceful-leave path.
func (p *Peer) handleHandoff(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(handoffIOTimeout))
	var msg handoffMsg
	if err := json.NewDecoder(conn).Decode(&msg); err != nil {
		p.logf("federation: decode handoff: %v", err)
		return
	}
	imported, dropped, err := p.eng.ImportGroups(msg.Groups)
	ack := handoffAck{OK: err == nil, Imported: imported, Dropped: dropped}
	if err != nil {
		ack.Error = err.Error()
		p.logf("federation: import handoff from %s: %v", msg.From, err)
	} else {
		p.handoffsIn.Add(1)
		p.groupsIn.Add(uint64(imported))
		p.m.Handoffs.With("import").Inc()
		p.m.HandoffGroups.With("import").Add(uint64(imported))
		if dropped > 0 {
			p.conflicts.Add(uint64(dropped))
			p.m.HandoffConflicts.Add(uint64(dropped))
			p.logf("federation: handoff from %s: %d groups conflicted and were dropped", msg.From, dropped)
		}
	}
	if err := json.NewEncoder(conn).Encode(ack); err != nil {
		p.logf("federation: ack handoff from %s: %v", msg.From, err)
	}
}

// sendHandoff pushes a group-export blob to a peer and waits for its ack.
func (p *Peer) sendHandoff(owner string, blob []byte) error {
	info, ok := p.ms.Info(owner)
	if !ok || info.HandoffAddr == "" {
		return fmt.Errorf("federation: no handoff address for %s", owner)
	}
	conn, err := net.DialTimeout("tcp", info.HandoffAddr, handoffIOTimeout)
	if err != nil {
		return fmt.Errorf("federation: dial handoff %s: %w", info.HandoffAddr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(handoffIOTimeout))
	if err := json.NewEncoder(conn).Encode(handoffMsg{From: p.selfID, Groups: blob}); err != nil {
		return fmt.Errorf("federation: send handoff to %s: %w", owner, err)
	}
	var ack handoffAck
	if err := json.NewDecoder(conn).Decode(&ack); err != nil {
		return fmt.Errorf("federation: read handoff ack from %s: %w", owner, err)
	}
	if !ack.OK {
		return fmt.Errorf("federation: handoff rejected by %s: %s", owner, ack.Error)
	}
	return nil
}
