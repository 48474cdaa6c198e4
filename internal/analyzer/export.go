package analyzer

import (
	"encoding/json"
	"fmt"

	"saad/internal/logpoint"
)

// Group export/import: the federation handoff currency. When the ring
// reassigns (host, stage) groups to another analyzer peer, the departing
// peer EXPORTS exactly those groups — removing their open windows from its
// core under quiesce, so the worker FIFO guarantees every synopsis fed
// before the export is reflected — and the receiving peer IMPORTS the blob
// into its own core. The wire form is the checkpoint's window section, so
// the state that moves is byte-compatible with what checkpoints already
// persist.

// groupExportJSON is the handoff blob: a versioned subset of checkpointJSON
// (windows only — closed-window history stays with the peer that closed the
// windows, and the model travels separately via the model store).
type groupExportJSON struct {
	Version int          `json:"version"`
	Windows []windowJSON `json:"windows,omitempty"`
}

// ExportGroups removes every open window whose (host, stage) group selects
// true and returns them serialized for ImportGroups on another engine. The
// quiesce barrier means the export reflects everything fed before the call;
// synopses fed concurrently for an exported group land in a fresh window
// here and must be forwarded by the caller (the federation layer parks and
// forwards them). Returns the number of groups exported.
func (e *Engine) ExportGroups(selectGroup func(host uint16, stage logpoint.StageID) bool) ([]byte, int, error) {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	out := groupExportJSON{Version: checkpointVersion}
	e.quiesce(func() {
		d := e.core
		for _, k := range sortedGroups(d.open) {
			if selectGroup(k.host, k.stage) {
				w := d.open[k]
				out.Windows = append(out.Windows, windowToJSON(k, w))
				d.evict(k, w)
				d.recycle(w)
			}
		}
	})
	data, err := json.Marshal(out)
	if err != nil {
		return nil, 0, fmt.Errorf("analyzer: encode group export: %w", err)
	}
	return data, len(out.Windows), nil
}

// ImportGroups adopts a blob produced by ExportGroups on a peer engine:
// each group's open window is inserted into the core. The engines must
// serve the same trained model, since per-signature state references model
// signatures. A group whose window is already open locally (a record
// overtook its state transfer during a topology transition) is dropped and
// the local window left untouched. Returns how many groups were adopted and
// how many dropped.
func (e *Engine) ImportGroups(data []byte) (imported, dropped int, err error) {
	var raw groupExportJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return 0, 0, fmt.Errorf("analyzer: decode group export: %w", err)
	}
	if raw.Version != checkpointVersion {
		return 0, 0, fmt.Errorf("analyzer: group export version %d, want %d", raw.Version, checkpointVersion)
	}
	e.ctl.Lock()
	defer e.ctl.Unlock()
	in := make(map[groupKey]*windowState, len(raw.Windows))
	for _, wj := range raw.Windows {
		ws, err := windowFromJSON(e.model, wj)
		if err != nil {
			return 0, 0, err
		}
		key := groupKey{host: wj.Host, stage: wj.Stage}
		if in[key] != nil {
			return 0, 0, wj.errorf("more than one window for the group")
		}
		in[key] = ws
	}
	e.quiesce(func() {
		for k, ws := range in {
			if _, open := e.core.open[k]; open {
				dropped++
			} else {
				e.core.adopt(k, ws)
			}
		}
	})
	return len(raw.Windows) - dropped, dropped, nil
}

// OpenGroups lists the (host, stage) groups with an open window, sorted by
// host then stage. The federation layer uses it to plan a rebalance; it is
// a control-plane call, not a hot path.
func (e *Engine) OpenGroups() []GroupKey {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	var out []GroupKey
	e.quiesce(func() {
		for _, k := range sortedGroups(e.core.open) {
			out = append(out, GroupKey{Host: k.host, Stage: k.stage})
		}
	})
	return out
}

// GroupKey is one (host, stage) group identity, exported for the
// federation layer.
type GroupKey struct {
	Host  uint16
	Stage logpoint.StageID
}

// SortAnomalies orders a merged anomaly slice into the engine's canonical
// order (host, stage, window, emission layer, signature). Exported so the
// federation layer — and anything else merging anomaly streams from
// several engines — reproduces exactly the ordering a single engine's
// Drain/Flush would have returned.
func SortAnomalies(out []Anomaly) { sortAnomalies(out) }
