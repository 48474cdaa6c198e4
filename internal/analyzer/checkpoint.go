package analyzer

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"saad/internal/logpoint"
	"saad/internal/synopsis"
)

// checkpointVersion guards the on-disk format; a mismatch fails loudly
// instead of silently misreading state.
const checkpointVersion = 1

// Checkpoint wire form: the trained model plus the detector's live state —
// every open (host, stage) window with its outlier tallies and example
// synopses, and the closed-window history for reporting. Example synopses
// reuse the canonical binary record encoding, hex-armored for JSON.
type checkpointJSON struct {
	Version int               `json:"version"`
	Model   modelJSON         `json:"model"`
	Windows []windowJSON      `json:"windows,omitempty"`
	History []windowStatsJSON `json:"history,omitempty"`
	// Late carries the dropped late-synopsis count across restarts. Old
	// checkpoints without the field read as zero; new checkpoints stay
	// readable by the same version (additive change).
	Late uint64 `json:"late,omitempty"`
}

type windowJSON struct {
	Host         uint16            `json:"host"`
	Stage        logpoint.StageID  `json:"stage"`
	StartUnixNs  int64             `json:"startUnixNs"`
	Tasks        int               `json:"tasks"`
	FlowOutliers int               `json:"flowOutliers"`
	NewSigs      []sigEvidenceJSON `json:"newSigs,omitempty"`
	FlowExamples []string          `json:"flowExamples,omitempty"`
	PerSig       []sigWindowJSON   `json:"perSig,omitempty"`
}

type sigEvidenceJSON struct {
	SignatureHex string   `json:"signature"`
	Count        int      `json:"count"`
	Examples     []string `json:"examples,omitempty"`
}

type sigWindowJSON struct {
	SignatureHex string   `json:"signature"`
	Tasks        int      `json:"tasks"`
	PerfOutliers int      `json:"perfOutliers"`
	Examples     []string `json:"examples,omitempty"`
}

type windowStatsJSON struct {
	Stage        logpoint.StageID `json:"stage"`
	Host         uint16           `json:"host"`
	WindowUnixNs int64            `json:"windowUnixNs"`
	// Windows is written only for a group's aggregate of folded windows;
	// absent, as in every checkpoint before the history was bounded, it is 1.
	Windows      *int `json:"windows,omitempty"`
	Tasks        int  `json:"tasks"`
	FlowOutliers int  `json:"flowOutliers"`
	PerfOutliers int  `json:"perfOutliers"`
}

// encodeExamples encodes the examples kept at site, in arrival order: the
// per-site list the checkpoint form has always carried.
func encodeExamples(in []example, site int32) []string {
	var out []string
	for _, e := range in {
		if e.site == site {
			out = append(out, hex.EncodeToString(synopsis.AppendRecord(nil, e.s)))
		}
	}
	return out
}

// addExamples decodes the examples a checkpoint lists at site onto the
// window's list. A detector keeps at most one example per outlier of a site
// and at most limit there, so a list longer than either is refused.
func (ws *windowState) addExamples(site int32, in []string, outliers, limit int) error {
	if len(in) > outliers || len(in) > limit {
		return fmt.Errorf("%d examples of %d outliers, at most %d kept", len(in), outliers, limit)
	}
	for _, h := range in {
		raw, err := hex.DecodeString(h)
		if err != nil {
			return fmt.Errorf("example synopsis: %w", err)
		}
		var s synopsis.Synopsis
		if err := synopsis.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
			return fmt.Errorf("example synopsis: %w", err)
		}
		ws.examples = append(ws.examples, example{site: site, s: &s})
	}
	return nil
}

// windowsJSON snapshots the detector's open windows in deterministic (host,
// stage) order.
func (d *Detector) windowsJSON() []windowJSON {
	out := make([]windowJSON, 0, len(d.open))
	for _, k := range sortedGroups(d.open) {
		out = append(out, windowToJSON(k, d.open[k]))
	}
	return out
}

// windowToJSON serializes one open window in the checkpoint wire form
// (shared by whole-detector checkpoints and per-group federation handoff).
func windowToJSON(k groupKey, ws *windowState) windowJSON {
	wj := windowJSON{
		Host:         k.host,
		Stage:        k.stage,
		StartUnixNs:  ws.start.UnixNano(),
		Tasks:        ws.tasks,
		FlowOutliers: ws.flowOutliers,
		FlowExamples: encodeExamples(ws.examples, flowSite),
	}
	for _, sig := range sortedSignatures(ws.newSigs) {
		ev := ws.newSigs[sig]
		wj.NewSigs = append(wj.NewSigs, sigEvidenceJSON{
			SignatureHex: hex.EncodeToString([]byte(sig)),
			Count:        ev.count,
			Examples:     encodeExamples(ws.examples, ev.site),
		})
	}
	// Interned ids sort like their signatures, so iterating ids in
	// numeric order keeps the serialized order lexicographic. (Sorting
	// touched in place is harmless: its order carries no meaning.)
	slices.Sort(ws.touched)
	for _, id := range ws.touched {
		sw := &ws.perSig[id]
		wj.PerSig = append(wj.PerSig, sigWindowJSON{
			SignatureHex: hex.EncodeToString([]byte(ws.sm.sigByID[id].Signature)),
			Tasks:        sw.tasks,
			PerfOutliers: sw.perfOutliers,
			Examples:     encodeExamples(ws.examples, id),
		})
	}
	return wj
}

// historyJSON snapshots the closed-window history in WindowHistory's order.
func (d *Detector) historyJSON() []windowStatsJSON {
	hist := d.WindowHistory()
	out := make([]windowStatsJSON, len(hist))
	for i, w := range hist {
		out[i] = windowStatsJSON{
			Stage:        w.Stage,
			Host:         w.Host,
			WindowUnixNs: w.Window.UnixNano(),
			Tasks:        w.Tasks,
			FlowOutliers: w.FlowOutliers,
			PerfOutliers: w.PerfOutliers,
		}
		if w.Windows > 1 {
			out[i].Windows = &hist[i].Windows
		}
	}
	return out
}

// restoreInto adds one history entry to h in the order the checkpoint lists
// it, so a group past HistoryDepth windows — an old checkpoint's — folds as
// it is read. It refuses what no detector writes: fewer than one window, a
// negative count, outliers exceeding their tasks, a single window's count
// above MaxUint32 (the packed width) and an aggregate behind other entries
// of its group.
func (st *windowStatsJSON) restoreInto(h *history) error {
	windows := 1
	if st.Windows != nil {
		windows = *st.Windows
	}
	if windows < 1 || st.Tasks < 0 || (windows == 1 && int64(st.Tasks) > math.MaxUint32) ||
		st.FlowOutliers < 0 || st.FlowOutliers > st.Tasks ||
		st.PerfOutliers < 0 || st.PerfOutliers > st.Tasks {
		return st.errorf("%d windows: %d flow and %d perf outliers of %d tasks", windows, st.FlowOutliers, st.PerfOutliers, st.Tasks)
	}
	if windows == 1 {
		h.add(packWindow(st.Host, st.Stage, st.WindowUnixNs, st.Tasks, st.FlowOutliers, st.PerfOutliers))
		return nil
	}
	g := h.group(groupKey{host: st.Host, stage: st.Stage})
	if g.agg.windows > 0 || len(g.recent) > 0 {
		return st.errorf("an aggregate of %d windows behind other entries of its group", windows)
	}
	g.agg = windowAggregate{
		start:        st.WindowUnixNs,
		windows:      uint64(windows),
		tasks:        uint64(st.Tasks),
		flowOutliers: uint64(st.FlowOutliers),
		perfOutliers: uint64(st.PerfOutliers),
	}
	h.closed += windows
	return nil
}

func (st *windowStatsJSON) errorf(format string, args ...any) error {
	return fmt.Errorf("analyzer: checkpoint history host=%d stage=%d window=%d: %s", st.Host, st.Stage, st.WindowUnixNs, fmt.Sprintf(format, args...))
}

// WriteCheckpoint serializes the detector — model and live window state —
// as JSON; it implements io.WriterTo. The detector can keep feeding after a
// checkpoint; nothing is consumed.
func (d *Detector) WriteCheckpoint(w io.Writer) (int64, error) {
	out := checkpointJSON{
		Version: checkpointVersion,
		Model:   d.model.toJSON(),
		Windows: d.windowsJSON(),
		History: d.historyJSON(),
		Late:    d.late,
	}
	return writeCheckpointJSON(w, out)
}

func writeCheckpointJSON(w io.Writer, out checkpointJSON) (int64, error) {
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return cw.n, fmt.Errorf("analyzer: encode checkpoint: %w", err)
	}
	return cw.n, nil
}

// ReadCheckpoint rebuilds a detector from a checkpoint previously written
// with WriteCheckpoint: same model, same open windows, same history.
func ReadCheckpoint(r io.Reader) (*Detector, error) {
	var raw checkpointJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("analyzer: decode checkpoint: %w", err)
	}
	if raw.Version != checkpointVersion {
		return nil, fmt.Errorf("analyzer: checkpoint version %d, want %d", raw.Version, checkpointVersion)
	}
	model, err := modelFromJSON(raw.Model)
	if err != nil {
		return nil, err
	}
	d := NewDetector(model)
	for _, wj := range raw.Windows {
		ws, err := windowFromJSON(model, wj)
		if err != nil {
			return nil, err
		}
		key := groupKey{host: wj.Host, stage: wj.Stage}
		if d.open[key] != nil {
			return nil, wj.errorf("more than one window for the group")
		}
		d.adopt(key, ws)
	}
	for i := range raw.History {
		if err := raw.History[i].restoreInto(&d.hist); err != nil {
			return nil, err
		}
	}
	d.late = raw.Late
	return d, nil
}

// errorf names the window's group in front of a reason to reject it.
func (wj *windowJSON) errorf(format string, args ...any) error {
	return fmt.Errorf("analyzer: checkpoint window host=%d stage=%d: %w", wj.Host, wj.Stage, fmt.Errorf(format, args...))
}

// windowFromJSON rebuilds one open window from its checkpoint wire form.
// The model must be the one the window was serialized against: perSig
// entries reference model-known signatures by content. The blob may come
// from a peer (federation handoff), so what no detector writes is refused:
// a signature listed twice, a new signature the model knows, counts that
// are negative, exceed the tasks they are drawn from, or (per signature)
// are zero, tallies that account for more tasks than the window has or
// for more new-signature tasks than flow outliers, and more examples at a
// site than its outliers or than the detector keeps there (MaxExamples,
// at least one for a new signature). The tallies are bounds, not
// equalities, so no checkpoint an earlier release wrote is refused.
func windowFromJSON(model *Model, wj windowJSON) (*windowState, error) {
	ws := &windowState{
		start:        time.Unix(0, wj.StartUnixNs).UTC(),
		tasks:        wj.Tasks,
		flowOutliers: wj.FlowOutliers,
		flowExamples: len(wj.FlowExamples),
	}
	if wj.FlowOutliers < 0 || wj.FlowOutliers > wj.Tasks {
		return nil, wj.errorf("%d flow outliers of %d tasks", wj.FlowOutliers, wj.Tasks)
	}
	maxExamples := model.Config.MaxExamples
	if err := ws.addExamples(flowSite, wj.FlowExamples, wj.FlowOutliers, maxExamples); err != nil {
		return nil, wj.errorf("rare flows: %w", err)
	}
	newTasks, accounted := 0, wj.FlowOutliers
	for i, ej := range wj.NewSigs {
		sig, err := decodeSignature(ej.SignatureHex)
		if err != nil {
			return nil, wj.errorf("%w", err)
		}
		if ws.newSigs == nil {
			ws.newSigs = make(map[synopsis.Signature]*sigEvidence, len(wj.NewSigs))
		}
		if ws.newSigs[sig] != nil {
			return nil, wj.errorf("new signature %s listed twice", sig)
		}
		if model.Knows(wj.Stage, sig) {
			return nil, wj.errorf("new signature %s is in the model", sig)
		}
		if ej.Count < 1 || ej.Count > wj.Tasks {
			return nil, wj.errorf("new signature %s: count %d of %d tasks", sig, ej.Count, wj.Tasks)
		}
		ev := &sigEvidence{count: ej.Count, examples: len(ej.Examples), site: newSigSite(i)}
		if err := ws.addExamples(ev.site, ej.Examples, ej.Count, cap1(maxExamples)); err != nil {
			return nil, wj.errorf("new signature %s: %w", sig, err)
		}
		ws.newSigs[sig] = ev
		newTasks += ej.Count
	}
	if newTasks > wj.FlowOutliers {
		return nil, wj.errorf("%d new-signature tasks of %d flow outliers", newTasks, wj.FlowOutliers)
	}
	ws.setStage(model.Stage(wj.Stage))
	for _, sj := range wj.PerSig {
		sig, err := decodeSignature(sj.SignatureHex)
		if err != nil {
			return nil, wj.errorf("%w", err)
		}
		// perSig entries only ever hold model-known signatures, so a
		// miss means the checkpoint does not match its own model.
		var (
			id int32
			ok bool
		)
		if ws.sm != nil {
			id, ok = ws.sm.sigIDs[string(sig)]
		}
		if !ok {
			return nil, wj.errorf("signature %s not in model", sig)
		}
		if ws.perSig[id].tasks != 0 {
			return nil, wj.errorf("signature %s listed twice", sig)
		}
		if sj.Tasks < 1 || sj.Tasks > wj.Tasks || sj.PerfOutliers < 0 || sj.PerfOutliers > sj.Tasks {
			return nil, wj.errorf("signature %s: %d perf outliers of %d tasks in a window of %d", sig, sj.PerfOutliers, sj.Tasks, wj.Tasks)
		}
		if err := ws.addExamples(id, sj.Examples, sj.PerfOutliers, maxExamples); err != nil {
			return nil, wj.errorf("signature %s: %w", sig, err)
		}
		ws.perSig[id] = sigWindow{tasks: sj.Tasks, perfOutliers: sj.PerfOutliers, examples: len(sj.Examples)}
		ws.touched = append(ws.touched, id)
		accounted += sj.Tasks
	}
	if accounted > wj.Tasks {
		return nil, wj.errorf("%d tasks accounted for in a window of %d", accounted, wj.Tasks)
	}
	return ws, nil
}

func decodeSignature(sigHex string) (synopsis.Signature, error) {
	sigBytes, err := hex.DecodeString(sigHex)
	if err != nil {
		return "", fmt.Errorf("signature %q: %w", sigHex, err)
	}
	return synopsis.Signature(sigBytes), nil
}

// WriteCheckpointFile atomically persists the checkpoint at path (see
// WriteFileAtomic), so a crash mid-write never leaves a truncated checkpoint
// where the next startup would read it.
func (d *Detector) WriteCheckpointFile(path string) error {
	return WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		_, err := d.WriteCheckpoint(w)
		return err
	})
}

// WriteFileAtomic installs what write produces at path with the given mode:
// a temporary file in the same directory is written, synced and renamed into
// place, so a reader — or the next start after a crash — sees the old file or
// the whole new one, never a torn one. The directory is then synced as well
// (best effort: not every filesystem can), so that the rename itself
// survives a power loss.
func WriteFileAtomic(path string, mode os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("analyzer: temp file for %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = tmp.Chmod(mode)       // CreateTemp's is 0600
	if err == nil {
		err = write(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("analyzer: write %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadCheckpointFile rebuilds a detector from a checkpoint file written by
// WriteCheckpointFile.
func LoadCheckpointFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("analyzer: open checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// sortedGroups lists m's groups by host then stage, the order of everything
// the detector emits group by group.
func sortedGroups[V any](m map[groupKey]V) []groupKey {
	keys := make([]groupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b groupKey) int {
		return cmpGroup(a.host, a.stage, b.host, b.stage)
	})
	return keys
}

// sortedSignatures returns the map's keys in lexicographic order.
func sortedSignatures[V any](m map[synopsis.Signature]V) []synopsis.Signature {
	out := make([]synopsis.Signature, 0, len(m))
	for sig := range m {
		out = append(out, sig)
	}
	slices.Sort(out)
	return out
}
