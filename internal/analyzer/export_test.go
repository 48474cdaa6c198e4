package analyzer

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"saad/internal/logpoint"
)

// TestImportGroupsConflict pins the ownership invariant: a group that
// already has an open window locally (a record overtook its state transfer)
// is dropped from the import and the local window is left as it was, while
// the blob's other groups are adopted.
func TestImportGroupsConflict(t *testing.T) {
	model := trainedModel(t)
	stream := multiGroupStream(2)
	cut := len(stream) / 2
	// b, and its twin ref, already have one of a's groups open — from half
	// of a's tasks, so an overwritten window would show.
	local := func(host uint16, stage logpoint.StageID) bool { return host == 1 && stage == 1 }

	a := NewEngine(model)
	defer a.Close()
	b := NewEngine(model)
	defer b.Close()
	ref := NewEngine(model)
	defer ref.Close()
	for i, s := range stream[:cut] {
		a.Feed(s)
		if i%2 == 0 && local(s.Host, s.Stage) {
			b.Feed(s)
			ref.Feed(s)
		}
	}
	a.Drain()
	b.Drain()
	ref.Drain()

	blob, n, err := a.ExportGroups(func(uint16, logpoint.StageID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("exported %d groups, want the conflicting one and at least one more", n)
	}
	if imported, dropped, err := b.ImportGroups(blob); err != nil || dropped != 1 || imported != n-1 {
		t.Fatalf("conflicting import: imported %d, dropped %d, err %v; want %d, 1, nil", imported, dropped, err, n-1)
	}
	if groups := b.OpenGroups(); len(groups) != n {
		t.Fatalf("%d groups open after the import, want %d", len(groups), n)
	}
	got, _, err := b.ExportGroups(local)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.ExportGroups(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the dropped group's local window changed:\n got %s\nwant %s", got, want)
	}
	// A's windows are gone (moved out), so the same blob still imports whole
	// into a fresh engine.
	c := NewEngine(model)
	defer c.Close()
	if m, dropped, err := c.ImportGroups(blob); err != nil || m != n || dropped != 0 {
		t.Fatalf("import into fresh engine: n=%d dropped=%d err=%v", m, dropped, err)
	}
	if groups := c.OpenGroups(); len(groups) != n {
		t.Fatalf("fresh engine has %d open groups, want %d", len(groups), n)
	}

	// A blob that contradicts itself (it arrives over the handoff channel,
	// so a peer wrote it) is refused whole.
	seed := NewDetector(model)
	for _, s := range hostileWindowSeed() {
		seed.Feed(s)
	}
	for _, tc := range hostileWindows {
		hostile, err := json.Marshal(groupExportJSON{Version: checkpointVersion, Windows: tc.mutate(seed.windowsJSON())})
		if err != nil {
			t.Fatal(err)
		}
		d := NewEngine(model)
		if m, dropped, err := d.ImportGroups(hostile); err == nil || !strings.Contains(err.Error(), "host=1 stage=1") {
			t.Errorf("%s: imported %d, dropped %d, err %v; want an error naming the group", tc.name, m, dropped, err)
		}
		if groups := d.OpenGroups(); len(groups) != 0 {
			t.Errorf("%s: the refused blob left %d groups open", tc.name, len(groups))
		}
		d.Close()
	}
}

// TestExportGroupsSelective checks only selected groups move and the rest
// keep detecting in place.
func TestExportGroupsSelective(t *testing.T) {
	model := trainedModel(t)
	e := NewEngine(model)
	defer e.Close()
	stream := multiGroupStream(3)
	for _, s := range stream[:len(stream)/2] {
		e.Feed(s)
	}
	e.Drain()
	before := e.OpenGroups()
	if len(before) == 0 {
		t.Fatal("no open groups")
	}
	_, n, err := e.ExportGroups(func(host uint16, _ logpoint.StageID) bool { return host == 2 })
	if err != nil {
		t.Fatal(err)
	}
	after := e.OpenGroups()
	if len(after) != len(before)-n {
		t.Fatalf("open groups %d -> %d after exporting %d", len(before), len(after), n)
	}
	for _, g := range after {
		if g.Host == 2 {
			t.Fatalf("host 2 group %v still open after export", g)
		}
	}
}
