package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `package server

import "log"

type Worker struct{}

func (w *Worker) Run() {
	log.Printf("starting task %d", 1)
	log.Println("task done")
}
`

func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "worker.go"), []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-Go and test files must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "worker_test.go"), []byte("package server"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunDictionaryOnly(t *testing.T) {
	dir := writeSample(t)
	dictPath := filepath.Join(t.TempDir(), "dict.json")
	if err := run([]string{"-dict", dictPath, dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "starting task") {
		t.Fatalf("dictionary missing template: %s", data)
	}
	// Source untouched without -write.
	src, err := os.ReadFile(filepath.Join(dir, "worker.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "saadlog") {
		t.Fatal("source rewritten without -write")
	}
}

func TestRunRewriteInPlace(t *testing.T) {
	dir := writeSample(t)
	dictPath := filepath.Join(t.TempDir(), "dict.json")
	if err := run([]string{"-dict", dictPath, "-hitpkg", "saadlog", "-write", dir}); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dir, "worker.go"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(src), "saadlog.Hit("); got != 2 {
		t.Fatalf("Hit calls = %d:\n%s", got, src)
	}
}

func TestRunCheckMode(t *testing.T) {
	dir := writeSample(t)
	dictPath := filepath.Join(t.TempDir(), "dict.json")
	if err := run([]string{"-dict", dictPath, "-hitpkg", "saadlog", "-write", dir}); err != nil {
		t.Fatal(err)
	}

	// Freshly instrumented sources verify clean against their dictionary.
	if err := run([]string{"-dict", dictPath, "-hitpkg", "saadlog", "-check", dir}); err != nil {
		t.Fatalf("clean check failed: %v", err)
	}

	// Editing a template without a new id is the drift -check must catch.
	path := filepath.Join(dir, "worker.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(src), "task done", "task finished", 1)
	if err := os.WriteFile(path, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-dict", dictPath, "-hitpkg", "saadlog", "-check", dir})
	if err == nil || !strings.Contains(err.Error(), "problem") {
		t.Fatalf("drifted check err = %v, want problems", err)
	}

	// A log statement whose Hit was deleted must also fail.
	stripped := strings.Replace(string(src), "saadlog.Hit(2)\n", "", 1)
	if err := os.WriteFile(path, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dict", dictPath, "-hitpkg", "saadlog", "-check", dir}); err == nil {
		t.Fatal("missing Hit accepted by -check")
	}
}

// TestCommittedExampleChecksClean holds examples/instrumented to the
// dictionary committed next to it: an id used twice or unknown to the
// dictionary, a template edited after its id was assigned, or a log
// statement that lost its Hit fails tier-1 here.
func TestCommittedExampleChecksClean(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "instrumented")
	if err := run([]string{"-dict", filepath.Join(dir, "saad-dict.json"), "-hitpkg", "saadlog", "-check", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRefusesDriftedRedictionary(t *testing.T) {
	dir := writeSample(t)
	dictPath := filepath.Join(t.TempDir(), "dict.json")
	if err := run([]string{"-dict", dictPath, dir}); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}

	// Change a template in place, then re-run against the committed
	// dictionary: the same id would silently change meaning, so the run
	// must refuse and leave the committed file untouched.
	path := filepath.Join(dir, "worker.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(src), "task done", "task finished", 1)
	if err := os.WriteFile(path, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-dict", dictPath, dir})
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("drifted re-run err = %v, want refusal", err)
	}
	after, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(committed) {
		t.Fatal("refused run still rewrote the dictionary")
	}

	// -force overrides after review and rewrites the dictionary.
	if err := run([]string{"-dict", dictPath, "-force", dir}); err != nil {
		t.Fatalf("-force run failed: %v", err)
	}
	forced, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(forced), "task finished") {
		t.Fatalf("-force did not update dictionary: %s", forced)
	}

	// Re-running with unchanged sources over a committed dictionary is not
	// drift and must succeed without -force.
	if err := run([]string{"-dict", dictPath, dir}); err != nil {
		t.Fatalf("no-drift re-run failed: %v", err)
	}
}

func TestRunRejectsCorruptExistingDictionary(t *testing.T) {
	dir := writeSample(t)
	dictPath := filepath.Join(t.TempDir(), "dict.json")
	if err := os.WriteFile(dictPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-dict", dictPath, dir})
	if err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("corrupt existing dictionary err = %v, want unreadable", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing directory accepted")
	}
	if err := run([]string{t.TempDir()}); err == nil {
		t.Fatal("empty directory accepted")
	}
	if err := run([]string{"/nonexistent-dir-xyz"}); err == nil {
		t.Fatal("bad directory accepted")
	}
}
