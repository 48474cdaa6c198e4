// Command saad-instrument is the static instrumentation pass of paper
// Section 4.1.1 for Go sources: it assigns a unique log-point id to every
// log statement in a package, emits the log template dictionary, and can
// rewrite the sources to report each log point to the task execution
// tracker.
//
// Build the dictionary only:
//
//	saad-instrument -dict dict.json ./server
//
// Rewrite sources in place, inserting saadlog.Hit(<id>) before each log
// call:
//
//	saad-instrument -dict dict.json -hitpkg saadlog -write ./server
//
// Verify already-instrumented sources against their committed dictionary
// (unique ids, ids known to the dictionary, templates unchanged, every log
// statement still preceded by its Hit):
//
//	saad-instrument -dict dict.json -hitpkg saadlog -check ./server
//
// Re-running over an existing dictionary refuses to overwrite it when a
// template changed at an already-assigned id (a changed statement is a new
// log point, never a mutation); -force overrides after review.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"saad/internal/instrument"
	"saad/internal/logpoint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "saad-instrument:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("saad-instrument", flag.ContinueOnError)
	var (
		dictPath = fs.String("dict", "saad-dict.json", "output path for the log template dictionary")
		logger   = fs.String("logger", "log", "identifier whose method calls are log statements")
		methods  = fs.String("methods", "", "comma-separated log method names (default: common Print/level methods)")
		hitpkg   = fs.String("hitpkg", "", "package identifier for inserted Hit calls (empty = no rewrite)")
		write    = fs.Bool("write", false, "rewrite source files in place (requires -hitpkg)")
		check    = fs.Bool("check", false, "verify already-instrumented sources against the dictionary at -dict; no files are written")
		force    = fs.Bool("force", false, "overwrite an existing dictionary even when templates drifted at assigned ids")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one source directory")
	}
	dir := fs.Arg(0)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []instrument.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, instrument.File{Name: path, Src: src})
	}
	if len(files) == 0 {
		return fmt.Errorf("no Go sources in %s", dir)
	}

	if *check {
		return runCheck(files, *dictPath, *logger, *methods, *hitpkg)
	}

	opts := instrument.Options{Logger: *logger, HitPackage: *hitpkg}
	if *methods != "" {
		opts.Methods = strings.Split(*methods, ",")
	}
	res, err := instrument.Run(files, opts)
	if err != nil {
		return err
	}

	// Re-instrumentation guard: if a dictionary is already committed at the
	// output path, a fresh pass must not silently reassign the meaning of an
	// existing id. DiffDictionaries is the drift detection -check applies.
	if old, err := readDict(*dictPath); err == nil {
		if problems := instrument.DiffDictionaries(old, res.Dictionary); len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, p)
			}
			if !*force {
				return fmt.Errorf("refusing to overwrite %s: %d template(s) drifted at assigned ids (pass -force to override)",
					*dictPath, len(problems))
			}
			fmt.Fprintf(os.Stderr, "saad-instrument: -force set; overwriting %s despite drift\n", *dictPath)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("existing dictionary %s is unreadable: %w (move it aside or fix it)", *dictPath, err)
	}

	out, err := os.Create(*dictPath)
	if err != nil {
		return err
	}
	if _, err := res.Dictionary.WriteTo(out); err != nil {
		_ = out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("instrumented %d log points across %d stages; dictionary written to %s\n",
		len(res.Sites), res.Dictionary.NumStages(), *dictPath)
	for _, site := range res.Sites {
		fmt.Printf("  L%-4d %-20s [%s] %q (%s:%d)\n",
			site.ID, site.Stage, site.Level, site.Template, site.File, site.Line)
	}

	if *hitpkg == "" {
		return nil
	}
	for name, src := range res.Rewritten {
		if *write {
			if err := os.WriteFile(name, src, 0o644); err != nil {
				return err
			}
			fmt.Printf("rewrote %s\n", name)
		} else {
			fmt.Printf("--- %s (rewritten; pass -write to apply) ---\n%s", name, src)
		}
	}
	return nil
}

// runCheck verifies already-instrumented sources against the committed
// dictionary (internal/instrument.ScanInstrumented + Scan.Verify).
func runCheck(files []instrument.File, dictPath, logger, methods, hitpkg string) error {
	dict, err := readDict(dictPath)
	if err != nil {
		return fmt.Errorf("read dictionary: %w", err)
	}
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f.Name, f.Src, parser.ParseComments)
		if err != nil {
			return err
		}
		parsed = append(parsed, af)
	}
	opts := instrument.ScanOptions{HitPackage: hitpkg, Logger: logger}
	if methods != "" {
		opts.Methods = strings.Split(methods, ",")
	}
	scan := instrument.ScanInstrumented(fset, parsed, opts)
	problems := scan.Verify(dict)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s) against %s", len(problems), dictPath)
	}
	fmt.Printf("ok: %d hit(s), %d log statement(s) consistent with %s\n", len(scan.Hits), len(scan.Logs), dictPath)
	return nil
}

// readDict loads a committed dictionary from disk. Open errors come back
// unwrapped enough for errors.Is(err, os.ErrNotExist) to hold.
func readDict(path string) (*logpoint.Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logpoint.ReadDictionary(f)
}
