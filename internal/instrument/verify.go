// verify.go holds the verification half of the instrumentation pass: given
// sources that are already instrumented (every log statement preceded by a
// Hit(id) call, as the rewriter in this package emits them) and the
// committed log template dictionary, it detects the drift classes that
// silently corrupt SAAD signatures — duplicate or unknown log-point ids,
// templates edited without a new id, and log statements that lost their
// Hit. cmd/saad-instrument's -check and its re-instrumentation guard both
// call this one implementation.
package instrument

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"saad/internal/logpoint"
)

// ScanOptions configures ScanInstrumented. Zero values select the same
// defaults as Options.
type ScanOptions struct {
	// HitPackage is the identifier qualifying inserted Hit calls
	// (default "saadlog").
	HitPackage string
	// Logger and Methods identify log statements, as in Options.
	Logger  string
	Methods []string
}

func (o *ScanOptions) applyDefaults() {
	if o.HitPackage == "" {
		o.HitPackage = "saadlog"
	}
	base := Options{Logger: o.Logger, Methods: o.Methods}
	base.applyDefaults()
	o.Logger = base.Logger
	o.Methods = base.Methods
}

// HitSite is one <hitpkg>.Hit(id) call found in instrumented source.
type HitSite struct {
	ID  logpoint.ID
	Pos token.Position
}

// LogSite is one log statement found in instrumented source, paired with
// its immediately preceding Hit call (nil when the Hit is missing).
type LogSite struct {
	Pos      token.Position
	Level    logpoint.Level
	Template string
	Hit      *HitSite
}

// Scan is the outcome of scanning instrumented sources.
type Scan struct {
	// Hits lists every Hit call in source order.
	Hits []HitSite
	// Logs lists every log statement in source order.
	Logs []LogSite
	// Dangling lists Hit calls not immediately followed by a log
	// statement (the pairing invariant the rewriter establishes).
	Dangling []HitSite
}

// Problem is one verification finding.
type Problem struct {
	Pos     token.Position
	Message string
}

func (p Problem) String() string {
	if p.Pos.Filename == "" {
		return p.Message
	}
	return fmt.Sprintf("%s:%d: %s", p.Pos.Filename, p.Pos.Line, p.Message)
}

// ScanInstrumented walks already-parsed files collecting Hit calls and log
// statements, pairing each log statement with the Hit that precedes it in
// the same statement list — the exact shape the rewriter in this package
// emits.
func ScanInstrumented(fset *token.FileSet, files []*ast.File, opts ScanOptions) *Scan {
	opts.applyDefaults()
	methods := make(map[string]bool, len(opts.Methods))
	for _, m := range opts.Methods {
		methods[m] = true
	}
	s := &Scan{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch blk := n.(type) {
			case *ast.BlockStmt:
				s.scanList(fset, blk.List, opts, methods)
			case *ast.CaseClause:
				s.scanList(fset, blk.Body, opts, methods)
			case *ast.CommClause:
				s.scanList(fset, blk.Body, opts, methods)
			}
			return true
		})
	}
	return s
}

// scanList processes one statement list: runs of Hit statements pair with
// the log calls of the next statement, in order.
func (s *Scan) scanList(fset *token.FileSet, list []ast.Stmt, opts ScanOptions, methods map[string]bool) {
	var pending []int // indexes into s.Hits
	for _, stmt := range list {
		if id, ok := hitCallID(stmt, opts.HitPackage); ok {
			s.Hits = append(s.Hits, HitSite{ID: id, Pos: fset.Position(stmt.Pos())})
			pending = append(pending, len(s.Hits)-1)
			continue
		}
		logs := logCallsIn(stmt, opts.Logger, methods)
		for i, call := range logs {
			site := LogSite{
				Pos:      fset.Position(call.Pos()),
				Level:    levelOf(call.Fun.(*ast.SelectorExpr).Sel.Name),
				Template: templateOf(call),
			}
			if i < len(pending) {
				site.Hit = &s.Hits[pending[i]]
			}
			s.Logs = append(s.Logs, site)
		}
		for _, idx := range pending[min(len(logs), len(pending)):] {
			s.Dangling = append(s.Dangling, s.Hits[idx])
		}
		pending = pending[:0]
	}
	for _, idx := range pending {
		s.Dangling = append(s.Dangling, s.Hits[idx])
	}
}

// hitCallID matches `<hitpkg>.Hit(<int literal>)` as an expression
// statement and returns the literal id.
func hitCallID(stmt ast.Stmt, hitpkg string) (logpoint.ID, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return 0, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return 0, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Hit" {
		return 0, false
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok || recv.Name != hitpkg {
		return 0, false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	var id uint64
	if _, err := fmt.Sscanf(lit.Value, "%d", &id); err != nil || id > 0xFFFF {
		return 0, false
	}
	return logpoint.ID(id), true
}

// logCallsIn collects the log calls attributed to stmt at this nesting
// level, stopping at nested blocks exactly like the rewriter does.
func logCallsIn(stmt ast.Stmt, logger string, methods map[string]bool) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause, *ast.FuncLit:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if ok && recv.Name == logger && methods[sel.Sel.Name] {
			out = append(out, call)
		}
		return true
	})
	return out
}

// Verify checks the scan against the committed dictionary and returns
// every problem found, in source order:
//
//   - a log-point id used by two Hit calls (ids are unique per statement)
//   - a Hit id absent from the dictionary
//   - a template that drifted from the dictionary entry for its id
//   - a log statement with no preceding Hit
//   - a Hit not followed by its log statement
func (s *Scan) Verify(dict *logpoint.Dictionary) []Problem {
	var out []Problem
	firstUse := make(map[logpoint.ID]token.Position, len(s.Hits))
	for _, h := range s.Hits {
		if prev, dup := firstUse[h.ID]; dup {
			out = append(out, Problem{Pos: h.Pos, Message: fmt.Sprintf(
				"duplicate log-point id %d (already used at %s:%d)", h.ID, prev.Filename, prev.Line)})
			continue
		}
		firstUse[h.ID] = h.Pos
		if _, err := dict.Point(h.ID); err != nil {
			out = append(out, Problem{Pos: h.Pos, Message: fmt.Sprintf(
				"log-point id %d is not in the dictionary", h.ID)})
		}
	}
	for _, l := range s.Logs {
		if l.Hit == nil {
			out = append(out, Problem{Pos: l.Pos, Message: "log statement lacks a preceding Hit call"})
			continue
		}
		p, err := dict.Point(l.Hit.ID)
		if err != nil {
			continue // already reported as unknown id
		}
		if p.Template != l.Template {
			out = append(out, Problem{Pos: l.Pos, Message: fmt.Sprintf(
				"template drifted from dictionary for id %d: dictionary has %q, source has %q (changed statements need a new id)",
				l.Hit.ID, p.Template, l.Template)})
		}
	}
	for _, h := range s.Dangling {
		out = append(out, Problem{Pos: h.Pos, Message: fmt.Sprintf(
			"Hit(%d) is not immediately followed by its log statement", h.ID)})
	}
	sortProblems(out)
	return out
}

// DiffDictionaries compares a previously committed dictionary with a fresh
// re-instrumentation and reports every id whose template changed — the
// drift the paper's pre-assigned-id scheme forbids (a changed statement is
// a new log point, not a mutation of an old one). Position information
// comes from the new dictionary's source metadata.
func DiffDictionaries(old, fresh *logpoint.Dictionary) []Problem {
	var out []Problem
	for _, np := range fresh.Points() {
		op, err := old.Point(np.ID)
		if err != nil {
			continue // new id: fine
		}
		if op.Template != np.Template {
			out = append(out, Problem{
				Pos: token.Position{Filename: np.File, Line: np.Line},
				Message: fmt.Sprintf(
					"dictionary drift at id %d: committed template %q, source now %q (assign a new id instead of editing)",
					np.ID, op.Template, np.Template),
			})
		}
	}
	sortProblems(out)
	return out
}

func sortProblems(ps []Problem) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Pos.Filename != ps[j].Pos.Filename {
			return ps[i].Pos.Filename < ps[j].Pos.Filename
		}
		if ps[i].Pos.Line != ps[j].Pos.Line {
			return ps[i].Pos.Line < ps[j].Pos.Line
		}
		return ps[i].Message < ps[j].Message
	})
}
