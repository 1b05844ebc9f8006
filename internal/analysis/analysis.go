// Package analysis is fairvet's static-analysis framework: a
// dependency-free mirror of the golang.org/x/tools/go/analysis API
// shape (Analyzer / Pass / Diagnostic) built on the standard library's
// go/ast + go/types with the "source" importer, so the repository's
// determinism, concurrency and CLI contracts can be machine-checked
// without adding a module dependency the build environment may not
// have.
//
// The eight passes promote contracts that DESIGN.md previously stated
// only in prose:
//
//   - nodeterminism: no time.Now / global math/rand / map-range into
//     ordered output inside the deterministic packages.
//   - atomicfield: a struct field ever passed to sync/atomic must
//     never be read or written non-atomically.
//   - ctxflow: a function that receives a context.Context must not
//     drop it (unused param, or context.Background()/TODO()/nil fed to
//     a callee that accepts a context).
//   - cliexit: commands under cmd/ must route termination through
//     internal/cli.Main — no os.Exit / log.Fatal* / panic.
//   - floateq: no ==/!= on floating-point operands outside files that
//     opt in with a //fairvet:floateq marker.
//   - lockcheck: a struct field annotated `guarded by <mutex>` must
//     only be touched while that mutex is held on every path
//     (flow-sensitive over the per-function CFG; defer-aware).
//   - errflow: error results must not be blank-assigned, dropped at
//     statement position, or overwritten/abandoned before any use on
//     some path (flow-sensitive).
//   - hotalloc: functions marked //fairvet:hotpath must contain no
//     allocating constructs.
//
// The last three run on a shared flow-sensitive layer: a per-function
// control-flow graph (cfg.go) and a generic forward worklist solver
// (dataflow.go), both stdlib-only.
//
// Escape hatch: a finding can be suppressed with an inline
// justification comment on the same line or the line above:
//
//	//fairvet:ignore <pass>[,<pass>...] -- <why this is sound>
//
// A suppression without a justification is itself reported, and — when
// the full suite runs (RunSuite) — so is a directive that suppresses
// nothing, so stale suppressions cannot linger after the code they
// excused is fixed. File-level markers (//fairvet:deterministic,
// //fairvet:climain, //fairvet:floateq) opt a file in or out of
// scope-limited passes; see each pass's Doc.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named pass. Run inspects a fully type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one Analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (fabricated for analysistest
	// fixture packages; scope-limited passes must therefore also honor
	// their file markers).
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Pass names the Analyzer that produced the finding (set by the
	// driver; used for suppression matching and rendering).
	Pass string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Pass: p.Analyzer.Name})
}

// RunPass executes one analyzer over one loaded package, applies the
// //fairvet:ignore suppression filter, and returns the surviving
// diagnostics sorted by position. Zero-match directive warnings are
// not emitted here — a single pass cannot know whether a directive
// aimed at another pass is stale; use RunSuite for that.
func RunPass(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return runAnalyzers([]*Analyzer{a}, pkg, false)
}

// RunSuite executes every analyzer in as over one loaded package,
// applies the //fairvet:ignore filter once across the combined
// findings, and additionally reports directives that matched nothing —
// a suppression that no longer suppresses is stale and must go.
func RunSuite(as []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	return runAnalyzers(as, pkg, true)
}

func runAnalyzers(as []*Analyzer, pkg *Package, wantZeroMatch bool) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, a := range as {
		pass := &Pass{
			Analyzer:  a,
			Path:      pkg.Path,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		all = append(all, pass.diags...)
	}
	var ranPasses []string
	if wantZeroMatch {
		for _, a := range as {
			ranPasses = append(ranPasses, a.Name)
		}
	}
	diags := applySuppressions(pkg, all, ranPasses)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// Analyzers is the full fairvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		AtomicField,
		CtxFlow,
		CLIExit,
		FloatEq,
		LockCheck,
		ErrFlow,
		HotAlloc,
	}
}

// ---- markers & suppressions -------------------------------------------

// ignoreRe matches one suppression directive:
// //fairvet:ignore pass1,pass2 -- reason. A line comment runs to end
// of line, so an analysistest `// want` annotation after a directive
// lands inside the same comment; the final group strips it from the
// captured reason.
var ignoreRe = regexp.MustCompile(`^//fairvet:ignore\s+([a-z,]+)(?:\s*--\s*(.*?))?(?:\s*// want\s.*)?$`)

type ignoreDirective struct {
	passes []string
	reason string
	pos    token.Pos
	// matched counts suppressed findings; bareHit marks an unjustified
	// directive that would have suppressed something. Both feed the
	// stale-directive warning, and sharing one *ignoreDirective between
	// the two covered lines keeps the counts unified.
	matched int
	bareHit bool
}

// fileIgnores maps source line -> directives that apply to findings on
// that line, and returns all directives in source order. A directive
// on its own line covers the next line; a trailing directive covers
// its own line.
func fileIgnores(fset *token.FileSet, f *ast.File) (map[int][]*ignoreDirective, []*ignoreDirective) {
	out := map[int][]*ignoreDirective{}
	var all []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			d := &ignoreDirective{
				passes: strings.Split(m[1], ","),
				reason: strings.TrimSpace(m[2]),
				pos:    c.Pos(),
			}
			all = append(all, d)
			line := fset.Position(c.Pos()).Line
			// Trailing comment: the line holds code before the comment.
			// Own-line comment: the comment starts the line. Covering both
			// the directive's line and the next is simpler and safe — a
			// trailing directive's "next line" is almost always unrelated
			// code whose findings (if any) a reviewer would see anyway,
			// and the reason requirement keeps suppressions auditable.
			out[line] = append(out[line], d)
			out[line+1] = append(out[line+1], d)
		}
	}
	return out, all
}

func (d *ignoreDirective) matches(pass string) bool {
	for _, p := range d.passes {
		if p == pass {
			return true
		}
	}
	return false
}

// applySuppressions drops diagnostics covered by a justified
// //fairvet:ignore directive and reports unjustified directives that
// would otherwise have suppressed something. When ranPasses is
// non-empty (full-suite mode), a directive naming at least one pass
// that ran but matching zero findings is reported as stale.
func applySuppressions(pkg *Package, diags []Diagnostic, ranPasses []string) []Diagnostic {
	ignores := map[string]map[int][]*ignoreDirective{}
	var directives []*ignoreDirective
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		byLine, all := fileIgnores(pkg.Fset, f)
		ignores[name] = byLine
		directives = append(directives, all...)
	}
	var out []Diagnostic
	flaggedBare := map[token.Pos]bool{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		for _, dir := range ignores[pos.Filename][pos.Line] {
			if !dir.matches(d.Pass) {
				continue
			}
			if dir.reason == "" {
				dir.bareHit = true
				if !flaggedBare[dir.pos] {
					flaggedBare[dir.pos] = true
					out = append(out, Diagnostic{
						Pos:     dir.pos,
						Pass:    d.Pass,
						Message: "fairvet:ignore directive needs a justification: write //fairvet:ignore " + strings.Join(dir.passes, ",") + " -- <reason>",
					})
				}
				continue
			}
			dir.matched++
			suppressed = true
			break
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range directives {
		if dir.matched > 0 || dir.bareHit {
			continue
		}
		ran := ""
		for _, p := range dir.passes {
			for _, r := range ranPasses {
				if p == r {
					ran = p
					break
				}
			}
			if ran != "" {
				break
			}
		}
		if ran == "" {
			continue // can't judge staleness: none of its passes ran
		}
		out = append(out, Diagnostic{
			Pos:     dir.pos,
			Pass:    ran,
			Message: "fairvet:ignore " + strings.Join(dir.passes, ",") + " suppresses no finding; delete the stale directive",
		})
	}
	return out
}

// fileMarker returns the first //fairvet:<name> marker comment in f
// (anywhere in the file, conventionally near the top), or nil.
// Trailing text after the marker is a free-form justification.
func fileMarker(f *ast.File, name string) *ast.Comment {
	prefix := "//fairvet:" + name
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == prefix || strings.HasPrefix(c.Text, prefix+" ") {
				return c
			}
		}
	}
	return nil
}

// ---- shared type helpers ----------------------------------------------

// isPkgCall reports whether call is pkgpath.name(...) resolved through
// the type info (robust to import renames).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// selectsPackage resolves a selector's qualifier to an imported
// package, returning its path ("" when the selector is not a package
// selection).
func selectsPackage(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isFloat reports whether t's underlying type is a floating-point
// type (including untyped float constants).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}
