// Package lint is provlint: a go/analysis suite that mechanically
// enforces the store's concurrency and wire-contract invariants. Nine
// PRs of hand-maintained rules — lock hierarchies, atomic-bits-only
// fields, typed faults that must survive the soap wire, hot-path
// telemetry discipline, and the generation-bump cache-coherence
// ordering — live here as machine-checked analyzers instead of
// comments that only -race might catch.
//
// The analyzers are driven by `provlint:` annotations in ordinary
// comments, which double as the durable, reviewable record of the
// concurrency design:
//
//	// provlint:lock-order <rank>
//	    On a mutex field or package-level mutex var. Locks must be
//	    acquired in strictly ascending rank order (package-scoped
//	    hierarchy); lockorder flags any function whose acquisition
//	    order inverts it.
//
//	// provlint:requires <lockname>
//	    On a function: callers in the same package must hold the
//	    named annotated lock at the call site (or themselves carry
//	    the same requires annotation).
//
//	// provlint:atomic-exempt <reason>
//	    On a function: atomicfield permits plain access to atomic
//	    fields inside it (single-threaded construction, sections
//	    already under a full exclusive lock).
//
//	// provlint:typed-faults
//	    On a function: typedfault requires every returned error to
//	    be a registered typed fault or wrap one with %w — never a
//	    bare errors.New or a fmt.Errorf without %w.
//
//	// provlint:obs-setup
//	    On a function: obshotpath permits by-name obs registry
//	    lookups (Counter/Gauge/GaugeFunc/Histogram) inside it, as it
//	    does in constructors (New*/new*/init) by default.
//
//	// provlint:no-genbump <reason>
//	    On a function in internal/store: genbump permits backend
//	    mutations without a stamp advance (a call of Store.advance)
//	    in the same function (used when the advance provably lives
//	    in every caller).
//
//	// provlint:ignore <analyzer> <reason>
//	    On (or directly above) an offending line: suppresses that
//	    analyzer's findings for the line. Every use must carry a
//	    justification; there is no package- or file-wide silencing.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full provlint suite, in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		LockOrder,
		AtomicField,
		TypedFault,
		ObsHotPath,
		GenBump,
	}
}

// directives is everything the provlint annotations in one package
// declare, resolved to type-checker objects.
type directives struct {
	// lockRank maps an annotated mutex field or package var to its
	// hierarchy rank (provlint:lock-order).
	lockRank map[types.Object]int
	// requires maps a function to the lock names its callers must hold
	// (provlint:requires).
	requires map[types.Object][]string
	// atomicExempt, typedFaults, obsSetup, and noGenbump mark annotated
	// functions for the corresponding analyzers.
	atomicExempt map[types.Object]bool
	typedFaults  map[types.Object]bool
	obsSetup     map[types.Object]bool
	noGenbump    map[types.Object]bool
	// ignores maps filename -> line -> analyzer names suppressed on
	// that line (provlint:ignore).
	ignores map[string]map[int][]string
}

const prefix = "provlint:"

// parseDirective splits one comment line into a provlint directive name
// and its argument string, reporting ok=false for ordinary comments.
func parseDirective(line string) (name, args string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "//"))
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	name, args, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(args), true
}

// groupDirectives yields every directive in a comment group.
func groupDirectives(cg *ast.CommentGroup, fn func(name, args string)) {
	if cg == nil {
		return
	}
	for _, c := range cg.List {
		if name, args, ok := parseDirective(c.Text); ok {
			fn(name, args)
		}
	}
}

// collectDirectives scans every file in the pass for provlint
// annotations and resolves them against the type information.
func collectDirectives(pass *analysis.Pass) *directives {
	d := &directives{
		lockRank:     make(map[types.Object]int),
		requires:     make(map[types.Object][]string),
		atomicExempt: make(map[types.Object]bool),
		typedFaults:  make(map[types.Object]bool),
		obsSetup:     make(map[types.Object]bool),
		noGenbump:    make(map[types.Object]bool),
		ignores:      make(map[string]map[int][]string),
	}
	for _, f := range pass.Files {
		// Suppression lines: any comment anywhere in the file.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := parseDirective(c.Text)
				if !ok || name != "ignore" {
					continue
				}
				analyzer, _, _ := strings.Cut(args, " ")
				if analyzer == "" {
					continue
				}
				posn := pass.Fset.Position(c.Pos())
				byLine := d.ignores[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					d.ignores[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line], analyzer)
			}
		}

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				obj := pass.TypesInfo.Defs[n.Name]
				if obj == nil {
					return true
				}
				groupDirectives(n.Doc, func(name, args string) {
					switch name {
					case "requires":
						if args != "" {
							d.requires[obj] = append(d.requires[obj], strings.Fields(args)...)
						}
					case "atomic-exempt":
						d.atomicExempt[obj] = true
					case "typed-faults":
						d.typedFaults[obj] = true
					case "obs-setup":
						d.obsSetup[obj] = true
					case "no-genbump":
						d.noGenbump[obj] = true
					}
				})
			case *ast.StructType:
				for _, field := range n.Fields.List {
					rank, ok := fieldRank(field)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							d.lockRank[obj] = rank
						}
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					return true
				}
				declRank, declOK := groupRank(n.Doc)
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					rank, ok := groupRank(vs.Doc)
					if !ok {
						rank, ok = groupRank(vs.Comment)
					}
					if !ok {
						rank, ok = declRank, declOK
					}
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							d.lockRank[obj] = rank
						}
					}
				}
			}
			return true
		})
	}
	return d
}

// fieldRank extracts a provlint:lock-order rank from a struct field's
// doc or trailing comment.
func fieldRank(field *ast.Field) (int, bool) {
	if r, ok := groupRank(field.Doc); ok {
		return r, ok
	}
	return groupRank(field.Comment)
}

func groupRank(cg *ast.CommentGroup) (rank int, ok bool) {
	groupDirectives(cg, func(name, args string) {
		if name != "lock-order" {
			return
		}
		if n, err := strconv.Atoi(strings.Fields(args + " x")[0]); err == nil {
			rank, ok = n, true
		}
	})
	return rank, ok
}

// suppressed reports whether the given analyzer's finding at pos is
// covered by a provlint:ignore on the same line or the line above.
func (d *directives) suppressed(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	posn := fset.Position(pos)
	byLine := d.ignores[posn.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, a := range byLine[line] {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}

// report emits a diagnostic unless a provlint:ignore suppresses it.
func (d *directives) report(pass *analysis.Pass, diag analysis.Diagnostic) {
	if d.suppressed(pass.Fset, pass.Analyzer.Name, diag.Pos) {
		return
	}
	pass.Report(diag)
}

// funcObj resolves the *types.Func a FuncDecl defines.
func funcObj(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	return pass.TypesInfo.Defs[fd.Name]
}

// lockBaseObj resolves the annotated object a lock expression refers
// to: for `r.mu.Lock()` the mu field, for `shipMu.Lock()` the package
// var, for `s.stripes[i].Lock()` the stripes field (index expressions
// strip to their base, so a striped lock array is one object).
func lockBaseObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return info.Uses[e.Sel]
		case *ast.Ident:
			return info.Uses[e]
		default:
			return nil
		}
	}
}
