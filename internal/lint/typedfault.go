package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// TypedFault enforces the wire error contract on functions annotated
// provlint:typed-faults — the PReP and registry action methods and
// shard.Router public methods, whose errors must survive the soap round
// trip as errors.Is-matchable values (shard.ErrBadCursor →
// client.bad-request is the canonical example). Inside an annotated
// function, a returned error may be a registered sentinel, a typed
// fault value, or a fmt.Errorf that wraps one with %w — never a bare
// errors.New and never a fmt.Errorf without %w, both of which strand
// the caller with string matching.
var TypedFault = &analysis.Analyzer{
	Name: "typedfault",
	Doc: "check that provlint:typed-faults functions only return registered typed faults " +
		"or errors wrapping one with %w",
	Run: runTypedFault,
}

func runTypedFault(pass *analysis.Pass) (interface{}, error) {
	d := collectDirectives(pass)
	if len(d.typedFaults) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !d.typedFaults[funcObj(pass, fd)] {
				continue
			}
			checkTypedFaultFunc(pass, d, fd)
		}
	}
	return nil, nil
}

func checkTypedFaultFunc(pass *analysis.Pass, d *directives, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not the function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			checkFaultExpr(pass, d, res)
		}
		return true
	})
}

// checkFaultExpr flags error expressions that mint a fresh untyped
// error at the return site.
func checkFaultExpr(pass *analysis.Pass, d *directives, expr ast.Expr) {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil || !isErrorType(t) {
		return
	}
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := typeutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		d.report(pass, analysis.Diagnostic{
			Pos: expr.Pos(),
			Message: "untyped fault: errors.New at the return site cannot be matched with errors.Is across the wire; " +
				"return a registered sentinel or wrap one with %w",
		})
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		if len(call.Args) == 0 || !formatWraps(pass, call.Args[0]) {
			d.report(pass, analysis.Diagnostic{
				Pos: expr.Pos(),
				Message: "untyped fault: fmt.Errorf without %w breaks errors.Is matching across the wire; " +
					"wrap a registered sentinel with %w",
			})
		}
	}
}

// formatWraps reports whether a fmt.Errorf format argument is a
// constant string containing %w.
func formatWraps(pass *analysis.Pass, arg ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		// Non-constant format: assume the caller knows what it is doing.
		return true
	}
	return strings.Contains(constant.StringVal(tv.Value), "%w")
}

// errorType is the universe error interface. Concrete error
// implementations (e.g. *soap.Fault) are typed by definition; only
// the two untyped constructors below can hide an unmatchable error.
var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(types.Unalias(t), errorType)
}
