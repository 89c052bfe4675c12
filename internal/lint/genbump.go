package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// GenBump pins the cache-coherence ordering the router's result cache
// depends on: in package store, any function that mutates the backend
// through the Backend interface (Put/PutBatch/Delete/DeleteBatch) must
// advance the store's stamps in the same commit section — a call to
// Store's one stamp-advance method, advance, anywhere in the function,
// deferred calls included — or carry an explicit provlint:no-genbump
// annotation whose comment justifies where the advance lives instead.
// A bare `.gen.Add(...)` does not count: it moves the global counter
// but not the per-session stamps, which session-scoped answers are
// keyed on. A missed advance lets the router result cache serve stale
// answers as fresh.
var GenBump = &analysis.Analyzer{
	Name: "genbump",
	Doc: "check that store functions mutating the Backend also advance the store's stamps " +
		"through Store.advance (or carry provlint:no-genbump)",
	Run: runGenBump,
}

// backendMutators are the Backend interface's mutating methods.
var backendMutators = map[string]bool{
	"Put":         true,
	"PutBatch":    true,
	"Delete":      true,
	"DeleteBatch": true,
}

func runGenBump(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() != "store" {
		return nil, nil
	}
	backendObj := pass.Pkg.Scope().Lookup("Backend")
	if backendObj == nil {
		return nil, nil
	}
	backendType := backendObj.Type()
	if _, ok := backendType.Underlying().(*types.Interface); !ok {
		return nil, nil
	}
	// advance is the one call that counts as advancing the stamps: the
	// method of that name on the package's Store type.
	var advance types.Object
	if st := pass.Pkg.Scope().Lookup("Store"); st != nil {
		advance, _, _ = types.LookupFieldOrMethod(types.NewPointer(st.Type()), true, pass.Pkg, "advance")
	}
	d := collectDirectives(pass)

	for _, f := range pass.Files {
		// Tests drive backends directly to pin the Backend contract
		// itself; the generation/caching contract they would need to
		// honour belongs to the Store wrapper, not to them.
		if strings.HasSuffix(pass.Fset.Position(f.FileStart).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var mutation *ast.CallExpr
			var mutationName string
			bumped := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				// A stamp advance: a call of Store.advance.
				if advance != nil && pass.TypesInfo.Uses[sel.Sel] == advance {
					bumped = true
				}
				// A backend mutation: Put/PutBatch/Delete/DeleteBatch
				// dispatched through the Backend interface.
				if backendMutators[sel.Sel.Name] {
					if recvT := pass.TypesInfo.TypeOf(sel.X); recvT != nil &&
						types.Identical(types.Unalias(recvT), backendType) {
						if mutation == nil {
							mutation = call
							mutationName = sel.Sel.Name
						}
					}
				}
				return true
			})
			if mutation != nil && !bumped && !d.noGenbump[funcObj(pass, fd)] {
				d.report(pass, analysis.Diagnostic{
					Pos: mutation.Pos(),
					Message: fmt.Sprintf(
						"%s calls Backend.%s without advancing the store's stamps: cached query results would "+
							"survive the mutation — call s.advance in the same commit section, or annotate the "+
							"function provlint:no-genbump with a justification",
						fd.Name.Name, mutationName),
				})
			}
		}
	}
	return nil, nil
}
