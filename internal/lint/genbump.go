package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// GenBump pins the cache-coherence ordering the PR 7 read path depends
// on: in package store, any function that mutates the backend through
// the Backend interface (Put/PutBatch/Delete/DeleteBatch) must bump
// the store generation in the same commit section — a call to
// `.gen.Add(...)` anywhere in the function, deferred bumps included —
// or carry an explicit provlint:no-genbump annotation whose comment
// justifies where the bump lives instead. A missed bump lets the
// query result cache and the router result cache serve stale answers
// as fresh. (The block cache is stamped by Store.deleteChunk's delete
// count, not the generation.)
var GenBump = &analysis.Analyzer{
	Name: "genbump",
	Doc: "check that store functions mutating the Backend also bump the store generation " +
		"(or carry provlint:no-genbump)",
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
				// A generation bump: any `<...>.gen.Add(...)` call.
				if sel.Sel.Name == "Add" {
					if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "gen" {
						bumped = true
					}
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
						"%s calls Backend.%s without bumping the store generation: cached query results would "+
							"survive the mutation — add a gen.Add in the same commit section, or annotate the "+
							"function provlint:no-genbump with a justification",
						fd.Name.Name, mutationName),
				})
			}
		}
	}
	return nil, nil
}
