package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxhttpPackages are the import-path segments whose packages carry
// the context obligation: the partition router's retry budgets and
// lease fences, the replica tailer's cancellation and the server's
// shutdown path propagate exclusively through request contexts, and a
// request the tenant registry ever makes must take its caller's.
var ctxhttpPackages = []string{"partition", "replica", "server", "tenant"}

// ctxhttpBanned are the context-free request constructors and
// one-shot helpers of net/http.
var ctxhttpBanned = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true, "NewRequest": true,
}

// CtxHTTP forbids context-free HTTP in internal/partition,
// internal/replica, internal/server and internal/tenant: no
// http.Get/Post/PostForm/Head/NewRequest and no (*http.Client).Get-
// style shorthands — only http.NewRequestWithContext, so every request
// inherits its caller's retry budget, lease fence and shutdown
// cancellation.
var CtxHTTP = &Analyzer{
	Name: "ctxhttp",
	Doc: "partition/replica/server/tenant code must build requests with " +
		"http.NewRequestWithContext; context-free constructors drop retry budgets and lease fences",
	Run: runCtxHTTP,
}

func runCtxHTTP(pass *Pass) error {
	if !ctxhttpApplies(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !ctxhttpBanned[sel.Sel.Name] {
				return true
			}
			switch obj := pass.TypesInfo.Uses[sel.Sel].(type) {
			case *types.Func:
				if obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
					return true
				}
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					// Only the client shorthands build requests; Header.Get
					// and friends are innocent accessors.
					if !isNamedType(recv.Type(), "net/http", "Client") {
						return true
					}
					pass.Reportf(call.Pos(),
						"(*http.Client).%s builds a context-free request; use http.NewRequestWithContext so retry budgets and lease fences propagate",
						obj.Name())
					return true
				}
				pass.Reportf(call.Pos(),
					"http.%s is context-free; use http.NewRequestWithContext so retry budgets and lease fences propagate",
					obj.Name())
			}
			return true
		})
	}
	return nil
}

// isNamedType reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// ctxhttpApplies matches both the real packages (repro/internal/...)
// and the analysistest fixtures (bare "partition" etc.).
func ctxhttpApplies(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, want := range ctxhttpPackages {
			if seg == want {
				return true
			}
		}
	}
	return false
}
