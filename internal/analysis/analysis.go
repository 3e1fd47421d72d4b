package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer is one named, self-contained check. Run inspects a single
// type-checked package through its Pass and reports findings; it must
// not retain the Pass after returning.
type Analyzer struct {
	// Name is the analyzer's command-line and diagnostic-prefix name.
	Name string
	// Doc is the one-paragraph contract shown by paretolint -help.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver owns ordering and
	// de-duplication.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position in the Pass's FileSet and a
// message. The driver fills Analyzer when collecting.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// InTestFile reports whether pos falls in a _test.go file. The
// analyzers enforce production invariants; test files assert against
// sentinels directly and spin adversarial goroutines on purpose, so
// every analyzer skips them.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f == nil || strings.HasSuffix(filepath.Base(f.Name()), "_test.go")
}

// directivePrefix introduces the project's analyzer control comments:
// //paretomon:hotpath, //paretomon:nowal and //paretomon:tentative.
const directivePrefix = "//paretomon:"

// funcDirectives collects the paretomon directives attached to a
// function declaration's doc comment, e.g. {"hotpath": true}.
func funcDirectives(fd *ast.FuncDecl) map[string]bool {
	if fd.Doc == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, directivePrefix) {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(text, directivePrefix), " ")
		if name = strings.TrimSpace(name); name != "" {
			if out == nil {
				out = make(map[string]bool)
			}
			out[name] = true
		}
	}
	return out
}

// directiveArg returns the first word after the paretomon directive
// name in a function declaration's doc comment ("names" for
// //paretomon:tentative names — ...), or "" when the directive is absent
// or bare.
func directiveArg(fd *ast.FuncDecl, name string) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), directivePrefix+name+" ")
		if !ok {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			return f[0]
		}
	}
	return ""
}

// isSyncLockerType reports whether t (after pointer indirection) is
// sync.Mutex or sync.RWMutex.
func isSyncLockerType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// mutexMethodNames are the sync.Mutex / sync.RWMutex methods that
// acquire or release the lock.
var mutexMethodNames = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

// isMutexOp reports whether call invokes a lock/unlock method on a
// sync.Mutex or sync.RWMutex value, returning the receiver expression
// and method name when it does.
func isMutexOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || !mutexMethodNames[sel.Sel.Name] {
		return nil, "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !isSyncLockerType(t) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// receiverObject resolves a method declaration's receiver variable, or
// nil for functions and anonymous receivers.
func receiverObject(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	obj, ok := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	if !ok {
		return nil
	}
	return obj
}

// rootIdentOf walks a selector/index/star/paren chain to its base
// identifier: m.eng.Process -> m, (m.objects[i]).name -> m.
func rootIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isUseOf reports whether e is (after unwrapping selectors, indexing,
// derefs and parens) rooted at the given object.
func isUseOf(info *types.Info, e ast.Expr, obj *types.Var) bool {
	id := rootIdentOf(e)
	return id != nil && obj != nil && info.Uses[id] == obj
}

// receiverTypeName returns the receiver's named type name for a method
// declaration ("Monitor" for func (m *Monitor) ...), or "".
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver: SPSC[T]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
