package analysis

import (
	"go/ast"
	"go/types"
)

// hotpathDirective marks a function whose body is on the per-object
// ingest path the benchmarks defend: core.Sharded dispatch, order.Rel,
// the frontier update, the append-only engine's arrival scans (the filter
// tier's linear and value-indexed scans and its plan, the verify tier,
// which is all of Baseline's), the window engine's arrival and expiry.
const hotpathDirective = "hotpath"

// HotPathAlloc enforces the allocation discipline on functions marked
// //paretomon:hotpath. Inside one:
//
//   - no map allocation (make(map...) or a map literal) — per-call map
//     garbage was the dominant cost the ingest overhaul removed;
//   - no append through a slice variable declared in the function —
//     growing a fresh local builds per-call garbage; appends into
//     receiver- or parameter-owned scratch are amortized and allowed;
//   - no fmt or reflect calls (each boxes and allocates);
//   - no encoding/json calls (reflection over the value, and garbage per
//     call) — the ingest shapes have a hand-written codec in
//     internal/wire;
//   - no sort.Slice / sort.SliceStable (a reflection swapper, a closure
//     and an interface box per call) — slices.SortFunc sorts in place
//     with none of the three;
//   - no time.Now (a vDSO call per object is still a call per object);
//   - no boxing of integers/floats into interfaces (assignment, call
//     argument, return or conversion) — every one is an allocation;
//   - no mutex acquisition — the hot path is single-writer by
//     construction; a lock here is either redundant or a new
//     serialization point.
//
// The check is local to the marked function: calls into cold helpers
// (table rebuilds, merge finalizers) are the escape hatch, made
// explicit by the function boundary.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "//paretomon:hotpath functions may not allocate maps, grow local " +
		"slices, call fmt/reflect/encoding/json/time.Now/sort.Slice, box scalars into interfaces, or take locks",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcDirectives(fd)[hotpathDirective] {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	locals := localSliceVars(info, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // closures run off-path (e.g. ForEach callbacks on cold rebuilds)
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "map literal allocates on the hot path")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, x, locals)
		case *ast.AssignStmt:
			checkHotAssign(pass, x)
		case *ast.ReturnStmt:
			checkHotReturn(pass, fd, x)
		}
		return true
	})
}

// localSliceVars collects slice-typed variables declared inside fd —
// the append targets that mean per-call garbage.
func localSliceVars(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok || v.Type() == nil {
			return true
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
			out[v] = true
		}
		return true
	})
	return out
}

func checkHotCall(pass *Pass, call *ast.CallExpr, locals map[*types.Var]bool) {
	info := pass.TypesInfo

	// Builtins: make(map...), append(local, ...).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch obj := info.Uses[id].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make":
				if len(call.Args) > 0 {
					if t := info.TypeOf(call.Args[0]); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(call.Pos(), "make(map) allocates on the hot path")
						}
					}
				}
			case "append":
				if len(call.Args) > 0 {
					if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if v, ok := info.Uses[base].(*types.Var); ok && locals[v] {
							pass.Reportf(call.Pos(),
								"append grows function-local slice %s: per-call garbage on the hot path; reuse receiver- or caller-owned scratch",
								base.Name)
						}
					}
				}
			}
			checkBoxedArgs(pass, call)
			return
		}
	}

	// Package functions and methods.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt", "reflect":
				pass.Reportf(call.Pos(), "%s.%s call on the hot path: boxes and allocates", fn.Pkg().Name(), fn.Name())
				return
			case "encoding/json":
				pass.Reportf(call.Pos(), "json.%s call on the hot path: reflects and allocates; use internal/wire", fn.Name())
				return
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(call.Pos(), "time.Now on the hot path: a clock call per object")
					return
				}
			case "sort":
				if fn.Name() == "Slice" || fn.Name() == "SliceStable" {
					pass.Reportf(call.Pos(), "sort.%s on the hot path: reflection swapper, closure and interface box per call; use slices.SortFunc", fn.Name())
					return
				}
			}
		}
		if _, method, isMu := isMutexOp(info, call); isMu && (method == "Lock" || method == "RLock" || method == "TryLock" || method == "TryRLock") {
			pass.Reportf(call.Pos(), "mutex %s on the hot path: the ingest path is single-writer by construction", method)
			return
		}
	}
	checkBoxedArgs(pass, call)
}

// checkBoxedArgs flags scalar arguments passed to interface-typed
// parameters (including variadic ...interface{}).
func checkBoxedArgs(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	sig, ok := typeOfFun(info, call)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			sl, ok := sig.Params().At(np - 1).Type().(*types.Slice)
			if !ok {
				continue // append([]byte, s...): the variadic parameter is the string itself
			}
			pt = sl.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, arg, pt, "argument")
	}
}

func typeOfFun(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// checkHotAssign flags scalar-to-interface assignments.
func checkHotAssign(pass *Pass, st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		lt := pass.TypesInfo.TypeOf(lhs)
		if lt == nil {
			continue
		}
		reportBoxing(pass, st.Rhs[i], lt, "assignment")
	}
}

// checkHotReturn flags scalar returns through interface-typed results.
func checkHotReturn(pass *Pass, fd *ast.FuncDecl, st *ast.ReturnStmt) {
	if fd.Type.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, f := range fd.Type.Results.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(st.Results) != len(resultTypes) {
		return
	}
	for i, r := range st.Results {
		reportBoxing(pass, r, resultTypes[i], "return")
	}
}

// reportBoxing reports when a numeric-scalar-typed expression is
// converted to an interface target type.
func reportBoxing(pass *Pass, expr ast.Expr, target types.Type, context string) {
	if target == nil {
		return
	}
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return
	}
	et := pass.TypesInfo.TypeOf(expr)
	if et == nil {
		return
	}
	b, ok := et.Underlying().(*types.Basic)
	if !ok {
		return
	}
	if b.Info()&(types.IsInteger|types.IsFloat) == 0 {
		return
	}
	pass.Reportf(expr.Pos(), "%s boxes %s into an interface: one allocation per call on the hot path",
		context, et.String())
}
