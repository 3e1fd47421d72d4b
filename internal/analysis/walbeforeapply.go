package analysis

import (
	"go/ast"
	"go/types"
)

// walMethodName is the append-before-apply boundary: a type owning a
// method of this name is treated as WAL-disciplined (the root Monitor).
const walMethodName = "appendWAL"

// nowalDirective opts a read path (or a deliberately non-logged
// mutation, like Subscribe's fan-out registration) out of the check.
const nowalDirective = "nowal"

// tentativeDirective, written //paretomon:tentative <field>, declares
// that the method's writes to that one receiver field are tentative:
// its callers take them back when the append fails (the Monitor's name
// claims). Those writes, assignments to the field and calls of the
// field's own methods alike, are not state writes; every other write in
// the method still is.
const tentativeDirective = "tentative"

// WALBeforeApply enforces docs/PERSISTENCE.md's core invariant: on any
// type that owns an appendWAL method, every exported method that
// touches engine or monitor state — assigning through the receiver,
// calling a method on a receiver field, or calling an unexported
// helper that does — must call appendWAL first on every path.
// Mutex lock/unlock traffic is exempt; calls to other methods that are
// themselves WAL-disciplined (Add from ImportObjects, mutate from the
// lifecycle calls and ImportUsers) are exempt; read paths opt out
// explicitly with a //paretomon:nowal directive so the exemption is
// visible in review, and a method's tentative writes to one named field
// with //paretomon:tentative <field>.
var WALBeforeApply = &Analyzer{
	Name: "walbeforeapply",
	Doc: "exported methods of WAL-owning types must append to the WAL " +
		"before any engine or state write (//paretomon:nowal opts read paths out)",
	Run: runWALBeforeApply,
}

// walEffect is one state-touching action inside a method body, in
// source order.
type walEffect struct {
	pos  ast.Node
	kind string // "assignment to receiver state", "call on receiver field", ...
	// callee is set for calls to sibling methods of the same type; the
	// effect only counts if the callee turns out to be an unprotected
	// writer.
	callee string
}

// walMethod is the per-method summary the fixpoint runs over.
type walMethod struct {
	decl    *ast.FuncDecl
	effects []walEffect
	// writer: the method itself touches state (directly, before
	// resolving sibling calls).
	directWriter bool
	// protected: every state effect is dominated by an appendWAL call.
	// Optimistically true; the fixpoint demotes.
	protected bool
	nowal     bool
	// tentative is the field named by //paretomon:tentative, or "".
	tentative string
}

func runWALBeforeApply(pass *Pass) error {
	// Group methods by receiver type name and find WAL-owning types.
	byType := make(map[string]map[string]*walMethod)
	for _, file := range pass.Files {
		if len(file.Decls) > 0 && pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			tname := receiverTypeName(fd)
			if tname == "" {
				continue
			}
			if byType[tname] == nil {
				byType[tname] = make(map[string]*walMethod)
			}
			byType[tname][fd.Name.Name] = &walMethod{
				decl:      fd,
				protected: true,
				nowal:     funcDirectives(fd)[nowalDirective],
				tentative: directiveArg(fd, tentativeDirective),
			}
		}
	}

	for tname, methods := range byType {
		if methods[walMethodName] == nil {
			continue // not a WAL-owning type
		}
		walCheckType(pass, tname, methods)
	}
	return nil
}

// walCheckType summarizes, classifies and reports one WAL-owning type.
func walCheckType(pass *Pass, tname string, methods map[string]*walMethod) {
	for _, m := range methods {
		m.effects = walSummarize(pass, m.decl, m.tentative)
		for _, e := range m.effects {
			if e.callee == "" {
				m.directWriter = true
			}
		}
	}

	// writer: least fixpoint over the sibling-call graph.
	writer := func(m *walMethod) bool { return m.directWriter }
	for changed := true; changed; {
		changed = false
		for _, m := range methods {
			if m.directWriter {
				continue
			}
			for _, e := range m.effects {
				if callee := methods[e.callee]; callee != nil && writer(callee) {
					m.directWriter = true
					changed = true
					break
				}
			}
		}
	}

	// protected: greatest fixpoint. appendWAL itself is the boundary
	// and stays protected by definition.
	for changed := true; changed; {
		changed = false
		for name, m := range methods {
			if name == walMethodName || !m.protected {
				continue
			}
			if walFirstViolation(methods, m) != nil {
				m.protected = false
				changed = true
			}
		}
	}

	for name, m := range methods {
		if name == walMethodName || !ast.IsExported(name) || m.protected {
			continue
		}
		if m.nowal {
			continue
		}
		v := walFirstViolation(methods, m)
		if v == nil {
			continue // demoted only through an unprotected callee chain
		}
		what := v.kind
		if v.callee != "" {
			what = "call to state-writing method " + v.callee
		}
		pass.Reportf(v.pos.Pos(),
			"%s.%s: %s before appendWAL; WAL-append must precede every state write (or mark the method //paretomon:nowal if it is a read path)",
			tname, name, what)
	}
}

// walFirstViolation walks m's body in statement order, tracking on
// every path whether appendWAL has definitely been called, and returns
// the first state effect reached while it has not (nil if none).
func walFirstViolation(methods map[string]*walMethod, m *walMethod) *walEffect {
	effectAt := make(map[ast.Node]*walEffect, len(m.effects))
	for i := range m.effects {
		effectAt[m.effects[i].pos] = &m.effects[i]
	}
	w := &walWalker{methods: methods, effectAt: effectAt}
	w.stmts(m.decl.Body.List, false)
	return w.violation
}

// walWalker is the must-analysis over a method body: walDone is true
// only when every path to the current point has called appendWAL.
type walWalker struct {
	methods   map[string]*walMethod
	effectAt  map[ast.Node]*walEffect
	violation *walEffect
}

// stmts walks a statement list and reports whether the list ends with
// appendWAL definitely called (false as well when the list always
// terminates — the caller never continues past it then anyway).
func (w *walWalker) stmts(list []ast.Stmt, walDone bool) bool {
	for _, s := range list {
		walDone = w.stmt(s, walDone)
	}
	return walDone
}

func (w *walWalker) stmt(s ast.Stmt, walDone bool) bool {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(st.List, walDone)
	case *ast.IfStmt:
		if st.Init != nil {
			walDone = w.stmt(st.Init, walDone)
		}
		walDone = w.expr(st.Cond, walDone)
		thenDone := w.stmts(st.Body.List, walDone)
		thenTerm := terminates(st.Body.List)
		elseDone, elseTerm := walDone, false
		if st.Else != nil {
			elseDone = w.stmt(st.Else, walDone)
			elseTerm = terminatesStmt(st.Else)
		}
		// Merge: a branch that always returns does not constrain the
		// fall-through state.
		switch {
		case thenTerm && elseTerm:
			return true // unreachable afterwards; anything goes
		case thenTerm:
			return elseDone
		case elseTerm:
			return thenDone
		default:
			return thenDone && elseDone
		}
	case *ast.ForStmt:
		if st.Init != nil {
			walDone = w.stmt(st.Init, walDone)
		}
		if st.Cond != nil {
			walDone = w.expr(st.Cond, walDone)
		}
		w.stmts(st.Body.List, walDone)
		if st.Post != nil {
			w.stmt(st.Post, walDone)
		}
		return walDone // the body may run zero times
	case *ast.RangeStmt:
		walDone = w.expr(st.X, walDone)
		w.stmts(st.Body.List, walDone)
		return walDone
	case *ast.SwitchStmt:
		if st.Init != nil {
			walDone = w.stmt(st.Init, walDone)
		}
		if st.Tag != nil {
			walDone = w.expr(st.Tag, walDone)
		}
		return w.caseClauses(st.Body, walDone)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			walDone = w.stmt(st.Init, walDone)
		}
		w.stmt(st.Assign, walDone)
		return w.caseClauses(st.Body, walDone)
	case *ast.SelectStmt:
		return w.caseClauses(st.Body, walDone)
	case *ast.DeferStmt:
		// A deferred call runs at return: it cannot order a state write
		// before appendWAL, and deferred unlocks/cleanup are routine.
		// Still surface deferred state writes when WAL never happens —
		// walk it with the current state.
		return w.expr(st.Call, walDone)
	case *ast.GoStmt:
		w.expr(st.Call, walDone)
		return walDone
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			walDone = w.expr(r, walDone)
		}
		return walDone
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			walDone = w.expr(r, walDone)
		}
		for _, l := range st.Lhs {
			walDone = w.exprEffectOnly(l, walDone)
		}
		w.checkEffect(st, walDone)
		return walDone
	case *ast.IncDecStmt:
		w.checkEffect(st, walDone)
		return w.exprEffectOnly(st.X, walDone)
	case *ast.ExprStmt:
		return w.expr(st.X, walDone)
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt, *ast.SendStmt:
		if ls, ok := s.(*ast.LabeledStmt); ok {
			return w.stmt(ls.Stmt, walDone)
		}
		if ds, ok := s.(*ast.DeclStmt); ok {
			ast.Inspect(ds, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					walDone = w.expr(e, walDone)
					return false
				}
				return true
			})
		}
		return walDone
	default:
		return walDone
	}
}

func (w *walWalker) caseClauses(body *ast.BlockStmt, walDone bool) bool {
	allDone, any := true, false
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				walDone = w.expr(e, walDone)
			}
			list = cc.Body
		case *ast.CommClause:
			list = cc.Body
		}
		done := w.stmts(list, walDone)
		if !terminates(list) {
			allDone = allDone && done
			any = true
		}
	}
	if !any {
		return true // every case returns
	}
	// Without a default clause the switch may fall through untouched.
	return walDone || (allDone && hasDefaultClause(body))
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// expr walks an expression in evaluation order, flagging effects and
// recognizing appendWAL calls (which flip walDone to true).
func (w *walWalker) expr(e ast.Expr, walDone bool) bool {
	if e == nil {
		return walDone
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == walMethodName {
			// Arguments evaluate before the call.
			for _, a := range call.Args {
				walDone = w.expr(a, walDone)
			}
			walDone = true
			return false
		}
		w.checkEffect(call, walDone)
		return true
	})
	return walDone
}

// exprEffectOnly flags effects in an lvalue without treating it as a
// call site.
func (w *walWalker) exprEffectOnly(e ast.Expr, walDone bool) bool {
	return w.expr(e, walDone)
}

// checkEffect records the first effect reached while WAL-append has
// not definitely happened.
func (w *walWalker) checkEffect(n ast.Node, walDone bool) {
	if walDone || w.violation != nil {
		return
	}
	eff, ok := w.effectAt[n]
	if !ok {
		return
	}
	if eff.callee != "" {
		callee := w.methods[eff.callee]
		if callee == nil || !callee.directWriter || callee.protected {
			return // pure helper, or itself WAL-disciplined
		}
	}
	w.violation = eff
}

// walCallMayMutate reports whether a value-position call through a
// receiver field could still be a mutation: it returns nothing, or one
// of its results is an error (storage appends, engine applies). Pure
// data lookups return plain values and no error.
func walCallMayMutate(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return true
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	res := sig.Results()
	if res.Len() == 0 {
		return true
	}
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// terminates reports whether a statement list always leaves the
// function (return or panic) when entered.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return terminatesStmt(list[len(list)-1])
}

func terminatesStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(st.List)
	case *ast.IfStmt:
		return st.Else != nil && terminates(st.Body.List) && terminatesStmt(st.Else)
	}
	return false
}

// walSummarize lists m's state effects in source order: assignments
// through the receiver, calls on receiver fields (mutex ops exempt),
// and calls to sibling methods (resolved by the fixpoint later).
// Assignments to the receiver field named tentative (if any), and calls
// of its methods, are left out: see tentativeDirective.
//
// A call through a receiver field counts as an effect only when it
// plausibly mutates: its results are discarded (statement position —
// m.subs.publish, m.follower.cancel), it returns nothing, or it
// returns an error. A value-position call whose results carry no
// error (m.schema.attrIndex, profile CanAdd/HasAsserted probes) is a
// validation read by project convention — exactly the lookups the
// append-before-apply pattern performs before logging.
func walSummarize(pass *Pass, fd *ast.FuncDecl, tentative string) []walEffect {
	recv := receiverObject(pass.TypesInfo, fd)
	if recv == nil {
		return nil
	}
	var tentField types.Object // nil: no directive, or no such field
	if tentative != "" {
		tentField, _, _ = types.LookupFieldOrMethod(recv.Type(), true, pass.Pkg, tentative)
	}
	stmtPos := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if c, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				stmtPos[c] = true
			}
		case *ast.DeferStmt:
			stmtPos[st.Call] = true
		case *ast.GoStmt:
			stmtPos[st.Call] = true
		}
		return true
	})
	var out []walEffect
	add := func(pos ast.Node, kind, callee string) {
		out = append(out, walEffect{pos: pos, kind: kind, callee: callee})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, l := range st.Lhs {
				if isUseOf(pass.TypesInfo, l, recv) && !writesField(pass.TypesInfo, l, tentField) {
					add(st, "assignment to receiver state", "")
					break
				}
			}
		case *ast.IncDecStmt:
			if isUseOf(pass.TypesInfo, st.X, recv) && !writesField(pass.TypesInfo, st.X, tentField) {
				add(st, "assignment to receiver state", "")
			}
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, _, isMu := isMutexOp(pass.TypesInfo, st); isMu {
				return true
			}
			if sel.Sel.Name == walMethodName {
				return true
			}
			// m.Foo(...): sibling method call, resolved by the fixpoint.
			if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				add(st, "call to receiver method "+sel.Sel.Name, sel.Sel.Name)
				return true
			}
			// m.field.Foo(...), m.field[i].Foo(...): direct state effect
			// unless it is a value-position, error-free read, or the
			// field is the tentative one.
			if isUseOf(pass.TypesInfo, sel.X, recv) && !writesField(pass.TypesInfo, sel.X, tentField) {
				if stmtPos[st] || walCallMayMutate(pass.TypesInfo, st) {
					add(st, "call through receiver field ("+types.ExprString(sel)+")", "")
				}
			}
		}
		return true
	})
	return out
}

// writesField reports whether the lvalue l, after unwrapping indexing,
// derefs and parens, selects field (m.names[k] writes names); false for
// a nil field.
func writesField(info *types.Info, l ast.Expr, field types.Object) bool {
	if field == nil {
		return false
	}
	for {
		switch x := l.(type) {
		case *ast.IndexExpr:
			l = x.X
		case *ast.StarExpr:
			l = x.X
		case *ast.ParenExpr:
			l = x.X
		case *ast.SelectorExpr:
			return info.Uses[x.Sel] == field
		default:
			return false
		}
	}
}
