// Package journalorder enforces write-ahead discipline as a dataflow
// property: in any function that both journals an op and applies it to
// live state, the journal append must happen first on every path. A
// mutator that applies before (or without finishing) its append can ack
// a mutation that a crash then silently loses — the exact contract the
// snapshot/journal recovery design (PR 2) and host-side journaling
// (PR 7) depend on.
//
// Journal appends are calls to Append on a *Journal (or to a same-
// package helper that transitively appends, like DB.logOp or
// routerStore.journalAndApply — the one write-ahead helper ShardedDB and
// RemoteDB reach as a promoted method of their embedded base, which the
// analyzer follows like any other call). State applies are the framework
// and router mutators (InsertObject, SetEdgeWeight, ApplyOp, HostApply, …)
// or helpers that transitively apply. Functions that apply WITHOUT any
// append — journal replay, snapshot load — are exempt by construction:
// the check only fires where both kinds of call are present.
package journalorder

import (
	"go/ast"
	"go/types"

	"road/internal/analysis"
)

// Analyzer is the journalorder check.
var Analyzer = &analysis.Analyzer{
	Name: "journalorder",
	Doc: "in mutator bodies the journal Append must dominate the state apply " +
		"(write-ahead: an op is durable before it is applied or acked)",
	Run: run,
}

// applyMethods are the state-mutating calls whose receiver holds live
// query state: the core framework's mutators and the shard-layer apply
// entry points.
var applyMethods = map[string]bool{
	"InsertObject":     true,
	"DeleteObject":     true,
	"UpdateObjectAttr": true,
	"SetEdgeWeight":    true,
	"AddEdge":          true,
	"DeleteEdge":       true,
	"RestoreEdge":      true,
	"ApplyOp":          true,
	"HostApply":        true,
	"applyLocal":       true,
}

type summary struct {
	appends bool
	applies bool
	calls   map[*types.Func]bool
}

func run(pass *analysis.Pass) {
	sums := map[*types.Func]*summary{}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			decls = append(decls, fd)
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				sums[obj] = summarize(pass, fd)
			}
		}
	}
	// Propagate appends/applies through same-package calls to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			for callee := range s.calls {
				if cs, ok := sums[callee]; ok {
					if cs.appends && !s.appends {
						s.appends = true
						changed = true
					}
					if cs.applies && !s.applies {
						s.applies = true
						changed = true
					}
				}
			}
		}
	}
	for _, fd := range decls {
		checkOrder(pass, fd, sums)
	}
}

func summarize(pass *analysis.Pass, fd *ast.FuncDecl) *summary {
	s := &summary{calls: map[*types.Func]bool{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch classify(pass, call, nil) {
		case kindAppend:
			s.appends = true
		case kindApply:
			s.applies = true
		default:
			if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() == pass.Pkg {
				s.calls[callee] = true
			}
		}
		return true
	})
	return s
}

type callKind int

const (
	kindNone callKind = iota
	kindAppend
	kindApply
	kindBoth
)

// classify identifies call as a journal append, a state apply, or (via
// sums, when non-nil) a same-package helper that transitively does one.
func classify(pass *analysis.Pass, call *ast.CallExpr, sums map[*types.Func]*summary) callKind {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Append" && receiverIsJournal(pass, sel) {
			return kindAppend
		}
		if applyMethods[sel.Sel.Name] {
			return kindApply
		}
	} else if id, ok := call.Fun.(*ast.Ident); ok && applyMethods[id.Name] {
		return kindApply
	}
	if sums != nil {
		if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() == pass.Pkg {
			if s, ok := sums[callee]; ok {
				switch {
				case s.appends && s.applies:
					return kindBoth
				case s.appends:
					return kindAppend
				case s.applies:
					return kindApply
				}
			}
		}
	}
	return kindNone
}

// receiverIsJournal reports whether sel's receiver type is named
// Journal (any package — the fixture and snapshot package both match).
func receiverIsJournal(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Journal"
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// checkOrder walks a function that both appends and applies, verifying
// every apply is dominated by an append.
func checkOrder(pass *analysis.Pass, fd *ast.FuncDecl, sums map[*types.Func]*summary) {
	hasAppend := false
	hasApply := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch classify(pass, call, sums) {
			case kindAppend:
				hasAppend = true
			case kindApply:
				hasApply = true
			case kindBoth:
				hasAppend = true
				hasApply = true
			}
		}
		return true
	})
	if !hasAppend || !hasApply {
		return // not a journaled mutator (replay and load apply without appending)
	}
	w := &orderWalker{pass: pass, sums: sums}
	w.stmts(fd.Body.List, false)
}

// orderWalker threads the "definitely appended" fact through a body.
type orderWalker struct {
	pass *analysis.Pass
	sums map[*types.Func]*summary
}

// exprEvents processes calls inside one statement in source order,
// returning the updated appended fact.
func (w *orderWalker) exprEvents(n ast.Node, appended bool) bool {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			w.stmts(x.Body.List, false)
			return false
		case *ast.CallExpr:
			switch classify(w.pass, x, w.sums) {
			case kindAppend, kindBoth:
				// kindBoth helpers (journalAndApply) order internally;
				// their own bodies are checked separately.
				appended = true
			case kindApply:
				if !appended {
					w.pass.Reportf(x.Pos(), "state apply before journal append: write-ahead discipline requires the op be durable before it mutates live state (see internal/snapshot)")
				}
			}
		}
		return true
	})
	return appended
}

func (w *orderWalker) stmts(stmts []ast.Stmt, appended bool) bool {
	for _, st := range stmts {
		appended = w.stmt(st, appended)
	}
	return appended
}

func (w *orderWalker) stmt(st ast.Stmt, appended bool) bool {
	switch s := st.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, appended)
	case *ast.IfStmt:
		if s.Init != nil {
			appended = w.exprEvents(s.Init, appended)
		}
		appended = w.exprEvents(s.Cond, appended)
		thenApp := w.stmts(s.Body.List, appended)
		elseApp := appended
		if s.Else != nil {
			elseApp = w.stmt(s.Else, appended)
		}
		// Appended holds after the if only when both arms guarantee it
		// (an arm that returns guarantees it vacuously).
		if terminal(s.Body.List) {
			return elseApp
		}
		if s.Else != nil && stmtTerminal(s.Else) {
			return thenApp
		}
		return thenApp && elseApp
	case *ast.ForStmt:
		if s.Init != nil {
			appended = w.exprEvents(s.Init, appended)
		}
		// A loop body may run zero times: appends inside do not carry out.
		w.stmts(s.Body.List, appended)
		return appended
	case *ast.RangeStmt:
		w.stmts(s.Body.List, appended)
		return appended
	case *ast.SwitchStmt:
		return w.branches(s.Body.List, appended)
	case *ast.TypeSwitchStmt:
		return w.branches(s.Body.List, appended)
	case *ast.SelectStmt:
		return w.branches(s.Body.List, appended)
	case *ast.DeferStmt:
		// Deferred work runs at return, after everything else: a deferred
		// append cannot precede any apply in the body.
		w.exprEvents(s.Call, false)
		return appended
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, appended)
	default:
		if st != nil {
			return w.exprEvents(st, appended)
		}
		return appended
	}
}

func (w *orderWalker) branches(clauses []ast.Stmt, appended bool) bool {
	all := true
	for _, cl := range clauses {
		var body []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		if !w.stmts(body, appended) && !terminal(body) {
			all = false
		}
	}
	return appended || (all && len(clauses) > 0)
}

func terminal(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminal(stmts[len(stmts)-1])
}

func stmtTerminal(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		return terminal(s.List)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
