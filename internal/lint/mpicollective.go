package lint

import (
	"go/ast"
	"go/types"
)

// MPICollective flags collective operations inside branches conditioned
// on the caller's rank — the classic SPMD deadlock.
//
// The paper's Blue Gene target runs collectives on a dedicated network
// that assumes every rank reaches every collective in the same order;
// this runtime's collectives likewise rendezvous all ranks. A Bcast
// under `if c.Rank() == 0` therefore blocks rank 0 against peers that
// never entered the call. Rank-dependent *work* belongs in branches;
// rank-dependent *collective sequences* do not. Sites where symmetry is
// maintained across both arms can annotate with //egdlint:allow.
var MPICollective = &Analyzer{
	Name: "mpicollective",
	Doc:  "collective mpi calls must not sit inside branches conditioned on Rank()",
	Run:  runMPICollective,
}

func runMPICollective(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			rankVars := collectRankVars(pass, fn.Body)
			walkConditioned(pass, rankVars, fn.Body, false)
		}
	}
	return nil
}

// collectRankVars finds variables assigned from Rank() calls
// in the function, so `rank := c.Rank(); if rank == 0 { ... }` is
// recognised as well as the inline comparison.
func collectRankVars(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		asgn, ok := n.(*ast.AssignStmt)
		if !ok || len(asgn.Lhs) != len(asgn.Rhs) {
			return true
		}
		for i, rhs := range asgn.Rhs {
			if !isRankCall(pass, rhs) {
				continue
			}
			if id, ok := asgn.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					vars[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	})
	return vars
}

func isRankCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, method, ok := mpiMethod(pass.TypesInfo, call)
	return ok && recv == "Comm" && method == "Rank"
}

// mentionsRank reports whether the expression reads the rank, directly
// or through a variable previously assigned from Rank().
func mentionsRank(pass *Pass, rankVars map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isRankCall(pass, n) {
				found = true
			}
		case *ast.Ident:
			if rankVars[pass.TypesInfo.Uses[n]] {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkConditioned descends the statement tree tracking whether the
// current position is lexically inside a rank-conditioned branch, and
// reports any collective reached while it is.
func walkConditioned(pass *Pass, rankVars map[types.Object]bool, n ast.Node, conditioned bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.IfStmt:
		walkConditioned(pass, rankVars, n.Init, conditioned)
		inspectExpr(pass, rankVars, n.Cond, conditioned)
		branchCond := conditioned || mentionsRank(pass, rankVars, n.Cond)
		walkConditioned(pass, rankVars, n.Body, branchCond)
		walkConditioned(pass, rankVars, n.Else, branchCond)
	case *ast.SwitchStmt:
		walkConditioned(pass, rankVars, n.Init, conditioned)
		tagCond := n.Tag != nil && mentionsRank(pass, rankVars, n.Tag)
		if n.Tag != nil {
			inspectExpr(pass, rankVars, n.Tag, conditioned)
		}
		for _, stmt := range n.Body.List {
			cc := stmt.(*ast.CaseClause)
			caseCond := conditioned || tagCond
			for _, e := range cc.List {
				inspectExpr(pass, rankVars, e, conditioned)
				if mentionsRank(pass, rankVars, e) {
					caseCond = true
				}
			}
			for _, s := range cc.Body {
				walkConditioned(pass, rankVars, s, caseCond)
			}
		}
	case *ast.ForStmt:
		walkConditioned(pass, rankVars, n.Init, conditioned)
		loopCond := conditioned
		if n.Cond != nil {
			inspectExpr(pass, rankVars, n.Cond, conditioned)
			loopCond = loopCond || mentionsRank(pass, rankVars, n.Cond)
		}
		walkConditioned(pass, rankVars, n.Post, loopCond)
		walkConditioned(pass, rankVars, n.Body, loopCond)
	case *ast.BlockStmt:
		for _, s := range n.List {
			walkConditioned(pass, rankVars, s, conditioned)
		}
	case *ast.LabeledStmt:
		walkConditioned(pass, rankVars, n.Stmt, conditioned)
	case *ast.RangeStmt:
		inspectExpr(pass, rankVars, n.X, conditioned)
		walkConditioned(pass, rankVars, n.Body, conditioned)
	case *ast.SelectStmt:
		walkConditioned(pass, rankVars, n.Body, conditioned)
	case *ast.CommClause:
		for _, s := range n.Body {
			walkConditioned(pass, rankVars, s, conditioned)
		}
	case *ast.TypeSwitchStmt:
		walkConditioned(pass, rankVars, n.Body, conditioned)
	case *ast.CaseClause:
		for _, s := range n.Body {
			walkConditioned(pass, rankVars, s, conditioned)
		}
	case ast.Stmt:
		inspectStmt(pass, rankVars, n, conditioned)
	}
}

// inspectStmt scans a leaf statement (assignments, expressions, go,
// defer, return, declarations) for collective calls, including inside
// any function literals it contains: a closure defined under a rank
// branch usually runs there too.
func inspectStmt(pass *Pass, rankVars map[types.Object]bool, s ast.Stmt, conditioned bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		reportIfCollective(pass, n, conditioned)
		return true
	})
}

func inspectExpr(pass *Pass, rankVars map[types.Object]bool, e ast.Expr, conditioned bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		reportIfCollective(pass, n, conditioned)
		return true
	})
}

func reportIfCollective(pass *Pass, n ast.Node, conditioned bool) {
	if !conditioned {
		return
	}
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	recv, method, ok := mpiMethod(pass.TypesInfo, call)
	if ok && (recv == "Comm" || recv == "World") && collectives[method] {
		pass.Reportf(call.Pos(), "collective mpi.%s.%s inside a branch conditioned on Rank(); every rank must execute the same collective sequence", recv, method)
	}
}
