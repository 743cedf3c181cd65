package lint

import (
	"go/ast"
)

// MPIErrCheck flags discarded results of mpi communication calls.
//
// Every Comm/World operation reports rank failure through its
// error result — RankFailedError once a peer has failed, ErrRecvTimeout
// from a stalled peer. Discarding one silently turns a detectable failure into a hang or a corrupted
// trajectory, so the result must be consumed: checked, returned, or
// suppressed with an explicit //egdlint:allow mpierrcheck directive at
// a site that can justify it.
var MPIErrCheck = &Analyzer{
	Name: "mpierrcheck",
	Doc:  "mpi Comm/World results must not be discarded: the typed errors carry the fault-tolerance signal",
	Run:  runMPIErrCheck,
}

func runMPIErrCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if recv, method, ok := errReturningCall(pass, n.X); ok {
					pass.Reportf(n.Pos(), "result of mpi.%s.%s discarded; its error carries the fault-tolerance signal", recv, method)
				}
			case *ast.GoStmt:
				if recv, method, ok := errReturningCall(pass, n.Call); ok {
					pass.Reportf(n.Pos(), "go statement discards the result of mpi.%s.%s", recv, method)
				}
			case *ast.DeferStmt:
				if recv, method, ok := errReturningCall(pass, n.Call); ok {
					pass.Reportf(n.Pos(), "defer statement discards the result of mpi.%s.%s", recv, method)
				}
			case *ast.AssignStmt:
				checkAssignDiscard(pass, n)
			}
			return true
		})
	}
	return nil
}

// errReturningCall reports whether e is a call to an error-returning
// mpi method.
func errReturningCall(pass *Pass, e ast.Expr) (recv, method string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	recv, method, isMPI := mpiMethod(pass.TypesInfo, call)
	if !isMPI || !errReturning[recv][method] {
		return "", "", false
	}
	return recv, method, true
}

// checkAssignDiscard flags assignments that blank out the error result
// of an mpi call: `_ = c.Barrier()`, `msg, _ := c.Recv(...)`, and the
// paired form `a, _ := f(), c.Send(...)`. The error is always the final
// result, so only the last corresponding LHS position matters.
func checkAssignDiscard(pass *Pass, n *ast.AssignStmt) {
	if len(n.Rhs) == 1 {
		recv, method, ok := errReturningCall(pass, n.Rhs[0])
		if !ok {
			return
		}
		if isBlank(n.Lhs[len(n.Lhs)-1]) {
			pass.Reportf(n.Pos(), "error result of mpi.%s.%s assigned to _; check it instead", recv, method)
		}
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) || !isBlank(n.Lhs[i]) {
			continue
		}
		if recv, method, ok := errReturningCall(pass, rhs); ok {
			pass.Reportf(rhs.Pos(), "error result of mpi.%s.%s assigned to _; check it instead", recv, method)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
