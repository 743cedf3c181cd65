package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// MPISession is the cross-rank session-typing analyzer: within one
// function it splits the control-flow graph at Rank()/OrigRank()-
// conditioned branches into per-rank-role sides, collects each side's
// point-to-point operations (Send/Recv/RecvTimeout) with
// their resolved tag constants, and reports a tag that one role sends
// with no receive on any peer role — or receives with no send. At
// runtime that asymmetry is not an error value but a hang: the sender
// parks on a full channel or the receiver on an empty inbox, and with
// the wire transport it is a cross-process stall only chaos tests can
// flake into view.
//
// The check is conservative, trading false negatives for zero false
// positives on protocol code it cannot fully see:
//
//   - Only operations under a rank-conditioned guard are checked;
//     unconditioned operations run on every rank and serve as match
//     material for either side.
//   - Dynamic tags (tagBase+w) and the mpi package's AnyTag wildcard
//     match anything and are never themselves flagged, mirroring
//     mpitag's resolution rules.
//   - A function that hands a Comm (or World) to code outside its own
//     inline view — any callee other than an mpi method, a function
//     literal, or a local closure variable — is skipped entirely: the
//     peer's half of the protocol may live in the callee.
//   - Two operations on the same role side pair with each other only
//     when the role can span several ranks (e.g. the `Rank() != 0` arm,
//     where workers may exchange among themselves); a role pinned to a
//     single rank cannot meet itself.
var MPISession = &Analyzer{
	Name: "mpisession",
	Doc:  "point-to-point tags sent on one side of a Rank() branch must be received on a peer side",
	Run:  runMPISession,
}

func runMPISession(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSession(pass, fn)
		}
	}
	return nil
}

// sessionOp is one point-to-point operation with its protocol identity.
type sessionOp struct {
	call   *ast.CallExpr
	method string
	send   bool
	role   []Guard  // the rank-conditioned guards this op runs under
	wild   bool     // dynamic tag or AnyTag: matches anything, never flagged
	tagVal int64    // resolved tag constant (when !wild)
	tagStr string   // tag expression as written, for the diagnostic
	peer   ast.Expr // dst (sends) / src (receives)
}

// sessionUnit is one function body in the inline view: the declared
// function or a nested literal, with the rank guards active at the
// literal's definition site (a closure defined under a rank branch runs
// there too — the same assumption mpicollective makes).
type sessionUnit struct {
	body *ast.BlockStmt
	base []Guard
}

func checkSession(pass *Pass, fn *ast.FuncDecl) {
	rankVars := collectRankVars(pass, fn.Body)
	closures := closureVars(pass, fn.Body)

	var ops []sessionOp
	escaped := false
	units := []sessionUnit{{body: fn.Body}}
	for len(units) > 0 {
		u := units[0]
		units = units[1:]
		g := NewCFG(u.body, pass.TypesInfo)
		reach := g.ReachableBlocks()
		for _, blk := range g.Blocks {
			if !reach[blk] {
				continue // dead code neither checks nor satisfies a session
			}
			role := append(append([]Guard(nil), u.base...), rankGuards(pass, rankVars, blk.Guards)...)
			for _, node := range blk.Nodes {
				ast.Inspect(node, func(m ast.Node) bool {
					if m == nil {
						return false
					}
					if fl, ok := m.(*ast.FuncLit); ok {
						units = append(units, sessionUnit{body: fl.Body, base: role})
						return false // the literal's body is its own unit
					}
					switch m := m.(type) {
					case *ast.CallExpr:
						recv, method, isMPI := mpiMethod(pass.TypesInfo, m)
						if isMPI {
							if recv == "Comm" {
								if op, ok := p2pOp(pass, m, method, role); ok {
									ops = append(ops, op)
								}
							}
							return true
						}
						if commEscapes(pass, closures, m) {
							escaped = true
						}
					case *ast.ReturnStmt:
						for _, r := range m.Results {
							if isCommValue(pass, r) {
								escaped = true
							}
						}
					}
					return true
				})
			}
		}
	}
	if escaped {
		return
	}

	for _, op := range ops {
		if len(op.role) == 0 || op.wild {
			continue
		}
		if hasPeerMatch(pass, rankVars, op, ops) {
			continue
		}
		toFrom, want := "to", "receive"
		if !op.send {
			toFrom, want = "from", "send"
		}
		pass.Reportf(op.call.Pos(),
			"%s of tag %s %s %s on the %s side has no matching %s on any peer rank's side (cross-rank hang)",
			op.method, op.tagStr, toFrom, types.ExprString(op.peer), roleString(op.role), want)
	}
}

// p2pOp classifies a Comm method call as a point-to-point operation and
// resolves its tag the way mpitag does: constant value when provable,
// wildcard for AnyTag and for dynamic tagBase+w expressions.
func p2pOp(pass *Pass, call *ast.CallExpr, method string, role []Guard) (sessionOp, bool) {
	var send bool
	switch method {
	case "Send":
		send = true
	case "Recv", "RecvTimeout":
	default:
		return sessionOp{}, false
	}
	if len(call.Args) < 2 {
		return sessionOp{}, false
	}
	op := sessionOp{
		call:   call,
		method: method,
		send:   send,
		role:   role,
		peer:   call.Args[0],
	}
	tag := call.Args[1]
	tv, ok := pass.TypesInfo.Types[tag]
	if !ok || tv.Value == nil {
		op.wild = true // dynamic tag: conservatively matches anything
		return op, true
	}
	if mpiConst, _ := constProvenance(pass, tag); mpiConst {
		op.wild = true // the mpi package's own AnyTag wildcard
		return op, true
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		op.wild = true
		return op, true
	}
	op.tagVal = v
	op.tagStr = types.ExprString(tag)
	return op, true
}

// hasPeerMatch reports whether some opposite-direction operation can
// meet op at runtime: compatible tag, and either a different role side
// or the same side when that side can span several ranks.
func hasPeerMatch(pass *Pass, rankVars map[types.Object]bool, op sessionOp, ops []sessionOp) bool {
	for i := range ops {
		other := &ops[i]
		if other.send == op.send {
			continue
		}
		if !other.wild && !op.wild && other.tagVal != op.tagVal {
			continue
		}
		if sameRole(op.role, other.role) && roleSingleRank(pass, rankVars, op.role) {
			continue // a role pinned to one rank cannot meet itself
		}
		return true
	}
	return false
}

// sameRole reports whether two guard stacks name the same branch arms.
func sameRole(a, b []Guard) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Stmt != b[i].Stmt || a[i].Branch != b[i].Branch {
			return false
		}
	}
	return true
}

// roleSingleRank reports whether any guard in the role pins the rank to
// one constant value (the `Rank() == 0` arm, the `Rank() != 0` else,
// a single-constant switch case).
func roleSingleRank(pass *Pass, rankVars map[types.Object]bool, role []Guard) bool {
	for _, g := range role {
		if guardSingleRank(pass, rankVars, g) {
			return true
		}
	}
	return false
}

func guardSingleRank(pass *Pass, rankVars map[types.Object]bool, g Guard) bool {
	switch g.Stmt.(type) {
	case *ast.IfStmt:
		be, ok := g.Cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		var other ast.Expr
		switch {
		case isRankExpr(pass, rankVars, be.X):
			other = be.Y
		case isRankExpr(pass, rankVars, be.Y):
			other = be.X
		default:
			return false
		}
		if tv, ok := pass.TypesInfo.Types[other]; !ok || tv.Value == nil {
			return false
		}
		return (be.Op == token.EQL && g.Branch == 0) || (be.Op == token.NEQ && g.Branch == 1)
	case *ast.SwitchStmt:
		if !isRankExpr(pass, rankVars, g.Cond) || len(g.Cases) != 1 {
			return false // default clause or multi-value case spans ranks
		}
		tv, ok := pass.TypesInfo.Types[g.Cases[0]]
		return ok && tv.Value != nil
	}
	return false
}

// isRankExpr reports whether e reads the rank itself: a Rank() or
// OrigRank() call, or a variable assigned from one.
func isRankExpr(pass *Pass, rankVars map[types.Object]bool, e ast.Expr) bool {
	if isRankCall(pass, e) {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && rankVars[pass.TypesInfo.Uses[id]]
}

// rankGuards keeps the guards whose branch decision reads the rank.
func rankGuards(pass *Pass, rankVars map[types.Object]bool, guards []Guard) []Guard {
	var out []Guard
	for _, g := range guards {
		if g.Cond != nil && mentionsRank(pass, rankVars, g.Cond) {
			out = append(out, g)
			continue
		}
		for _, e := range g.Cases {
			if mentionsRank(pass, rankVars, e) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// roleString renders the innermost rank guard for the diagnostic.
func roleString(role []Guard) string {
	g := role[len(role)-1]
	switch g.Stmt.(type) {
	case *ast.IfStmt:
		if g.Branch == 1 {
			return "!(" + types.ExprString(g.Cond) + ")"
		}
		return types.ExprString(g.Cond)
	case *ast.SwitchStmt:
		if len(g.Cases) == 0 {
			return "default (switch " + types.ExprString(g.Cond) + ")"
		}
		s := "case "
		for i, e := range g.Cases {
			if i > 0 {
				s += ", "
			}
			s += types.ExprString(e)
		}
		return s + " (switch " + types.ExprString(g.Cond) + ")"
	case *ast.ForStmt:
		if g.Cond != nil {
			return "for " + types.ExprString(g.Cond)
		}
	}
	return "rank-conditioned"
}

// closureVars collects local variables bound to function literals:
// calls through them stay inside the function's inline view.
func closureVars(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		asgn, ok := n.(*ast.AssignStmt)
		if !ok || len(asgn.Lhs) != len(asgn.Rhs) {
			return true
		}
		for i, rhs := range asgn.Rhs {
			if _, isLit := rhs.(*ast.FuncLit); !isLit {
				continue
			}
			id, ok := asgn.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
		return true
	})
	return vars
}

// commEscapes reports whether call hands a Comm or World to code
// outside the function's inline view: any callee other than an mpi
// method (checked by the caller), a function literal, or a local
// variable bound to one.
func commEscapes(pass *Pass, closures map[types.Object]bool, call *ast.CallExpr) bool {
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return false
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[fun]; obj != nil && closures[obj] {
			return false
		}
	}
	for _, arg := range call.Args {
		if isCommValue(pass, arg) {
			return true
		}
	}
	return false
}

// isCommValue reports whether e has (a pointer to) the mpi package's
// Comm or World type.
func isCommValue(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	switch namedMPIType(t) {
	case "Comm", "World":
		return true
	}
	return false
}
