package lint

// cfg.go is the suite's intra-function control-flow layer: basic blocks
// over go/ast with branch, loop, defer, and labeled-jump edges, built
// per function body (function literals are separate graphs — a closure
// is its own function). One query sits on top: ReachableBlocks, plain
// reachability from the entry, used to prune dead code before an
// analyzer trusts an operation to run.
//
// Each block also carries its guard stack: the branch decisions (if
// condition + arm, switch tag + case, loop condition) lexically active
// when the block was created. mpisession reads the guards to slice a
// function into per-rank-role sides of a Rank() branch.
//
// The builder is deliberately conservative where exactness is costly:
// guard stacks are lexical (code after an `if { return }` merge carries
// the pre-branch guards, not the negated condition), and a block ending
// in a call that provably never returns (panic, os.Exit, log.Fatal*,
// runtime.Goexit, testing's Fatal/FailNow/Skip family) has no successor
// — the code after it is dead.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // single synthetic exit; reached by return and fall-through
	Blocks []*Block

	reach map[*Block]bool // lazily computed entry-reachability
}

// Block is a basic block: statements and condition expressions that
// execute in sequence, with control entering only at the top.
type Block struct {
	Index  int
	Nodes  []ast.Node
	Succs  []*Block
	Guards []Guard
}

// Guard is one branch decision on a block's guard stack.
type Guard struct {
	// Stmt is the branching statement: *ast.IfStmt, *ast.SwitchStmt,
	// *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.ForStmt, *ast.RangeStmt.
	Stmt ast.Stmt
	// Branch is the arm index: 0 = then / loop body, 1 = else; for
	// switch and select it is the clause index in source order.
	Branch int
	// Cond is the if/for condition or the switch tag (nil when absent).
	Cond ast.Expr
	// Cases holds a switch clause's case expressions (nil for default
	// clauses and for non-switch guards).
	Cases []ast.Expr
}

// NewCFG builds the control-flow graph of body. info may be nil; when
// present it sharpens never-returns detection (testing.T receivers).
// Nested function literals are not descended into — their statements
// belong to their own graphs.
func NewCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		seen:   make(map[ast.Node]bool),
		info:   info,
		labels: make(map[string]*Block),
	}
	b.g.Exit = b.newBlock(nil) // created first so Index 0 is the exit
	b.g.Entry = b.newBlock(nil)
	b.cur = b.g.Entry
	b.stmts(body.List)
	b.link(b.cur, b.g.Exit)
	return b.g
}

// ReachableBlocks returns the set of blocks reachable from Entry.
func (g *CFG) ReachableBlocks() map[*Block]bool {
	if g.reach != nil {
		return g.reach
	}
	g.reach = make(map[*Block]bool)
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.reach[blk] {
			continue
		}
		g.reach[blk] = true
		stack = append(stack, blk.Succs...)
	}
	return g.reach
}

type cfgBuilder struct {
	g    *CFG
	info *types.Info
	cur  *Block
	seen map[ast.Node]bool // nodes already placed in a block

	// breaks/continues are the enclosing jump targets, innermost last;
	// an empty label matches the innermost, a named one its loop/switch.
	breaks    []jumpTarget
	continues []jumpTarget
	labels    map[string]*Block // goto targets, created on demand
	fallTo    *Block            // fallthrough target within a switch clause
	// pendingLabel names the label attached to the next loop/switch, so
	// labeled break/continue resolve to it.
	pendingLabel string
}

type jumpTarget struct {
	label string
	block *Block
}

func (b *cfgBuilder) newBlock(guards []Guard) *Block {
	blk := &Block{Index: len(b.g.Blocks), Guards: guards}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// dead starts a fresh unreachable block (no predecessors) after a
// terminating statement, so construction can continue uniformly.
func (b *cfgBuilder) dead(guards []Guard) *Block {
	return b.newBlock(guards)
}

func (b *cfgBuilder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.addTo(b.cur, n)
}

func (b *cfgBuilder) addTo(blk *Block, n ast.Node) {
	if n == nil {
		return
	}
	if b.seen[n] {
		return
	}
	b.seen[n] = true
	blk.Nodes = append(blk.Nodes, n)
}

// pushGuard returns a copy of guards extended by g; copies keep sibling
// arms from sharing backing arrays.
func pushGuard(guards []Guard, g Guard) []Guard {
	out := make([]Guard, len(guards)+1)
	copy(out, guards)
	out[len(guards)] = g
	return out
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// A label pending from a LabeledStmt applies only to the statement
	// immediately following it; consume it here and hand it to the
	// breakable constructs below.
	label := b.pendingLabel
	b.pendingLabel = ""

	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name, b.cur.Guards)
		b.link(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.Exit)
		b.cur = b.dead(b.cur.Guards)
	case *ast.ExprStmt:
		b.add(s)
		if b.neverReturns(s.X) {
			b.cur = b.dead(b.cur.Guards)
		}
	default:
		// Assignments, declarations, defer/go, send, inc/dec: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	base := cond.Guards
	after := b.newBlock(base)

	then := b.newBlock(pushGuard(base, Guard{Stmt: s, Branch: 0, Cond: s.Cond}))
	b.link(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.link(b.cur, after)

	if s.Else != nil {
		els := b.newBlock(pushGuard(base, Guard{Stmt: s, Branch: 1, Cond: s.Cond}))
		b.link(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.link(b.cur, after)
	} else {
		b.link(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	base := b.cur.Guards
	head := b.newBlock(base)
	b.link(b.cur, head)
	if s.Cond != nil {
		b.addTo(head, s.Cond)
	}
	bodyGuards := pushGuard(base, Guard{Stmt: s, Branch: 0, Cond: s.Cond})
	body := b.newBlock(bodyGuards)
	after := b.newBlock(base)
	latch := b.newBlock(bodyGuards) // continue target: post statement, back edge
	b.link(head, body)
	if s.Cond != nil {
		b.link(head, after)
	}
	if s.Post != nil {
		b.addTo(latch, s.Post)
	}
	b.link(latch, head)

	b.breaks = append(b.breaks, jumpTarget{label, after})
	b.continues = append(b.continues, jumpTarget{label, latch})
	b.cur = body
	b.stmt(s.Body)
	b.link(b.cur, latch)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	base := b.cur.Guards
	head := b.newBlock(base)
	b.link(b.cur, head)
	body := b.newBlock(pushGuard(base, Guard{Stmt: s, Branch: 0}))
	after := b.newBlock(base)
	b.link(head, body)
	b.link(head, after)

	b.breaks = append(b.breaks, jumpTarget{label, after})
	b.continues = append(b.continues, jumpTarget{label, head})
	b.cur = body
	b.stmt(s.Body)
	b.link(b.cur, head)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s, s.Tag, s.Body.List, label, true)
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s, nil, s.Body.List, label, false)
}

// caseClauses wires a (type) switch: head fans out to one block per
// clause; a missing default adds the fall-past edge; fallthrough (value
// switches only) chains clause bodies.
func (b *cfgBuilder) caseClauses(s ast.Stmt, tag ast.Expr, clauses []ast.Stmt, label string, allowFall bool) {
	head := b.cur
	base := head.Guards
	after := b.newBlock(base)
	blks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blks[i] = b.newBlock(pushGuard(base, Guard{Stmt: s, Branch: i, Cond: tag, Cases: cc.List}))
		b.link(head, blks[i])
		for _, e := range cc.List {
			b.addTo(blks[i], e)
		}
	}
	if !hasDefault {
		b.link(head, after)
	}
	b.breaks = append(b.breaks, jumpTarget{label, after})
	savedFall := b.fallTo
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.fallTo = nil
		if allowFall && i+1 < len(blks) {
			b.fallTo = blks[i+1]
		}
		b.cur = blks[i]
		b.stmts(cc.Body)
		b.link(b.cur, after)
	}
	b.fallTo = savedFall
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	base := head.Guards
	after := b.newBlock(base)
	hasDefault := false
	blks := make([]*Block, len(s.Body.List))
	for i, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
		}
		blks[i] = b.newBlock(pushGuard(base, Guard{Stmt: s, Branch: i}))
		b.link(head, blks[i])
		if cc.Comm != nil {
			b.addTo(blks[i], cc.Comm)
		}
	}
	// Without a default a select blocks until some clause fires, so the
	// only paths out run through a clause body — no head->after edge.
	_ = hasDefault
	b.breaks = append(b.breaks, jumpTarget{label, after})
	for i, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		b.cur = blks[i]
		b.stmts(cc.Body)
		b.link(b.cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		b.link(b.cur, findTarget(b.breaks, label))
	case token.CONTINUE:
		b.link(b.cur, findTarget(b.continues, label))
	case token.GOTO:
		b.link(b.cur, b.labelBlock(label, b.cur.Guards))
	case token.FALLTHROUGH:
		b.link(b.cur, b.fallTo)
	}
	b.cur = b.dead(b.cur.Guards)
}

func findTarget(stack []jumpTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) labelBlock(name string, guards []Guard) *Block {
	if blk, ok := b.labels[name]; ok {
		if blk.Guards == nil {
			blk.Guards = guards
		}
		return blk
	}
	blk := b.newBlock(guards)
	b.labels[name] = blk
	return blk
}

// fatalFuncs lists package-level functions that never return, keyed by
// package path then name.
var fatalFuncs = map[string]map[string]bool{
	"os":      setOf("Exit"),
	"log":     setOf("Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln"),
	"runtime": setOf("Goexit"),
}

// fatalTestMethods lists methods on testing's T/B/F that stop the
// calling goroutine (the test function) without returning.
var fatalTestMethods = setOf("Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow")

// neverReturns reports whether e is a call that provably does not
// return: panic, a fatalFuncs entry, or a fatal testing method.
func (b *cfgBuilder) neverReturns(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		if obj, ok := b.info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
			if sel := b.info.Selections[fun]; sel == nil {
				// Package-qualified call: match by package path + name.
				return fatalFuncs[obj.Pkg().Path()][obj.Name()]
			} else if sel.Kind() == types.MethodVal {
				// Method call: testing.T/B/F's Fatal family.
				if obj.Pkg().Path() == "testing" && fatalTestMethods[fun.Sel.Name] {
					return true
				}
			}
		}
	}
	return false
}
