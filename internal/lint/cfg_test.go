package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint"
)

// buildCFG type-checks src (a function body wrapped in a fixed harness
// of marker functions), builds the CFG of function f, and returns it
// with the tools to locate marker calls.
type cfgHarness struct {
	t    *testing.T
	g    *lint.CFG
	body *ast.BlockStmt
}

func buildCFG(t *testing.T, body string) *cfgHarness {
	t.Helper()
	src := `package p

func start()      {}
func hit()        {}
func other()      {}
func cond() bool  { return false }
func choice() int { return 0 }

func f() {
` + body + `
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	// Ignore type errors (e.g. unreachable markers): the builder only
	// needs the AST plus whatever info resolved.
	_, _ = conf.Check("p", fset, []*ast.File{file}, info)

	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	if fn == nil {
		t.Fatal("no function f in harness source")
	}
	return &cfgHarness{t: t, g: lint.NewCFG(fn.Body, info), body: fn.Body}
}

// marker returns the ExprStmt calling the named marker function.
func (h *cfgHarness) marker(name string) ast.Node {
	h.t.Helper()
	var found ast.Node
	ast.Inspect(h.body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name && found == nil {
				found = es
			}
		}
		return true
	})
	if found == nil {
		h.t.Fatalf("no call to %s in harness body", name)
	}
	return found
}

// blockOf returns the block the builder placed node n in.
func (h *cfgHarness) blockOf(n ast.Node) *lint.Block {
	h.t.Helper()
	for _, blk := range h.g.Blocks {
		for _, m := range blk.Nodes {
			if m == n {
				return blk
			}
		}
	}
	h.t.Fatal("statement not placed in any block")
	return nil
}

// Each shape marks the statements control can reach with hit() and the
// dead ones with other(): ReachableBlocks must keep the former and prune
// the latter, which pins the builder's edges for every terminator.
func TestReachableBlocksPrunesDeadCode(t *testing.T) {
	shapes := map[string]string{
		"after return": `
	hit()
	return
	other()`,
		"after a call that never returns": `
	hit()
	panic("dies here")
	other()`,
		"early return merges back": `
	if cond() {
		return
	}
	hit()`,
		"after continue": `
	for i := 0; i < 3; i++ {
		if cond() {
			continue
			other()
		}
		hit()
	}`,
		"break leaves an endless loop": `
	for {
		if cond() {
			break
		}
	}
	hit()`,
		"endless loop without break": `
	for {
		hit()
	}
	other()`,
		"labeled break leaves the outer loop": `
outer:
	for {
		for {
			if cond() {
				break outer
			}
		}
		other()
	}
	hit()`,
		"switch without default falls past": `
	switch choice() {
	case 0:
		return
	case 1:
		return
	}
	hit()`,
		"switch whose every clause returns": `
	switch choice() {
	case 0:
		hit()
		return
	default:
		return
	}
	other()`,
		"select whose every clause returns": `
	ch := make(chan int)
	select {
	case <-ch:
		hit()
		return
	case v := <-ch:
		_ = v
		return
	}
	other()`,
		"goto skips ahead": `
	goto done
	other()
done:
	hit()`,
	}
	for name, body := range shapes {
		t.Run(name, func(t *testing.T) {
			h := buildCFG(t, body)
			reach := h.g.ReachableBlocks()
			if !reach[h.blockOf(h.marker("hit"))] {
				t.Error("hit() must be reachable")
			}
			if strings.Contains(body, "other()") && reach[h.blockOf(h.marker("other"))] {
				t.Error("other() must be pruned as dead code")
			}
		})
	}
}

func TestGuardsCarryBranchArms(t *testing.T) {
	h := buildCFG(t, `
	if cond() {
		start()
	} else {
		hit()
	}
	other()
`)
	thenBlk := h.blockOf(h.marker("start"))
	elseBlk := h.blockOf(h.marker("hit"))
	afterBlk := h.blockOf(h.marker("other"))
	if n := len(thenBlk.Guards); n != 1 || thenBlk.Guards[0].Branch != 0 {
		t.Errorf("then arm guards = %+v, want one guard with Branch 0", thenBlk.Guards)
	}
	if n := len(elseBlk.Guards); n != 1 || elseBlk.Guards[0].Branch != 1 {
		t.Errorf("else arm guards = %+v, want one guard with Branch 1", elseBlk.Guards)
	}
	if len(afterBlk.Guards) != 0 {
		t.Errorf("merge block guards = %+v, want none", afterBlk.Guards)
	}
	if thenBlk.Guards[0].Stmt != elseBlk.Guards[0].Stmt {
		t.Error("both arms must share the same branching statement")
	}
	if !strings.Contains(types.ExprString(thenBlk.Guards[0].Cond), "cond()") {
		t.Errorf("guard condition = %s, want the if condition", types.ExprString(thenBlk.Guards[0].Cond))
	}
}
