package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterministicPaths lists the package import paths whose computation
// must be bit-reproducible from seeded RNG streams. The parallel
// engine's exactness guarantee — and the restart from a snapshot, which
// recovers *bit-identical* results after a rank death — hold only while
// these packages take no input from wall clocks, process-global RNGs, or
// map iteration order. A run's recorded result also passes through
// checkpoint (snapshot bytes), stats (the sampled series), bitset
// (strategy bits) and cluster (the Fig. 2 k-means readout), so they obey
// the same rules. The job service rides on the same guarantee: a paused
// job's resumed segment must replay the exact trajectory an
// uninterrupted run would have taken, so the server package obeys them
// too (its token-bucket clock is an annotated exception that never feeds
// a trajectory).
var DeterministicPaths = []string{
	"repro/internal/sim",
	"repro/internal/game",
	"repro/internal/strategy",
	"repro/internal/rng",
	"repro/internal/analysis",
	"repro/internal/replicator",
	"repro/internal/server",
	"repro/internal/checkpoint",
	"repro/internal/stats",
	"repro/internal/bitset",
	"repro/internal/cluster",
}

// rule names the determinism check in findings and in //egdlint:allow
// directives.
const rule = "determinism"

// checker applies the determinism rules to the files of one package.
// They forbid nondeterministic inputs in the deterministic packages:
// wall-clock reads (time.Now/Since/Until), the process-global math/rand
// generators (seeded implicitly, shared across goroutines), `range`
// over maps whose body feeds computation or output, and float products
// added or subtracted unrounded, which a compiler may fuse.
//
// Map iteration is allowed when the body is visibly order-insensitive:
// deleting entries, integer counting, constant stores, or collecting
// keys that a later sort call puts back in a canonical order. Anything
// else — float accumulation, output, early exit, a call other than a
// builtin or conversion in a sum or a guard — must iterate sorted
// keys instead, or carry an //egdlint:allow determinism directive
// (legitimate wall-clock sites such as elapsed-time traces use the same
// escape).
type checker struct {
	info   *types.Info
	file   *ast.File // the file being checked
	report func(pos token.Pos, format string, args ...any)
}

// forbiddenTimeFuncs read the wall clock.
var forbiddenTimeFuncs = setOf("Now", "Since", "Until")

// randConstructors build explicitly-seeded generators and stay legal;
// every other package-level math/rand function draws from the hidden
// global state.
var randConstructors = setOf("New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8")

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func (c *checker) checkFile(f *ast.File) {
	c.file = f
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			c.checkForbiddenFunc(n)
		case *ast.RangeStmt:
			c.checkMapRange(n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD || n.Op == token.SUB {
				c.checkFusable(n.X)
				c.checkFusable(n.Y)
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 {
				c.checkFusable(n.Rhs[0])
			}
		}
		return true
	})
}

// checkFusable flags e, an operand of a float + or -, when it is a
// product (under parentheses or a sign) that no conversion rounds. The Go
// spec lets an implementation fuse x*y + z into one multiply-add that
// skips the product's rounding, and the arm64 compiler does (FMADDD and
// kin) where amd64 does not, so the bits would depend on the platform. An
// explicit float64(x*y) rounds the product and forbids the fusion.
func (c *checker) checkFusable(e ast.Expr) {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
		} else if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.ADD || u.Op == token.SUB) {
			e = u.X
		} else {
			break
		}
	}
	mul, ok := e.(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	tv := c.info.Types[mul]
	if tv.Value != nil || tv.Type == nil {
		return // a constant product is folded exactly at compile time
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	c.report(mul.Pos(), "float product added unrounded in a deterministic package; arm64 may fuse it into a multiply-add: round it with float64(...)")
}

func isDeterministicPkg(path string) bool {
	for _, p := range DeterministicPaths {
		if path == p {
			return true
		}
	}
	return false
}

func (c *checker) checkForbiddenFunc(id *ast.Ident) {
	fn, ok := c.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn on a seeded source) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			c.report(id.Pos(), "time.%s reads the wall clock in a deterministic package; thread timestamps in from the caller", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			c.report(id.Pos(), "global %s.%s in a deterministic package; draw from a seeded rng stream instead", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags a range over a map unless every statement in the
// body is order-insensitive.
func (c *checker) checkMapRange(n *ast.RangeStmt) {
	t := c.info.Types[n.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if c.orderInsensitiveBlock(n, n.Body.List) {
		return
	}
	c.report(n.Pos(), "map iteration order feeds computation in a deterministic package; iterate sorted keys")
}

func (c *checker) orderInsensitiveBlock(rng *ast.RangeStmt, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !c.orderInsensitiveStmt(rng, s) {
			return false
		}
	}
	return true
}

// orderInsensitiveStmt recognises the body forms whose result cannot
// depend on iteration order:
//
//   - delete(m, k)                      set subtraction commutes
//   - n++ / n += k (integer)            integer addition commutes exactly
//     (float accumulation does not: rounding depends on order)
//   - x = <constant>                    idempotent store
//   - keys = append(keys, k)            only when a later sort.* /
//     slices.Sort* call re-canonicalises keys
//   - if <cond> { <allowed forms> }     guarded versions of the above
//   - continue
//
// The operand of n += k and the condition of an if may call only builtins
// and conversions: any other call (a draw from a seeded stream, say) has
// a side effect or result that pairs with the keys in map order.
func (c *checker) orderInsensitiveStmt(rng *ast.RangeStmt, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "delete" && c.info.Uses[id] == types.Universe.Lookup("delete")
	case *ast.IncDecStmt:
		return c.isIntegerExpr(s.X)
	case *ast.AssignStmt:
		return c.orderInsensitiveAssign(rng, s)
	case *ast.IfStmt:
		if s.Init != nil || s.Else != nil || !c.callsOnlyBuiltins(s.Cond) {
			return false
		}
		return c.orderInsensitiveBlock(rng, s.Body.List)
	case *ast.BranchStmt:
		return s.Tok.String() == "continue"
	}
	return false
}

func (c *checker) orderInsensitiveAssign(rng *ast.RangeStmt, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok.String() {
	case "+=", "-=", "|=", "&=", "^=":
		return c.isIntegerExpr(lhs) && c.callsOnlyBuiltins(rhs)
	case "=":
		// Idempotent constant store (`found = true`).
		if tv, ok := c.info.Types[rhs]; ok && tv.Value != nil {
			return true
		}
		return c.sortedAppend(rng, lhs, rhs)
	}
	return false
}

// callsOnlyBuiltins reports whether every call in e is a builtin (len,
// min, ...) or a type conversion.
func (c *checker) callsOnlyBuiltins(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			tv := c.info.Types[call.Fun]
			ok = ok && (tv.IsBuiltin() || tv.IsType())
		}
		return ok
	})
	return ok
}

func (c *checker) isIntegerExpr(e ast.Expr) bool {
	t := c.info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedAppend recognises `keys = append(keys, ...)` where the same
// variable is later passed to a sort.* or slices.* call after the range
// statement, restoring a canonical order.
func (c *checker) sortedAppend(rng *ast.RangeStmt, lhs, rhs ast.Expr) bool {
	lid, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.info.Uses[lid]
	if obj == nil {
		obj = c.info.Defs[lid]
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || fid.Name != "append" || c.info.Uses[fid] != types.Universe.Lookup("append") {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	if base, ok := call.Args[0].(*ast.Ident); !ok || c.info.Uses[base] != obj {
		return false
	}
	// Look for a later sort over the same variable anywhere in the file.
	sorted := false
	ast.Inspect(c.file, func(n ast.Node) bool {
		if sorted {
			return false
		}
		sc, ok := n.(*ast.CallExpr)
		if !ok || sc.Pos() < rng.End() {
			return true
		}
		sel, ok := sc.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg, isPkg := c.info.Uses[pkgID].(*types.PkgName); !isPkg ||
			(pkg.Imported().Path() != "sort" && pkg.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range sc.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && c.info.Uses[aid] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}
