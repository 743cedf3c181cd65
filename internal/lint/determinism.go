package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterministicPaths lists the package import paths whose computation
// must be bit-reproducible from seeded RNG streams. The parallel
// engine's exactness guarantee — and the restart from a snapshot, which
// recovers *bit-identical* results after a rank death — hold only while these packages take no input from wall clocks,
// process-global RNGs, or map iteration order. The job service rides on
// the same guarantee: a paused job's resumed segment must replay the
// exact trajectory an uninterrupted run would have taken, so the server
// package obeys the same rules (its token-bucket clock is an annotated
// exception that never feeds a trajectory).
var DeterministicPaths = []string{
	"repro/internal/sim",
	"repro/internal/game",
	"repro/internal/strategy",
	"repro/internal/rng",
	"repro/internal/analysis",
	"repro/internal/replicator",
	"repro/internal/server",
}

// Determinism forbids nondeterministic inputs in the deterministic
// packages: wall-clock reads (time.Now/Since/Until), the process-global
// math/rand generators (seeded implicitly, shared across goroutines),
// and `range` over maps whose body feeds computation or output.
//
// Map iteration is allowed when the body is visibly order-insensitive:
// deleting entries, integer counting, constant stores, or collecting
// keys that a later sort call puts back in a canonical order. Anything
// else — float accumulation, output, early exit — must iterate sorted
// keys instead, or carry an //egdlint:allow determinism directive
// (legitimate wall-clock sites such as elapsed-time traces use the same
// escape).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "deterministic packages must not read wall clocks, global math/rand, or unsorted map iteration order",
	Run:  runDeterminism,
}

// forbiddenTimeFuncs read the wall clock.
var forbiddenTimeFuncs = setOf("Now", "Since", "Until")

// randConstructors build explicitly-seeded generators and stay legal;
// every other package-level math/rand function draws from the hidden
// global state.
var randConstructors = setOf("New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8")

func runDeterminism(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkForbiddenFunc(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

func isDeterministicPkg(path string) bool {
	for _, p := range DeterministicPaths {
		if path == p {
			return true
		}
	}
	return false
}

func checkForbiddenFunc(pass *Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn on a seeded source) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			pass.Reportf(id.Pos(), "time.%s reads the wall clock in a deterministic package; thread timestamps in from the caller", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(id.Pos(), "global %s.%s in a deterministic package; draw from a seeded rng stream instead", pathBase(fn.Pkg().Path()), fn.Name())
		}
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// checkMapRange flags a range over a map unless every statement in the
// body is order-insensitive.
func checkMapRange(pass *Pass, file *ast.File, n *ast.RangeStmt) {
	t := pass.TypesInfo.Types[n.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitiveBlock(pass, file, n, n.Body.List) {
		return
	}
	pass.Reportf(n.Pos(), "map iteration order feeds computation in a deterministic package; iterate sorted keys")
}

func orderInsensitiveBlock(pass *Pass, file *ast.File, rng *ast.RangeStmt, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, file, rng, s) {
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
func orderInsensitiveStmt(pass *Pass, file *ast.File, rng *ast.RangeStmt, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "delete" && pass.TypesInfo.Uses[id] == types.Universe.Lookup("delete")
	case *ast.IncDecStmt:
		return isIntegerExpr(pass, s.X)
	case *ast.AssignStmt:
		return orderInsensitiveAssign(pass, file, rng, s)
	case *ast.IfStmt:
		if s.Init != nil || s.Else != nil {
			return false
		}
		return orderInsensitiveBlock(pass, file, rng, s.Body.List)
	case *ast.BranchStmt:
		return s.Tok.String() == "continue"
	}
	return false
}

func orderInsensitiveAssign(pass *Pass, file *ast.File, rng *ast.RangeStmt, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok.String() {
	case "+=", "-=", "|=", "&=", "^=":
		return isIntegerExpr(pass, lhs)
	case "=":
		// Idempotent constant store (`found = true`).
		if tv, ok := pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
			return true
		}
		return sortedAppend(pass, file, rng, lhs, rhs)
	}
	return false
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedAppend recognises `keys = append(keys, ...)` where the same
// variable is later passed to a sort.* or slices.* call after the range
// statement, restoring a canonical order.
func sortedAppend(pass *Pass, file *ast.File, rng *ast.RangeStmt, lhs, rhs ast.Expr) bool {
	lid, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[lid]
	if obj == nil {
		obj = pass.TypesInfo.Defs[lid]
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || fid.Name != "append" || pass.TypesInfo.Uses[fid] != types.Universe.Lookup("append") {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	if base, ok := call.Args[0].(*ast.Ident); !ok || pass.TypesInfo.Uses[base] != obj {
		return false
	}
	// Look for a later sort over the same variable anywhere in the file.
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rng.End() {
			return true
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg, isPkg := pass.TypesInfo.Uses[pkgID].(*types.PkgName); !isPkg ||
			(pkg.Imported().Path() != "sort" && pkg.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range c.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[aid] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}
