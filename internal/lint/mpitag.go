package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// reservedTagBase mirrors mpi.internalTagBase: tags at or above it are
// reserved for the collectives' internal protocol.
const reservedTagBase = 1 << 30

// MPITag flags magic tag literals, tag constants outside the user
// range, and tag constants only one end of the protocol uses.
//
// Comm.checkUserTag rejects tags outside [0, 1<<30) at runtime, but a
// bare `c.Send(dst, 3, ...)` still compiles and silently collides with
// any other site using 3. Tags are protocol identifiers: they must be
// named constants, declared once, below the reserved collective range.
// The mpi package's own wildcards (AnyTag, AnySource) are exempt.
//
// A protocol's two ends live in one package (the Nature Agent's
// receives and the SSet owners' sends are methods of different types in
// internal/sim), so pairing is a package-level property: a tag constant
// some site sends must be received somewhere in the package, and vice
// versa. At runtime the asymmetry is not an error value but a hang — the
// receiver parks on an inbox nothing fills. A dynamic tag (tagBase+w) or
// AnyTag on the opposite end may match anything, so either one in the
// package satisfies every tag of the other direction.
var MPITag = &Analyzer{
	Name: "mpitag",
	Doc:  "user tags must be named constants inside [0, 1<<30), each sent and received within its package; no magic int literals; wire frame kinds unique and in-range",
	Run:  runMPITag,
}

// tagUse is one point-to-point site whose tag is a named constant in
// the user range.
type tagUse struct {
	tag  ast.Expr
	val  int64
	send bool
}

func runMPITag(pass *Pass) error {
	checkWireKinds(pass)
	// Keyed by direction (true: sends): the sites to pair, the constants
	// in use, and whether some site's tag may match anything.
	var uses []tagUse
	vals := map[bool]map[int64]bool{true: {}, false: {}}
	wild := map[bool]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, ok := mpiMethod(pass.TypesInfo, call)
			if !ok || recv != "Comm" {
				return true
			}
			idx, tagged := taggedOps[method]
			if !tagged || idx >= len(call.Args) {
				return true
			}
			send := method == "Send"
			if val, ok := checkTagExpr(pass, method, call.Args[idx]); ok {
				uses = append(uses, tagUse{tag: call.Args[idx], val: val, send: send})
				vals[send][val] = true
			} else {
				wild[send] = true
			}
			return true
		})
	}
	for _, u := range uses {
		if wild[!u.send] || vals[!u.send][u.val] {
			continue
		}
		msg := "tag %s is received but never sent in package %s (the receive can only hang)"
		if u.send {
			msg = "tag %s is sent but never received in package %s"
		}
		pass.Reportf(u.tag.Pos(), msg, types.ExprString(u.tag), pass.Pkg.Name())
	}
	return nil
}

// checkTagExpr reports a magic or out-of-range tag, and returns the
// value of a named constant in the user range. Every other tag — dynamic,
// the mpi package's own wildcard, or one just reported — is not ok and
// counts for pairing as one that may match anything.
func checkTagExpr(pass *Pass, method string, tag ast.Expr) (val int64, ok bool) {
	tv, found := pass.TypesInfo.Types[tag]
	if !found || tv.Value == nil {
		return 0, false // dynamic tag: its named-constant parts are checked where declared
	}
	mpiConst, namedConst := constProvenance(pass, tag)
	if mpiConst {
		return 0, false // the mpi package's own AnyTag/AnySource wildcards
	}
	if !namedConst {
		pass.Reportf(tag.Pos(), "magic tag literal in %s; declare a named tag constant", method)
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if exact && (v < 0 || v >= reservedTagBase) {
		pass.Reportf(tag.Pos(), "tag constant %d in %s is outside the user range [0, 1<<30)", v, method)
		return 0, false
	}
	return v, exact
}

// constProvenance reports whether the expression references a constant
// declared in the mpi package itself, and whether it references any
// named constant at all (as opposed to being built purely of literals).
func constProvenance(pass *Pass, e ast.Expr) (mpiConst, namedConst bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		c, ok := pass.TypesInfo.Uses[id].(*types.Const)
		if !ok {
			return true
		}
		namedConst = true
		if c.Pkg() != nil && c.Pkg().Name() == "mpi" {
			mpiConst = true
		}
		return true
	})
	return mpiConst, namedConst
}

// checkWireKinds audits the wire protocol's frame-kind constants (the
// mpi transport's `frameKind` enum). Frame kinds are wire-format bytes:
// each must be unique (a collision silently misroutes frames on the
// receiving side), nonzero (0 is the decoder's "invalid" reserve), and
// the `frameKindEnd` sentinel — the decoder's upper bound — must sit
// exactly one past the highest kind, or newly added kinds would be
// rejected on the wire while still being sent.
func checkWireKinds(pass *Pass) {
	type kindConst struct {
		name string
		val  int64
		pos  token.Pos
	}
	var kinds []kindConst
	var end *kindConst
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Name() != "frameKind" {
			continue
		}
		v, exact := constant.Int64Val(constant.ToInt(c.Val()))
		if !exact {
			continue
		}
		kc := kindConst{name: name, val: v, pos: c.Pos()}
		if name == "frameKindEnd" {
			end = &kc
		} else {
			kinds = append(kinds, kc)
		}
	}
	if len(kinds) == 0 {
		return
	}
	// Report in declaration order, attributing a collision to the later
	// declaration (the earlier one owned the value first).
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].pos < kinds[j].pos })
	first := make(map[int64]string)
	var max int64
	for _, k := range kinds {
		if k.val == 0 {
			pass.Reportf(k.pos, "wire frame kind %s has value 0 (reserved for \"invalid\" on the wire)", k.name)
			continue
		}
		if k.val > 255 {
			pass.Reportf(k.pos, "wire frame kind %s value %d does not fit the protocol's uint8 kind byte", k.name, k.val)
			continue
		}
		if owner, dup := first[k.val]; dup {
			pass.Reportf(k.pos, "wire frame kind %s duplicates value %d of %s", k.name, k.val, owner)
			continue
		}
		first[k.val] = k.name
		if k.val > max {
			max = k.val
		}
	}
	if end != nil && end.val != max+1 {
		pass.Reportf(end.pos, "frameKindEnd is %d, want %d (one past the highest wire frame kind)", end.val, max+1)
	}
}
