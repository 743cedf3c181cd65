package lint

import (
	"go/ast"
	"go/types"
)

// Shared recognition helpers: the analyzers identify the MPI layer
// structurally — a method on a named type Comm or World whose
// defining package is called "mpi" — rather than by import path, so the
// same analyzers work against repro/internal/mpi and against the fake
// mpi package the testdata fixtures declare.

// mpiMethod reports the receiver type name and method name when call is
// a method call on one of the mpi package's named types (through any
// level of pointerness).
func mpiMethod(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return "", "", false
	}
	named := namedMPIType(s.Recv())
	if named == "" {
		return "", "", false
	}
	return named, sel.Sel.Name, true
}

// namedMPIType returns the type's name when it is (a pointer to) a
// named type declared in a package called "mpi", and "" otherwise.
func namedMPIType(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "mpi" {
		return ""
	}
	return obj.Name()
}

// errReturning lists the Comm/World methods whose (usually
// final) error result carries the fault-tolerance signal: typed errors
// like RankFailedError and ErrRecvTimeout surface only here, so dropping
// one silently disables recovery.
var errReturning = map[string]map[string]bool{
	"Comm":  setOf("Send", "Recv", "RecvTimeout", "Bcast", "Reduce", "Gather", "Barrier"),
	"World": setOf("Run"),
}

// collectives lists the operations every rank must execute in the same
// order — the SPMD symmetry Blue Gene's collective network assumes.
var collectives = setOf("Bcast", "Reduce", "Gather", "Barrier")

// taggedOps maps point-to-point operations to the index of their tag
// argument.
var taggedOps = map[string]int{
	"Send":        1,
	"Recv":        1,
	"RecvTimeout": 1,
}

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
