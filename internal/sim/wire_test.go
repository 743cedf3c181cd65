package sim

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/strategy"
)

// The parallel engine's broadcast payloads must implement mpi.Sizer:
// Comm.send refuses a type the wire-size model does not know.
var (
	_ mpi.Sizer = update{}
	_ mpi.Sizer = selection{}
)

func TestSelectionWireBytes(t *testing.T) {
	if got := (selection{}).WireBytes(); got != 24 {
		t.Fatalf("selection wire bytes = %d, want 24", got)
	}
}

func TestUpdateWireBytes(t *testing.T) {
	if got := (update{}).WireBytes(); got != 48 {
		t.Fatalf("bare update wire bytes = %d, want 48", got)
	}
	sp := strategy.NewSpace(2)
	states := uint64(sp.NumStates())
	withPure := update{Mutated: true, MutantStrategy: strategy.AllC(sp)}
	if got, want := withPure.WireBytes(), 48+states/8; got != want {
		t.Fatalf("pure-mutant update wire bytes = %d, want %d", got, want)
	}
	withMixed := update{Mutated: true, MutantStrategy: strategy.GTFT(sp, 0.3)}
	if got, want := withMixed.WireBytes(), 48+states*8; got != want {
		t.Fatalf("mixed-mutant update wire bytes = %d, want %d", got, want)
	}
}
