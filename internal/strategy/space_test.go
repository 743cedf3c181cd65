package strategy

import (
	"testing"
	"testing/quick"
)

func TestNewSpaceSizes(t *testing.T) {
	// Table IV of the paper: number of states 4^n.
	want := map[int]int{1: 4, 2: 16, 3: 64, 4: 256, 5: 1024, 6: 4096}
	for n, states := range want {
		sp := NewSpace(n)
		if sp.NumStates() != states {
			t.Errorf("memory %d: NumStates = %d, want %d", n, sp.NumStates(), states)
		}
		if sp.Memory() != n {
			t.Errorf("memory %d: Memory() = %d", n, sp.Memory())
		}
	}
}

func TestNewSpaceRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 7, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", n)
				}
			}()
			NewSpace(n)
		}()
	}
}

func TestNextStateMemoryOne(t *testing.T) {
	sp := NewSpace(1)
	cases := []struct {
		my, opp Move
		want    uint32
	}{
		{Cooperate, Cooperate, 0},
		{Cooperate, Defect, 1},
		{Defect, Cooperate, 2},
		{Defect, Defect, 3},
	}
	for _, c := range cases {
		if got := sp.NextState(0, c.my, c.opp); got != c.want {
			t.Errorf("NextState(0,%v,%v) = %d, want %d", c.my, c.opp, got, c.want)
		}
	}
}

func TestNextStateShiftsWindow(t *testing.T) {
	sp := NewSpace(2)
	s := sp.InitialState()
	s = sp.NextState(s, Defect, Cooperate) // round 1: DC
	s = sp.NextState(s, Cooperate, Defect) // round 2: CD
	// Window should now be [DC, CD] with CD most recent: bits 10 01 = 9.
	if s != 9 {
		t.Fatalf("state = %d, want 9", s)
	}
	s = sp.NextState(s, Defect, Defect) // DC drops off: [CD, DD] = 01 11 = 7
	if s != 7 {
		t.Fatalf("state = %d, want 7", s)
	}
}

func TestNextStateStaysInRange(t *testing.T) {
	f := func(seed uint32, moves []byte) bool {
		for n := 1; n <= MaxMemory; n++ {
			sp := NewSpace(n)
			s := seed % uint32(sp.NumStates())
			for _, b := range moves {
				s = sp.NextState(s, Move(b>>1&1), Move(b&1))
				if s >= uint32(sp.NumStates()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpposingIsInvolution(t *testing.T) {
	for n := 1; n <= MaxMemory; n++ {
		sp := NewSpace(n)
		limit := uint32(sp.NumStates())
		step := uint32(1)
		if limit > 4096 {
			step = 7
		}
		for s := uint32(0); s < limit; s += step {
			if got := sp.Opposing(sp.Opposing(s)); got != s {
				t.Fatalf("memory %d: Opposing(Opposing(%d)) = %d", n, s, got)
			}
		}
	}
}

func TestOpposingSwapsMoves(t *testing.T) {
	sp := NewSpace(1)
	// State CD (me C, opp D) = 1; opponent sees DC = 2.
	if got := sp.Opposing(1); got != 2 {
		t.Fatalf("Opposing(CD) = %d, want 2 (DC)", got)
	}
	if got := sp.Opposing(0); got != 0 {
		t.Fatalf("Opposing(CC) = %d, want 0", got)
	}
	if got := sp.Opposing(3); got != 3 {
		t.Fatalf("Opposing(DD) = %d, want 3", got)
	}
}

func TestOpposingConsistentWithPlay(t *testing.T) {
	// Whatever joint move sequence occurs, the two players' states must
	// always be each other's Opposing.
	sp := NewSpace(3)
	sA, sB := sp.InitialState(), sp.InitialState()
	seq := []struct{ a, b Move }{
		{Defect, Cooperate}, {Cooperate, Cooperate}, {Defect, Defect},
		{Cooperate, Defect}, {Defect, Cooperate}, {Cooperate, Cooperate},
	}
	for i, mv := range seq {
		sA = sp.NextState(sA, mv.a, mv.b)
		sB = sp.NextState(sB, mv.b, mv.a)
		if sp.Opposing(sA) != sB {
			t.Fatalf("round %d: states not opposing: %d vs %d", i, sA, sB)
		}
	}
}

func TestDescribeState(t *testing.T) {
	sp := NewSpace(2)
	// [DC older, CD recent] = 0b1001 = 9
	if got, want := sp.DescribeState(9), "DC,CD"; got != want {
		t.Fatalf("DescribeState(9) = %q, want %q", got, want)
	}
	sp1 := NewSpace(1)
	if got, want := sp1.DescribeState(3), "DD"; got != want {
		t.Fatalf("DescribeState(3) = %q, want %q", got, want)
	}
}

func TestStateTable(t *testing.T) {
	sp := NewSpace(1)
	tbl := sp.StateTable()
	if len(tbl) != 4 {
		t.Fatalf("state table has %d rows", len(tbl))
	}
	want := [][]Move{
		{Cooperate, Cooperate},
		{Cooperate, Defect},
		{Defect, Cooperate},
		{Defect, Defect},
	}
	for i, row := range want {
		if len(tbl[i]) != 2 || tbl[i][0] != row[0] || tbl[i][1] != row[1] {
			t.Errorf("state %d view = %v, want %v", i, tbl[i], row)
		}
	}
}

func TestStateTableMemorySix(t *testing.T) {
	sp := NewSpace(6)
	tbl := sp.StateTable()
	if len(tbl) != 4096 {
		t.Fatalf("memory-6 state table has %d rows, want 4096", len(tbl))
	}
	for i, view := range tbl {
		if len(view) != 12 {
			t.Fatalf("state %d: view length %d, want 12", i, len(view))
		}
	}
	// Reconstruct state id from view to validate layout (oldest first).
	reconstruct := func(view []Move) uint32 {
		var s uint32
		for i := 0; i < len(view); i += 2 {
			s = s<<2 | RoundBits(view[i], view[i+1])
		}
		return s
	}
	for _, id := range []uint32{0, 1, 4095, 2048, 1234} {
		if got := reconstruct(tbl[id]); got != id {
			t.Fatalf("view of state %d reconstructs to %d", id, got)
		}
	}
}

func TestMoveString(t *testing.T) {
	if Cooperate.String() != "C" || Defect.String() != "D" {
		t.Fatal("Move.String mismatch")
	}
}

func TestRoundBits(t *testing.T) {
	if RoundBits(Defect, Cooperate) != 2 || RoundBits(Cooperate, Defect) != 1 {
		t.Fatal("RoundBits layout mismatch")
	}
}
