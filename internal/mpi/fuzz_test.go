package mpi

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseFault drives the -inject-fault spec parser with arbitrary input,
// guarding two properties: it never panics, and every accepted spec
// round-trips — re-rendering the parsed Fault as a spec and parsing it again
// yields field-identical results, so nothing is silently mis-parsed or
// dropped. Seeds are the README / doc-comment examples.
func FuzzParseFault(f *testing.F) {
	for _, seed := range []string{
		"rank=3,after=500",
		"rank=2,after=5,kind=delay,delay=50ms",
		"rank=0,after=2,kind=collective",
		"rank=0",
		"rank=7,after=1,kind=kill",
		" rank=4 , after=9 ",
		"rank=1,kind=delay,delay=1h2m3s",
		"rank=-1",
		"after=5",
		"rank=1,count=0",
		"rank=1,kind=delay",
		"rank=1,kind=warp",
		"rank=1,after=10,kind=drop,count=3",
		"rank=1,,after=2",
		"rank=01,after=007",
		"rank=1=2",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fault, err := ParseFault(spec)
		if err != nil {
			if fault != nil {
				t.Fatalf("ParseFault(%q) returned both a fault and %v", spec, err)
			}
			return
		}
		if fault == nil {
			t.Fatalf("ParseFault(%q) returned nil, nil", spec)
		}
		// Invariants the rest of the fault machinery relies on.
		if fault.Rank < 0 {
			t.Fatalf("ParseFault(%q) accepted negative rank %d", spec, fault.Rank)
		}
		if fault.Kind == DelaySends && fault.Delay <= 0 {
			t.Fatalf("ParseFault(%q) accepted kind=delay with delay %v", spec, fault.Delay)
		}
		if fault.Delay < 0 {
			t.Fatalf("ParseFault(%q) accepted negative delay %v", spec, fault.Delay)
		}
		// Round-trip: render the parsed fault canonically and re-parse.
		// (Fault holds an atomic and must not be copied; compare fields.)
		canon := fmt.Sprintf("rank=%d,after=%d,kind=%s", fault.Rank, fault.After, fault.Kind)
		if fault.Count > 0 {
			canon += fmt.Sprintf(",count=%d", fault.Count)
		}
		if fault.Delay > 0 {
			canon += fmt.Sprintf(",delay=%s", fault.Delay)
		}
		again, err := ParseFault(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if again.Rank != fault.Rank || again.Kind != fault.Kind ||
			again.After != fault.After || again.Count != fault.Count ||
			again.Delay != fault.Delay {
			t.Fatalf("round-trip mismatch for %q: %+v vs %+v via %q",
				spec, faultFields(fault), faultFields(again), canon)
		}
		// A spec with no kind= field must default to kill: anything else
		// would silently change what an operator's fault plan does.
		if !strings.Contains(spec, "kind") && fault.Kind != KillAfterSends {
			t.Fatalf("ParseFault(%q) defaulted to kind %v, want kill", spec, fault.Kind)
		}
	})
}

// faultFields formats the comparable fields of a Fault for diagnostics
// (Fault itself embeds an atomic and is not copyable or printable).
func faultFields(f *Fault) string {
	return fmt.Sprintf("{rank=%d kind=%s after=%d count=%d delay=%s}",
		f.Rank, f.Kind, f.After, f.Count, f.Delay)
}
