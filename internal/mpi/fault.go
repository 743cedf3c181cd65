package mpi

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the runtime's fault model: a deterministic, scripted
// injection plan standing in for the node failures and link stalls that an
// hours-long Blue Gene partition occupation makes an operational fact; a
// lost message's one observable effect, a receive that never completes, is
// a delay past the receive deadline. Faults key off per-rank operation
// counters (the rank's Nth send, its Nth collective), which are
// deterministic for a deterministic SPMD program regardless of goroutine
// scheduling — so a scripted failure reproduces bit-for-bit across runs and
// under -race.

// ErrInjectedFault marks errors produced by a scripted fault plan.
var ErrInjectedFault = errors.New("mpi: injected fault")

// ErrRecvTimeout is returned by receives whose deadline expires before a
// matching message arrives.
var ErrRecvTimeout = errors.New("mpi: receive timed out")

// ErrShutdown is returned by receives still pending after every rank has
// returned from Run (the world is torn down, so no matching send can ever
// arrive).
var ErrShutdown = errors.New("mpi: world shut down")

// RankFailedError reports that a specific rank failed, taking the world
// down with it. It satisfies errors.Is(err, ErrAborted) so existing abort
// handling keeps working, while errors.As recovers *who* died — which is
// what a supervisor reports when it restarts the run.
type RankFailedError struct {
	Rank int
	Err  error // the rank's own error, when known
}

func (e *RankFailedError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("mpi: rank %d failed", e.Rank)
	}
	return fmt.Sprintf("mpi: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankFailedError) Unwrap() error { return e.Err }

// Is makes every rank failure match ErrAborted, preserving the pre-typed
// contract that surviving ranks unwind on errors.Is(err, ErrAborted).
func (e *RankFailedError) Is(target error) bool { return target == ErrAborted }

// FaultKind selects what a scripted fault does when it triggers.
type FaultKind int

const (
	// KillAfterSends fails the rank's After-th send with ErrInjectedFault;
	// the algorithm code propagates it and the rank dies, modelling a node
	// failure mid-run. Fires at most once per Fault value, even across
	// worlds — a supervisor restarting with the same plan does not re-kill.
	KillAfterSends FaultKind = iota
	// DelaySends sleeps for Delay before delivering the rank's sends
	// numbered [After, After+Count), modelling link congestion or a slow
	// node. Combined with receive deadlines this exercises timeout paths.
	DelaySends
	// FailCollective fails the rank's After-th collective operation entry
	// with ErrInjectedFault. Fires at most once per Fault value.
	FailCollective
)

func (k FaultKind) String() string {
	switch k {
	case KillAfterSends:
		return "kill"
	case DelaySends:
		return "delay"
	case FailCollective:
		return "collective"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scripted failure. The zero Count means 1 for the delay
// kind. Counters are 1-based: After == 1 targets the rank's first
// operation (After == 0 is treated as 1).
type Fault struct {
	Rank  int
	Kind  FaultKind
	After uint64
	Count uint64
	Delay time.Duration

	fired atomic.Bool // kill/collective faults trigger once, ever
}

// Fired reports whether a one-shot fault (kill, collective) has triggered.
func (f *Fault) Fired() bool { return f.fired.Load() }

func (f *Fault) threshold() uint64 { return max(f.After, 1) }

func (f *Fault) span() uint64 { return max(f.Count, 1) }

// FaultPlan is an ordered set of scripted faults installed into a World
// before Run. The same plan value may be reused across successive worlds
// (supervisor restarts): one-shot faults stay consumed.
type FaultPlan struct {
	faults []*Fault
}

// NewFaultPlan creates an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// Add appends a fault and returns the plan for chaining.
func (p *FaultPlan) Add(f *Fault) *FaultPlan {
	p.faults = append(p.faults, f)
	return p
}

// Kill scripts rank's death at its after-th send.
func (p *FaultPlan) Kill(rank int, after uint64) *FaultPlan {
	return p.Add(&Fault{Rank: rank, Kind: KillAfterSends, After: after})
}

// Delay scripts a delivery delay of d on count consecutive sends from rank
// starting at its after-th.
func (p *FaultPlan) Delay(rank int, after, count uint64, d time.Duration) *FaultPlan {
	return p.Add(&Fault{Rank: rank, Kind: DelaySends, After: after, Count: count, Delay: d})
}

// FailCollective scripts a failure of rank's after-th collective entry.
func (p *FaultPlan) FailCollective(rank int, after uint64) *FaultPlan {
	return p.Add(&Fault{Rank: rank, Kind: FailCollective, After: after})
}

// Faults returns the scripted faults (shared, not a copy).
func (p *FaultPlan) Faults() []*Fault { return p.faults }

// sendVerdict is the plan's decision for one send.
type sendVerdict struct {
	kill  bool
	delay time.Duration
}

// onSend evaluates the plan against rank's n-th send (1-based).
func (p *FaultPlan) onSend(rank int, n uint64) sendVerdict {
	var v sendVerdict
	for _, f := range p.faults {
		if f.Rank != rank {
			continue
		}
		switch f.Kind {
		case KillAfterSends:
			if n >= f.threshold() && f.fired.CompareAndSwap(false, true) {
				v.kill = true
			}
		case DelaySends:
			if n >= f.threshold() && n < f.threshold()+f.span() {
				v.delay += f.Delay
			}
		}
	}
	return v
}

// onCollective evaluates the plan against rank's n-th collective entry
// (1-based); true means the collective fails at this rank.
func (p *FaultPlan) onCollective(rank int, n uint64) bool {
	for _, f := range p.faults {
		if f.Rank != rank || f.Kind != FailCollective {
			continue
		}
		if n >= f.threshold() && f.fired.CompareAndSwap(false, true) {
			return true
		}
	}
	return false
}

// ParseFault parses a CLI fault spec of comma-separated key=value pairs:
//
//	rank=3,after=500                     kill rank 3 at its 500th send
//	rank=2,after=5,kind=delay,delay=50ms stall rank 2's 5th send 50ms
//	rank=0,after=2,kind=collective       fail rank 0's 2nd collective
func ParseFault(spec string) (*Fault, error) {
	f := &Fault{Rank: -1, Kind: KillAfterSends}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("mpi: fault spec field %q is not key=value", field)
		}
		switch key {
		case "rank":
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("mpi: fault spec rank %q", value)
			}
			f.Rank = n
		case "after":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mpi: fault spec after %q", value)
			}
			f.After = n
		case "count":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("mpi: fault spec count %q", value)
			}
			f.Count = n
		case "delay":
			d, err := time.ParseDuration(value)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("mpi: fault spec delay %q", value)
			}
			f.Delay = d
		case "kind":
			switch value {
			case "kill":
				f.Kind = KillAfterSends
			case "delay":
				f.Kind = DelaySends
			case "collective":
				f.Kind = FailCollective
			default:
				return nil, fmt.Errorf("mpi: fault spec kind %q (want kill, delay, or collective)", value)
			}
		default:
			return nil, fmt.Errorf("mpi: fault spec key %q", key)
		}
	}
	if f.Rank < 0 {
		return nil, fmt.Errorf("mpi: fault spec %q needs rank=N", spec)
	}
	if f.Kind == DelaySends && f.Delay <= 0 {
		return nil, fmt.Errorf("mpi: fault spec %q needs delay=DURATION for kind=delay", spec)
	}
	return f, nil
}

// ParseFaultPlan parses the -inject-fault flag: ParseFault specs separated
// by ';'. No specs give a nil plan, which injects nothing.
func ParseFaultPlan(specs string) (*FaultPlan, error) {
	var plan *FaultPlan
	for _, spec := range strings.Split(specs, ";") {
		if strings.TrimSpace(spec) == "" {
			continue
		}
		f, err := ParseFault(spec)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan = NewFaultPlan()
		}
		plan.Add(f)
	}
	return plan, nil
}

// InstallFaultPlan arms the plan for this world; it must be called before
// Run. A nil plan disarms injection.
func (w *World) InstallFaultPlan(p *FaultPlan) { w.plan = p }

// SetRecvTimeout sets a default deadline applied to every blocking receive
// in the world, including the point-to-point receives inside collectives.
// A rank whose receive outlives the deadline fails with ErrRecvTimeout,
// aborting the world — the detection half of worker-failure recovery. The
// deadline must comfortably exceed the longest legitimate compute phase
// between communications; zero (the default) disables it. Must be set
// before Run.
func (w *World) SetRecvTimeout(d time.Duration) { w.recvTimeout = d }

// RankSends returns how many sends rank has attempted (including
// collective-internal packets) — the counter fault plans key off.
func (w *World) RankSends(rank int) uint64 { return w.sendCounts[rank].Load() }

// RankCollectives returns how many collective operations rank has entered.
func (w *World) RankCollectives(rank int) uint64 { return w.collCounts[rank].Load() }
