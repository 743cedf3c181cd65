package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/game"
	"repro/internal/mpi"
)

// verdict is what only the Nature Agent holds at a meeting, and the whole of
// its broadcast there. Every rank derives the generation's plan — who is
// compared, who mutates into what, whether the series is sampled — from
// (Seed, gen) with natureDecision and mutantStrategy, and resolves the
// adoption from its own table (rank.go), so no selection, no fitness and no
// strategy crosses the wire; what a worker cannot know is whether the
// control hook asked for a stop and the payoff-table cells the other ranks
// played.
type verdict struct {
	// Gen is the generation of the meeting the verdict closes. A worker
	// refuses one that names another generation.
	Gen int
	// Stop tells workers the run is ending on a control-hook request
	// (pause/cancel): nothing of Gen is applied, a Barrier follows — so
	// Nature outlives every worker's last send to it — and every rank exits.
	Stop bool
	// Cells are the meeting's new cells, in its list's order.
	Cells []float64
}

// The verdict travels as bytes the engine lays out itself, in process and
// over a transport alike, so the bytes mpi counts are the message: the kind
// byte — anything else arriving where a verdict is due is refused, not
// misread — a flags byte with Stop at bit 0, three little-endian uint32
// fields (Gen's low 32 bits, the cell count and Gen's high 32 bits, zero
// below generation 2^32), then the cells as little-endian float64 bits.
const (
	msgVerdict byte = 1
	msgHeadLen      = 2 + 3*4
)

// encode is the verdict's message.
func (v verdict) encode() []byte { return appendCells(v.appendHead(nil, len(v.Cells)), v.Cells) }

// appendHead appends to b the message of a verdict of n cells up to its
// first cell, with room for them.
func (v verdict) appendHead(b []byte, n int) []byte {
	var flags byte
	if v.Stop {
		flags = 1
	}
	b = append(slices.Grow(b, msgHeadLen+8*n), msgVerdict, flags)
	gen := uint64(v.Gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(gen))
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	return binary.LittleEndian.AppendUint32(b, uint32(gen>>32))
}

// appendCells appends cells to a verdict's message.
func appendCells(b []byte, cells []float64) []byte {
	for _, c := range cells {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

// verdictDecoder holds a worker's buffers for the verdicts it receives:
// the cells a verdict decodes into and its re-encoding, both reused from
// meeting to meeting, so a decoded verdict's Cells hold only until the
// next decode.
type verdictDecoder struct {
	cells []float64
	re    []byte
}

// decode validates a received verdict against the generation the receiver
// stands at and the cells its meeting misses — none aboard a stop. The
// payload must be, byte for byte, the encoding of the verdict read from
// it: no trailing bytes, no unknown flag bit, no value in an unused field.
func (d *verdictDecoder) decode(payload any, gen, cells int) (verdict, error) {
	b, ok := payload.([]byte)
	if !ok || len(b) < msgHeadLen || b[0] != msgVerdict {
		return verdict{}, fmt.Errorf("sim: expected a verdict message, received %T %.14x", payload, b)
	}
	// Compared unsigned: converted first, a generation past 2^31 would be
	// negative on a 32-bit int.
	g := uint64(binary.LittleEndian.Uint32(b[10:]))<<32 | uint64(binary.LittleEndian.Uint32(b[2:]))
	if g != uint64(gen) {
		return verdict{}, fmt.Errorf("sim: verdict for generation %d received at generation %d", g, gen)
	}
	v := verdict{Gen: gen, Stop: b[1]&1 != 0}
	body := b[msgHeadLen:]
	d.cells = slices.Grow(d.cells[:0], len(body)/8)
	for ; len(body) >= 8; body = body[8:] {
		d.cells = append(d.cells, math.Float64frombits(binary.LittleEndian.Uint64(body)))
	}
	if len(d.cells) > 0 {
		v.Cells = d.cells
	}
	if d.re = appendCells(v.appendHead(d.re[:0], len(v.Cells)), v.Cells); !bytes.Equal(b, d.re) {
		return verdict{}, fmt.Errorf("sim: verdict of %d bytes %.14x is not the %d-byte encoding %.14x of its content", len(b), b, len(d.re), d.re)
	}
	if v.Stop {
		cells = 0
	}
	if len(v.Cells) != cells {
		return verdict{}, fmt.Errorf("sim: verdict with %d cells received at generation %d, which misses %d", len(v.Cells), gen, cells)
	}
	return v, nil
}

// rankReport is what a worker ships to Nature at the end of the window: its
// view of the run for Nature's cross-check — what it counted in the window
// and how many types its population holds, either of which a drifted view
// changes — and, when Config.Metrics is set, its phase timings and, in a run
// served by type, its payoff-table counters.
type rankReport struct {
	Counters Counters
	Live     int
	Phases   *phaseTimer
	Cache    *game.CacheStats
}

// The report is laid out like the verdict: the kind byte, a flags byte with
// the phase block present at bit 0 and the payoff table's counters at bit 1,
// then little-endian uint64 fields: the window's four counters and the live
// type count; calls and nanos of each phase in name order (phaseNames);
// hits, misses and entries. Every field has a fixed width, so the comm byte
// counters depend on the flags alone, never on a timing's digits.
const msgReport byte = 2

// encode is the report's message.
func (rep rankReport) encode() []byte {
	c, b := rep.Counters, []byte{msgReport, 0}
	words := []uint64{c.GamesPlayed, c.PCEvents, c.Adoptions, c.Mutations, uint64(rep.Live)}
	if rep.Phases != nil {
		b[1] |= 1
		for _, a := range rep.Phases {
			words = append(words, a.calls, uint64(a.nanos))
		}
	}
	if cs := rep.Cache; cs != nil {
		b[1] |= 2
		words = append(words, cs.Hits, cs.Misses, uint64(cs.Entries))
	}
	for _, v := range words {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// decodeReport reads worker w's report out of Nature's Gather by the
// verdict's rule: the payload must be, byte for byte, the encoding of the
// report read from it — no trailing or missing bytes, no unknown flag bit, no
// field past what an int holds.
func decodeReport(w int, payload any) (rankReport, error) {
	b, ok := payload.([]byte)
	if !ok || len(b) < 2 || b[0] != msgReport {
		return rankReport{}, fmt.Errorf("sim: rank %d sent %T %.14x at the end of the window, want its report", w, payload, b)
	}
	var u [5 + 2*numPhases + 3]uint64 // every field; one past the payload's end reads 0, and the re-encoding differs
	for i := range min(len(u), (len(b)-2)/8) {
		u[i] = binary.LittleEndian.Uint64(b[2+8*i:])
	}
	rep, f := rankReport{Counters: Counters{GamesPlayed: u[0], PCEvents: u[1], Adoptions: u[2], Mutations: u[3]}, Live: int(u[4])}, u[5:]
	if b[1]&1 != 0 {
		rep.Phases = new(phaseTimer)
		for p := range rep.Phases {
			rep.Phases[p], f = phaseAccum{f[0], int64(f[1])}, f[2:]
		}
	}
	if b[1]&2 != 0 {
		rep.Cache = &game.CacheStats{Hits: f[0], Misses: f[1], Entries: int(f[2])}
	}
	if re := rep.encode(); !bytes.Equal(b, re) {
		return rankReport{}, fmt.Errorf("sim: report of rank %d of %d bytes %.14x is not the %d-byte encoding %.14x of its content", w, len(b), b, len(re), re)
	}
	return rep, nil
}

// RunParallel executes the simulation on a world of `ranks` goroutine
// ranks: rank 0 is the Nature Agent, and every rank plays a block of the
// games a generation misses — the paper's Blue Gene mapping, with every
// update of the Nature Agent known to every rank. Each rank keeps the same
// payoff table and runs the generation itself; the missing games are
// block-distributed over the ranks, an SSet's row across several of them
// when ranks outnumber SSets (the paper's agents-within-SSet level), and
// Gathered and broadcast back (rank.go). The trajectory is the same for
// every rank count; a world of one, which plays every game itself, is the
// reference RunSequential names.
//
// The ranks share the process's cores. Where they outnumber them
// (runtime.GOMAXPROCS, read once per world), each rank plays its block in
// slices of 64 games and yields its thread between two, so the ranks take
// turns on the cores and finish their blocks together: a generation then
// costs R/P blocks, not ⌈R/P⌉ (sharesCores). Otherwise every rank plays its
// block straight through.
//
// ranks must be at least 1; workers may not outnumber the games of one
// generation, S×(S-1).
func RunParallel(cfg Config, ranks int) (*Result, error) {
	if err := checkParallel(&cfg, ranks); err != nil {
		return nil, err
	}
	world := mpi.NewWorld(ranks)
	return runWorld(cfg, world, ranks, world.Run)
}

// sharesCores is the rule by which the ranks of a world yield: whether the
// hosted ranks one process runs at once outnumber the threads that run its
// Go code (runtime.GOMAXPROCS). The Go runtime preempts a running goroutine
// only after 10 ms, longer than a rank's block of a generation takes, so
// without a yield the first P ranks play their blocks to the end while the
// others wait for a core, and the last play alone. A world of one and the
// one rank a RunWorker process hosts never yield: there a yield would only
// wake an idle thread and move the rank to it.
func sharesCores(hosted int) bool { return hosted > runtime.GOMAXPROCS(0) }

// checkParallel validates cfg and the rank count.
func checkParallel(cfg *Config, ranks int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ranks < 1 {
		return fmt.Errorf("sim: the engine needs >= 1 rank, got %d", ranks)
	}
	if games := cfg.GamesPerGeneration(); uint64(ranks-1) > games {
		return fmt.Errorf("sim: %d workers exceed %d games per generation", ranks-1, games)
	}
	return nil
}

// runWorld is the one world set-up behind RunParallel and RunWorker: it
// installs the Config's world options, has launch run a parRank on each of
// the hosted ranks of the world this process runs (all of them in-process,
// one per process over a transport), whose tables yield where sharesCores
// says, and completes the Nature rank's Result. It returns (nil, nil) when
// this process hosted only a worker.
func runWorld(cfg Config, world *mpi.World, hosted int, launch func(body func(*mpi.Comm) error) error) (*Result, error) {
	if cfg.Metrics {
		world.EnableMetrics()
	}
	if cfg.FaultPlan != nil {
		world.InstallFaultPlan(cfg.FaultPlan)
	}
	if cfg.RecvTimeout > 0 {
		world.SetRecvTimeout(cfg.RecvTimeout)
	}
	var result *Result
	var start time.Time
	yield := sharesCores(hosted)
	err := launch(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			start = time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
		}
		r := newParRank(&cfg, c)
		r.yield = yield
		err := r.run()
		if c.Rank() != 0 && errors.Is(err, ErrStopped) {
			return nil // a control stop told by Nature is a clean exit: the run's one error is Nature's
		}
		if err != nil || c.Rank() != 0 {
			return err
		}
		result = r.res
		result.Final, result.played = r.pop.Snapshot(), r.played(r.end)
		return nil
	})
	if err != nil || result == nil {
		return nil, err
	}
	result.Elapsed = time.Since(start) //egdlint:allow determinism elapsed-time metadata, not part of the trajectory
	result.Ranks = world.Size()
	if cfg.Metrics && result.Metrics != nil {
		// Comm and transport accounting is this process's view: every rank
		// in-process, the hosted rank's side of the wire when networked.
		result.Metrics.Comm = world.CommMetricsSnapshot()
		result.Metrics.Transport = world.TransportStats()
	}
	return result, nil
}
