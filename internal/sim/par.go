package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

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
func (v verdict) encode() []byte { return appendCells(v.head(len(v.Cells)), v.Cells) }

// head is the message of a verdict of n cells up to its first cell, with
// room for them.
func (v verdict) head(n int) []byte {
	var flags byte
	if v.Stop {
		flags = 1
	}
	b := append(make([]byte, 0, msgHeadLen+8*n), msgVerdict, flags)
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

// decodeVerdict validates a received verdict against the generation the
// receiver stands at and the cells its meeting misses — none aboard a stop.
// The payload must be, byte for byte, the encoding of the verdict read from
// it: no trailing bytes, no unknown flag bit, no value in an unused field.
func decodeVerdict(payload any, gen, cells int) (verdict, error) {
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
	if len(body) >= 8 {
		v.Cells = make([]float64, 0, len(body)/8)
	}
	for ; len(body) >= 8; body = body[8:] {
		v.Cells = append(v.Cells, math.Float64frombits(binary.LittleEndian.Uint64(body)))
	}
	if re := v.encode(); !bytes.Equal(b, re) {
		return verdict{}, fmt.Errorf("sim: verdict of %d bytes %.14x is not the %d-byte encoding %.14x of its content", len(b), b, len(re), re)
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
// view of the run for Nature's cross-check and, when Config.Metrics is set,
// its phase timings and payoff-table counters.
type rankReport struct {
	RankPhaseSnapshot
	// Counters is what the worker counted in the window and Live how many
	// types its population holds: a drifted view changes either.
	Counters *Counters `json:"counters,omitempty"`
	Live     int       `json:"live,omitempty"`
}

// encode is the report as JSON, space-padded (JSON ignores trailing white
// space) to the length it has with 19-digit Nanos: the comm byte counters
// must not depend on wall-clock digits.
func (rep rankReport) encode() []byte {
	b, _ := json.Marshal(rep) // plain counters: cannot fail
	for _, p := range rep.Phases {
		b = append(b, "                   "[len(strconv.FormatInt(p.Nanos, 10)):]...)
	}
	return b
}

// decodeReports reads the workers' reports out of a Gather at Nature, with
// the run's phase block: Nature's own snapshot self, then the workers' by
// rank, so Phases is already ordered by Rank.
func decodeReports(self RankPhaseSnapshot, parts []any) (*RunMetrics, []rankReport, error) {
	rm, reps := &RunMetrics{Phases: []RankPhaseSnapshot{self}}, make([]rankReport, len(parts)-1)
	for i, part := range parts[1:] {
		b, _ := part.([]byte)
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			return nil, nil, fmt.Errorf("sim: report of rank %d: %w", 1+i, err)
		}
		rm.Phases = append(rm.Phases, reps[i].RankPhaseSnapshot)
	}
	return rm, reps, nil
}

// skew is the test seam of the end-of-window cross-check: the games the
// worker on c reports beyond those it played — one on the rank
// Config.skewRank names, none elsewhere (a worker's rank is never 0).
func skew(cfg *Config, c *mpi.Comm) uint64 {
	if c.Rank() == cfg.skewRank {
		return 1
	}
	return 0
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
// ranks must be at least 1; workers may not outnumber the games of one
// generation, S×(S-1).
func RunParallel(cfg Config, ranks int) (*Result, error) {
	if err := checkParallel(&cfg, ranks); err != nil {
		return nil, err
	}
	world := mpi.NewWorld(ranks)
	return runWorld(cfg, world, world.Run)
}

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
// the ranks the world hosts (all of them in-process, one per process over a
// transport), and completes the Nature rank's Result. It returns (nil, nil)
// when this process hosted only a worker.
func runWorld(cfg Config, world *mpi.World, launch func(body func(*mpi.Comm) error) error) (*Result, error) {
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
	err := launch(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			start = time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
		}
		r := newParRank(&cfg, c)
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
