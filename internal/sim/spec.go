package sim

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"repro/internal/game"
	"repro/internal/mpi"
)

// Spec is the one description of a run every front end shares: the JSON body
// of an egdserve job submission (and of its journal records), the value the
// egdsim/egdrun/egdsweep flags fill in (BindFlags), what the egdrun launcher
// hands its worker processes, and the root package's egd.Config. Zero values
// select the paper's defaults. Pointer fields distinguish "omitted" (default
// applies) from an explicit zero (kept), so a mutation-free trajectory is
// `"mu": 0` or `-mu 0` while plain omission still selects the paper's 0.05.
type Spec struct {
	// Memory is the strategy memory depth n in [1,6].
	Memory int `json:"memory"`
	// SSets is the number of Strategy Sets S.
	SSets int `json:"ssets"`
	// Generations is the evolution length.
	Generations int `json:"generations"`
	// Rounds is the IPD match length (0 selects the paper's 200).
	Rounds int `json:"rounds,omitempty"`
	// ErrorRate is the per-player per-round execution error probability.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// Mixed selects probabilistic strategies instead of pure bit tables.
	Mixed bool `json:"mixed,omitempty"`
	// Seed drives every random decision; equal seeds give equal trajectories.
	Seed uint64 `json:"seed"`
	// PCRate, Mu, Beta override the paper's 0.10 / 0.05 / 1.0 when present.
	PCRate *float64 `json:"pc_rate,omitempty"`
	Mu     *float64 `json:"mu,omitempty"`
	Beta   *float64 `json:"beta,omitempty"`
	// AllowWorseAdoption selects the unconditional Fermi rule (Traulsen et
	// al.): a learner may adopt a worse-scoring teacher with probability
	// below 1/2, instead of the paper's teacher-strictly-better gate. The
	// Fig. 2 WSLS validation uses it.
	AllowWorseAdoption bool `json:"fermi,omitempty"`
	// FullRecompute replays every match every generation (the paper's
	// timing-study mode); off, the engine replays only dirty pairs.
	FullRecompute bool `json:"full_recompute,omitempty"`
	// ExactPayoffs replaces sampled matches with the exact Markov payoff.
	ExactPayoffs bool `json:"exact_payoffs,omitempty"`
	// SearchEngine selects the paper-faithful linear find_state lookup.
	SearchEngine bool `json:"search_engine,omitempty"`
	// Ranks is the size of the engine's world (see Run): 0 selects 1, the
	// reference.
	Ranks int `json:"ranks,omitempty"`
	// SampleStride keeps every k-th generation in the recorded series
	// (0 selects the automatic ~1000-point stride).
	SampleStride int `json:"sample_stride,omitempty"`
	// CheckpointEvery persists a resume snapshot every k generations (0
	// disables) to the sink the front end supplies — egdsim's
	// -checkpoint-file, the service's store on top of the pause-time
	// snapshot it always keeps.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Metrics enables the run's observability aggregate (egdsim writes it
	// to its -metrics file; the service folds its counters into /metrics).
	Metrics bool `json:"metrics,omitempty"`
}

// DefaultSpec is the run a command line starts from before its flags are
// parsed: the paper's rates on 64 memory-one SSets for 1000 generations.
func DefaultSpec() Spec {
	return Spec{Memory: 1, SSets: 64, Generations: 1000, Rounds: 200, Seed: 1}
}

// Config materialises the spec into an engine configuration, validated for
// Ranks ranks and with its defaults normalised: the whole run's
// window, which every resumed segment is derived from (Config.ResumeFrom).
func (s Spec) Config() (Config, error) {
	cfg := Config{
		Memory:             s.Memory,
		NumSSets:           s.SSets,
		Generations:        s.Generations,
		Rules:              game.DefaultRules(),
		PCRate:             DefaultPCRate,
		Mu:                 DefaultMu,
		Beta:               DefaultBeta,
		Seed:               s.Seed,
		FullRecompute:      s.FullRecompute,
		AllowWorseAdoption: s.AllowWorseAdoption,
		ExactPayoffs:       s.ExactPayoffs,
		UseSearchEngine:    s.SearchEngine,
		SampleStride:       s.SampleStride,
		CheckpointEvery:    s.CheckpointEvery,
		Metrics:            s.Metrics,
	}
	if s.Rounds > 0 {
		cfg.Rules.Rounds = s.Rounds
	}
	cfg.Rules.ErrorRate = s.ErrorRate
	if s.Mixed {
		cfg.Kind = MixedStrategies
	}
	if s.PCRate != nil {
		cfg.PCRate = *s.PCRate
	}
	if s.Mu != nil {
		cfg.Mu = *s.Mu
	}
	if s.Beta != nil {
		cfg.Beta = *s.Beta
	}
	if cfg.CheckpointEvery > 0 {
		// Checkpoints land in memory until the front end points the run at
		// its own sink (RunParallelResilient's convention).
		cfg.CheckpointSink = NewMemorySink()
	}
	if s.Ranks < 0 {
		return Config{}, fmt.Errorf("sim: negative rank count %d", s.Ranks)
	}
	if err := checkParallel(&cfg, max(s.Ranks, 1)); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Run executes cfg on a world of ranks ranks, 0 counting as 1 — the one rule
// every front end shares. Every rank count produces the same trajectory from
// the same Config.
func Run(cfg Config, ranks int) (*Result, error) { return RunParallel(cfg, max(ranks, 1)) }

// BindFlags registers the model parameters on fs under the flag names every
// command shares (egdsim, egdrun, egdsweep; README.md "Run parameters"), each
// defaulting to s's current value — DefaultSpec's for egdsim and egdrun. The
// rates are absent from s until their flag is given, so `-mu 0` is an
// explicit zero and no -mu is the paper's 0.05.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Memory, "memory", s.Memory, "strategy memory depth n in [1,6]")
	fs.IntVar(&s.SSets, "ssets", s.SSets, "number of Strategy Sets")
	fs.IntVar(&s.Generations, "gens", s.Generations, "generations to simulate")
	fs.IntVar(&s.Rounds, "rounds", s.Rounds, "IPD rounds per match (paper: 200)")
	fs.Float64Var(&s.ErrorRate, "error", s.ErrorRate, "per-move execution error probability")
	fs.Var(optFloat{&s.PCRate, DefaultPCRate}, "pcrate", "pairwise comparison rate (paper: 0.10)")
	fs.Var(optFloat{&s.Mu, DefaultMu}, "mu", "mutation rate (paper: 0.05)")
	fs.Var(optFloat{&s.Beta, DefaultBeta}, "beta", "Fermi selection intensity")
	fs.BoolVar(&s.Mixed, "mixed", s.Mixed, "evolve probabilistic (mixed) strategies")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "master random seed")
	fs.BoolVar(&s.FullRecompute, "full", s.FullRecompute, "recompute all fitness every generation (paper timing mode)")
	fs.BoolVar(&s.SearchEngine, "search", s.SearchEngine, "use the paper-faithful linear find_state lookup")
	fs.BoolVar(&s.AllowWorseAdoption, "fermi", s.AllowWorseAdoption, "unconditional Fermi adoption (no teacher-better gate; Traulsen et al.)")
	fs.BoolVar(&s.ExactPayoffs, "exact", s.ExactPayoffs, "exact infinite-game Markov payoffs instead of sampled matches")
}

// optFloat is the flag.Value over one of Spec's optional rates: the field
// stays nil — the paper default def applies — until the flag is set.
type optFloat struct {
	field **float64
	def   float64
}

func (o optFloat) String() string {
	v := o.def
	if o.field != nil && *o.field != nil {
		v = **o.field
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (o optFloat) Set(text string) error {
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return err
	}
	*o.field = &v
	return nil
}

// FaultTolerance is the engine's failure handling as the two launch
// binaries (egdsim -ranks N, egdrun -np N) expose it: scripted fault
// injection, the receive deadline that makes a stalled rank detectable, the
// cadence of the snapshots a restart resumes from, and the restart budget
// of the supervisor that drives it (RunParallelResilient in process, egdrun
// across its fleet).
type FaultTolerance struct {
	// InjectFault is the scripted fault plan (mpi.ParseFaultPlan's grammar).
	InjectFault string
	// WorkerTimeout is Config.RecvTimeout.
	WorkerTimeout time.Duration
	// CheckpointEvery is Config.CheckpointEvery.
	CheckpointEvery int
	// MaxRestarts is the supervisor's restart budget (<= 0: a failure ends
	// the run).
	MaxRestarts int
}

// BindFlags registers the fault-tolerance flags on fs.
func (f *FaultTolerance) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.InjectFault, "inject-fault", "", "scripted fault specs, ';'-separated, e.g. 'rank=2,after=500' (see internal/mpi.ParseFault)")
	fs.DurationVar(&f.WorkerTimeout, "worker-timeout", 0, "receive deadline that turns a stalled rank into a detectable failure (two or more ranks)")
	fs.IntVar(&f.CheckpointEvery, "checkpoint-every", 0, "write a recovery checkpoint every N generations")
	fs.IntVar(&f.MaxRestarts, "max-restarts", 3, "restarts from the latest checkpoint after rank failures (two or more ranks; <= 0 disables recovery)")
}

// Apply installs the settings into cfg, parsing the fault plan, and
// re-validates it. A checkpoint cadence lands in memory until the front end
// points the run at its own sink, as Spec.Config does.
func (f FaultTolerance) Apply(cfg *Config) error {
	plan, err := mpi.ParseFaultPlan(f.InjectFault)
	if err != nil {
		return err
	}
	cfg.FaultPlan = plan
	cfg.RecvTimeout = f.WorkerTimeout
	if f.CheckpointEvery != 0 {
		cfg.CheckpointEvery = f.CheckpointEvery
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		cfg.CheckpointSink = NewMemorySink()
	}
	return cfg.Validate()
}
