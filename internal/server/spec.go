package server

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/game"
	"repro/internal/sim"
)

// JobSpec is the JSON body of a job submission: the subset of sim.Config a
// remote tenant may set, with zero values selecting the paper's defaults.
// Pointer fields distinguish "omitted" (default applies) from an explicit
// zero (kept), so a tenant can run a mutation-free trajectory by sending
// `"mu": 0` while plain omission still selects the paper's 0.05.
type JobSpec struct {
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
	// FullRecompute replays every match every generation (the paper's
	// timing-study mode); off, the engine replays only dirty pairs.
	FullRecompute bool `json:"full_recompute,omitempty"`
	// ExactPayoffs replaces sampled matches with the exact Markov payoff.
	ExactPayoffs bool `json:"exact_payoffs,omitempty"`
	// SearchEngine selects the paper-faithful linear find_state lookup.
	SearchEngine bool `json:"search_engine,omitempty"`
	// PayoffCache enables the strategy-pair payoff memo (docs/KERNEL.md):
	// bit-identical results, recurring matches served from a bounded LRU.
	// Memoizable jobs are also priced with the cache-aware cost model, so a
	// full-recompute job the admission controller would otherwise reject can
	// clear the budget with the cache on.
	PayoffCache bool `json:"payoff_cache,omitempty"`
	// PayoffCacheSize bounds the cache entries per rank (0 selects the
	// engine default).
	PayoffCacheSize int `json:"payoff_cache_size,omitempty"`
	// Ranks selects the parallel engine with that many ranks (>= 2); 0 or 1
	// runs the sequential reference engine.
	Ranks int `json:"ranks,omitempty"`
	// SampleStride keeps every k-th generation in the recorded series
	// (0 selects the automatic ~1000-point stride).
	SampleStride int `json:"sample_stride,omitempty"`
	// CheckpointEvery persists a resume snapshot every k generations on top
	// of the pause-time snapshot the service always keeps (0 disables).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Metrics enables the run's observability aggregate; its counters fold
	// into the daemon's /metrics registry at completion.
	Metrics bool `json:"metrics,omitempty"`
}

// parseSpec decodes a submission body strictly: unknown fields are rejected
// so a typo ("generatoins") fails loudly instead of silently running the
// default.
func parseSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("server: decoding job spec: %w", err)
	}
	return spec, nil
}

// Config materialises the spec into a validated engine configuration with
// its defaults normalised: the whole job's window, which every resumed
// segment is derived from (sim.Config.ResumeFrom).
func (s JobSpec) Config() (sim.Config, error) {
	if s.Ranks == 1 || s.Ranks < 0 {
		return sim.Config{}, fmt.Errorf("server: ranks must be 0 (sequential) or >= 2, got %d", s.Ranks)
	}
	cfg := sim.Config{
		Memory:          s.Memory,
		NumSSets:        s.SSets,
		Generations:     s.Generations,
		Rules:           game.DefaultRules(),
		PCRate:          sim.DefaultPCRate,
		Mu:              sim.DefaultMu,
		Beta:            sim.DefaultBeta,
		Seed:            s.Seed,
		FullRecompute:   s.FullRecompute,
		ExactPayoffs:    s.ExactPayoffs,
		UseSearchEngine: s.SearchEngine,
		PayoffCache:     s.PayoffCache,
		PayoffCacheSize: s.PayoffCacheSize,
		SampleStride:    s.SampleStride,
		CheckpointEvery: s.CheckpointEvery,
		Metrics:         s.Metrics,
	}
	if s.Rounds > 0 {
		cfg.Rules.Rounds = s.Rounds
	}
	cfg.Rules.ErrorRate = s.ErrorRate
	if s.Mixed {
		cfg.Kind = sim.MixedStrategies
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
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	if s.Ranks >= 2 && s.Ranks-1 > s.SSets*(s.SSets-1) {
		return sim.Config{}, fmt.Errorf("server: %d workers exceed %d games per generation",
			s.Ranks-1, s.SSets*(s.SSets-1))
	}
	return cfg, nil
}
