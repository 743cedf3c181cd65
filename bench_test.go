// Benchmarks regenerating the paper's evaluation artefacts, one per table
// and figure. Real-engine benches run scaled-down workloads (the shapes —
// growth with memory depth, quadratic growth with population, strong/weak
// scaling across ranks — are what reproduce; absolute seconds are this
// host's, not Blue Gene's). Model benches evaluate the calibrated Blue Gene
// projection, which regenerates the paper's actual numbers; see
// cmd/egdscale for the printed tables and EXPERIMENTS.md for the recorded
// comparison.
//
// Run everything:  go test -bench=. -benchmem
package egd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/perfmodel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// BenchmarkTableI_Payoff exercises the payoff matrix of Table I.
func BenchmarkTableI_Payoff(b *testing.B) {
	p := game.StandardPayoff()
	var acc float64
	for i := 0; i < b.N; i++ {
		m := strategy.Move(i & 1)
		o := strategy.Move((i >> 1) & 1)
		mine, _ := p.Score(m, o)
		acc += mine
	}
	_ = acc
}

// BenchmarkTableIII_EnumerateMemoryOne regenerates Table III's strategy
// enumeration.
func BenchmarkTableIII_EnumerateMemoryOne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(strategy.EnumeratePure(strategy.NewSpace(1))); got != 16 {
			b.Fatalf("enumerated %d", got)
		}
	}
}

// BenchmarkTableIV_SpaceSizes regenerates Table IV's strategy-space sizes.
func BenchmarkTableIV_SpaceSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for n := 1; n <= 6; n++ {
			total += strategy.NewSpace(n).NumStates()
		}
		if total != 4+16+64+256+1024+4096 {
			b.Fatal("state counts wrong")
		}
	}
}

// BenchmarkFig2_WSLSValidation runs a scaled Fig. 2 experiment end to end:
// mixed memory-one strategies with errors, evolved and k-means-clustered.
func BenchmarkFig2_WSLSValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.WSLSValidationConfig(32, 300, uint64(i))
		cfg.Rules.Rounds = 50
		out, err := core.RunWSLSValidation(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		_ = out.WSLSFraction
	}
}

// BenchmarkTableV_ComputeCommBreakdown regenerates Table V's content — the
// per-phase compute/communication split of a parallel generation — from the
// observability layer's phase timers instead of external profiling. The
// custom metrics report each phase's share of total phase time in percent
// (compute = game play; comm = broadcasts, reductions, point-to-point
// fitness traffic), the split the paper derives for its Blue Gene runs.
func BenchmarkTableV_ComputeCommBreakdown(b *testing.B) {
	for _, ranks := range []int{2, 5, 9} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			cfg := sim.DefaultConfig(1, 32)
			cfg.Generations = 5
			cfg.PCRate = core.SmallStudyPCRate
			cfg.FullRecompute = true
			cfg.Rules.Rounds = 50
			cfg.Seed = 10
			cfg.Metrics = true
			var compute, comm, other time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.RunParallel(cfg, ranks)
				if err != nil {
					b.Fatal(err)
				}
				dc, dm, do := res.Metrics.ComputeCommSplit()
				compute += dc
				comm += dm
				other += do
			}
			b.StopTimer()
			if total := compute + comm + other; total > 0 {
				b.ReportMetric(100*float64(compute)/float64(total), "compute-%")
				b.ReportMetric(100*float64(comm)/float64(total), "comm-%")
			}
		})
	}
}

// benchSim runs the real sequential engine in the paper's full-recompute
// timing mode.
func benchSim(b *testing.B, memory, ssets, gens int) {
	cfg := sim.DefaultConfig(memory, ssets)
	cfg.Generations = gens
	cfg.PCRate = core.SmallStudyPCRate
	cfg.FullRecompute = true
	cfg.Rules.Rounds = 50
	cfg.Seed = 9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSequential(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVI_MemorySteps regenerates Table VI's rows: runtime growth
// as the memory depth increases at a fixed population.
func BenchmarkTableVI_MemorySteps(b *testing.B) {
	for mem := 1; mem <= 6; mem++ {
		b.Run(fmt.Sprintf("memory-%d", mem), func(b *testing.B) {
			benchSim(b, mem, 24, 10)
		})
	}
}

// BenchmarkTableVII_PopulationSize regenerates Table VII's rows: runtime
// growth (quadratic) as the SSet count increases.
func BenchmarkTableVII_PopulationSize(b *testing.B) {
	for _, ssets := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("ssets-%d", ssets), func(b *testing.B) {
			benchSim(b, 1, ssets, 10)
		})
	}
}

// BenchmarkFig3_StrongScalingMemory regenerates Fig. 3: parallel-engine
// strong scaling across rank counts at different memory depths.
func BenchmarkFig3_StrongScalingMemory(b *testing.B) {
	for _, mem := range []int{1, 3, 6} {
		for _, ranks := range []int{2, 3, 5, 9} {
			b.Run(fmt.Sprintf("memory-%d/ranks-%d", mem, ranks), func(b *testing.B) {
				cfg := sim.DefaultConfig(mem, 32)
				cfg.Generations = 5
				cfg.PCRate = core.SmallStudyPCRate
				cfg.FullRecompute = true
				cfg.Rules.Rounds = 50
				cfg.Seed = 10
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.RunParallel(cfg, ranks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4_RuntimeVsMemory regenerates Fig. 4's mechanism: the
// per-match cost of the paper-faithful find_state engine versus memory
// depth.
func BenchmarkFig4_RuntimeVsMemory(b *testing.B) {
	rules := game.DefaultRules()
	for mem := 1; mem <= 6; mem++ {
		b.Run(fmt.Sprintf("memory-%d", mem), func(b *testing.B) {
			sp := strategy.NewSpace(mem)
			master := rng.New(1)
			s0 := strategy.RandomPure(sp, master)
			s1 := strategy.RandomPure(sp, master)
			eng := game.NewSearchEngine(sp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Play(rules, s0, s1, master)
			}
		})
	}
}

// BenchmarkFig5_StrongScalingPopulation regenerates Fig. 5: the efficiency
// benefit of more SSets per rank.
func BenchmarkFig5_StrongScalingPopulation(b *testing.B) {
	for _, ssets := range []int{16, 64} {
		for _, ranks := range []int{2, 5, 9} {
			b.Run(fmt.Sprintf("ssets-%d/ranks-%d", ssets, ranks), func(b *testing.B) {
				cfg := sim.DefaultConfig(1, ssets)
				cfg.Generations = 5
				cfg.PCRate = core.SmallStudyPCRate
				cfg.FullRecompute = true
				cfg.Rules.Rounds = 50
				cfg.Seed = 11
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.RunParallel(cfg, ranks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6_WeakScaling regenerates Fig. 6's construction on real
// ranks: the population grows with the rank count (fixed SSets per worker),
// so per-iteration time should stay near-flat.
func BenchmarkFig6_WeakScaling(b *testing.B) {
	const ssetsPerWorker = 8
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := sim.DefaultConfig(1, ssetsPerWorker*workers)
			cfg.Generations = 5
			cfg.PCRate = core.SmallStudyPCRate
			cfg.Rules.Rounds = 20
			cfg.Seed = 12
			// Incremental evaluation: per-generation work after warm-up is
			// proportional to strategy churn, the flat-work regime.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunParallel(cfg, workers+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArtefacts times the generator of every catalogue entry that is a
// pure function of its options — the analytic tables and the Blue Gene
// projections, Fig. 7 with the 72-rack point (model evaluation cost; the
// numbers themselves are printed by cmd/egdscale).
func BenchmarkArtefacts(b *testing.B) {
	opts := core.Options{Cal: perfmodel.PaperCalibration(), FullSystem: true, Fig4Procs: 2048}
	for _, a := range core.Artefacts() {
		if a.ID == "measure" {
			continue
		}
		b.Run(a.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Build(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_StateLookup contrasts the optimised O(1) state indexing
// with the paper-faithful linear search at memory six — the design choice
// DESIGN.md calls out as the source of Fig. 4's growth.
func BenchmarkAblation_StateLookup(b *testing.B) {
	rules := game.DefaultRules()
	sp := strategy.NewSpace(6)
	master := rng.New(2)
	s0 := strategy.RandomPure(sp, master)
	s1 := strategy.RandomPure(sp, master)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			game.Play(rules, s0, s1, master)
		}
	})
	b.Run("search", func(b *testing.B) {
		eng := game.NewSearchEngine(sp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Play(rules, s0, s1, master)
		}
	})
}

// BenchmarkAblation_EvaluationMode contrasts the paper's every-generation
// full fitness recompute against the incremental engine on the same
// trajectory.
func BenchmarkAblation_EvaluationMode(b *testing.B) {
	base := sim.DefaultConfig(1, 24)
	base.Generations = 50
	base.Rules.Rounds = 20
	base.Seed = 13
	b.Run("full-recompute", func(b *testing.B) {
		cfg := base
		cfg.FullRecompute = true
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunSequential(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		cfg := base
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunSequential(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_PayoffEvaluation contrasts the three match evaluators:
// sampled 200-round games (the paper's), the paper-faithful search-lookup
// variant, and the exact infinite-game Markov payoff (Nowak-Sigmund's).
func BenchmarkAblation_PayoffEvaluation(b *testing.B) {
	mk := func(mutate func(*sim.Config)) sim.Config {
		cfg := sim.DefaultConfig(1, 16)
		cfg.Generations = 30
		cfg.Kind = sim.MixedStrategies
		cfg.Rules.ErrorRate = 0.01
		cfg.Seed = 14
		mutate(&cfg)
		return cfg
	}
	for name, cfg := range map[string]sim.Config{
		"sampled-200": mk(func(c *sim.Config) {}),
		"search-200":  mk(func(c *sim.Config) { c.UseSearchEngine = true }),
		"exact":       mk(func(c *sim.Config) { c.ExactPayoffs = true }),
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunSequential(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MutantGeneration prices random strategy generation —
// the Nature Agent's gen_new_strat — across the strategy representations.
func BenchmarkAblation_MutantGeneration(b *testing.B) {
	src := rng.New(3)
	sp := strategy.NewSpace(6)
	b.Run("pure-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strategy.RandomPure(sp, src)
		}
	})
	b.Run("mixed-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strategy.RandomMixed(sp, src)
		}
	})
}
