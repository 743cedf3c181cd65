package perfmodel

import (
	"fmt"
	"time"

	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// Calibration holds the per-game compute cost at each memory depth on a
// particular machine. GameSeconds[n] is the wall-clock cost of one full
// match (Rules.Rounds rounds) between two memory-n strategies; index 0 is
// unused.
type Calibration struct {
	// Name records the calibration's provenance for reports.
	Name string
	// ClockHz is the clock the costs were measured or fitted at.
	ClockHz float64
	// GameSeconds[n] is the per-match cost at memory n, n in [1,6].
	GameSeconds [7]float64
}

// Scaled converts the calibration to a machine with a different clock,
// assuming cycle counts carry over (the simple frequency-scaling model the
// shape analysis needs).
func (c Calibration) Scaled(to Machine) Calibration {
	out := c
	out.Name = c.Name + "→" + to.Name
	ratio := c.ClockHz / to.ClockHz
	for n := 1; n <= 6; n++ {
		out.GameSeconds[n] *= ratio
	}
	out.ClockHz = to.ClockHz
	return out
}

// Validate checks that the calibration covers all memory depths with
// positive, monotonically non-decreasing costs (more memory never makes a
// game cheaper).
func (c Calibration) Validate() error {
	prev := 0.0
	for n := 1; n <= 6; n++ {
		if c.GameSeconds[n] <= 0 {
			return fmt.Errorf("perfmodel: calibration %q has non-positive cost at memory %d", c.Name, n)
		}
		if c.GameSeconds[n] < prev {
			return fmt.Errorf("perfmodel: calibration %q not monotone at memory %d", c.Name, n)
		}
		prev = c.GameSeconds[n]
	}
	return nil
}

// PaperCalibration returns per-game costs fitted to the paper's own
// Table VI (memory-one through memory-six at 128 processors, 1,024 SSets,
// 1,000 generations): gameSeconds[n] = T_paper(n) / (generations ×
// maxGamesPerWorker), with maxGamesPerWorker = ceil(1024/127) × 1023.
// Projections built on this calibration regenerate the paper's tables by
// construction and are labelled as such; use HostCalibration for
// measurements that reflect this repository's engine.
func PaperCalibration() Calibration {
	// Table VI column "128" in seconds.
	paperT := [7]float64{0, 26.5, 2207, 2401, 3079, 7903, 8690}
	const generations = 1000
	games := float64(9 * 1023) // ceil(1024/127)=9 rows × 1023 opponents
	c := Calibration{Name: "paper-tableVI", ClockHz: BlueGeneL().ClockHz}
	for n := 1; n <= 6; n++ {
		c.GameSeconds[n] = paperT[n] / (generations * games)
	}
	return c
}

// hostClockHz is the nominal clock a host calibration is recorded at; the
// ratio to a modelled machine's clock rescales it.
const hostClockHz = 3e9

// HostCalibration measures the actual per-match cost of this repository's
// engine on the local host, for each memory depth, by timing samples
// matches between random pure strategies. useSearch selects the
// paper-faithful linear-search engine (the one whose cost profile Fig. 4
// reflects); otherwise the optimised engine is timed.
//
// It times one error-free match at a time (a pure game.Play, or the search
// engine), so it prices sampled noisy or mixed play at the single-match
// rate, not the batch kernel's: where that kernel runs, a host calibration
// over-predicts such runs several-fold. `egdsim scale -host-calibrate` and
// the benchmark's perfmodel.host_pred_over_measured inherit that bias.
func HostCalibration(rules game.Rules, samples int, useSearch bool, seed uint64) (Calibration, error) {
	if err := rules.Validate(); err != nil {
		return Calibration{}, err
	}
	if samples < 1 {
		return Calibration{}, fmt.Errorf("perfmodel: need >= 1 sample, got %d", samples)
	}
	name := "host-direct"
	if useSearch {
		name = "host-search"
	}
	c := Calibration{Name: name, ClockHz: hostClockHz}
	master := rng.New(seed)
	for n := 1; n <= 6; n++ {
		sp := strategy.NewSpace(n)
		s0 := strategy.RandomPure(sp, master)
		s1 := strategy.RandomPure(sp, master)
		var eng *game.SearchEngine
		if useSearch {
			eng = game.NewSearchEngine(sp)
		}
		// Warm up once, then time.
		runMatch(rules, eng, s0, s1, master)
		start := time.Now()
		for i := 0; i < samples; i++ {
			runMatch(rules, eng, s0, s1, master)
		}
		c.GameSeconds[n] = time.Since(start).Seconds() / float64(samples)
		if c.GameSeconds[n] <= 0 {
			// Timer resolution floor; a 200-round game is never free.
			c.GameSeconds[n] = 1e-9
		}
	}
	// Enforce monotonicity against timing jitter: a deeper memory never
	// costs less than a shallower one in this engine.
	for n := 2; n <= 6; n++ {
		if c.GameSeconds[n] < c.GameSeconds[n-1] {
			c.GameSeconds[n] = c.GameSeconds[n-1]
		}
	}
	return c, nil
}

func runMatch(rules game.Rules, eng *game.SearchEngine, s0, s1 strategy.Strategy, src *rng.Source) {
	if eng != nil {
		eng.Play(rules, s0, s1, src)
		return
	}
	game.Play(rules, s0, s1, src)
}
