package main

import (
	"fmt"
	"regexp"
)

// The eight workloads, in report order.
const (
	wSeqFullNoisy = "seq_full_noisy"
	wParFullNoisy = "par_full_noisy"
	wSeqFullCache = "seq_full_cache"
	wSeqExactM3   = "seq_exact_m3"
	wSeqIncrM6    = "seq_incr_m6"
	wParIncrComm  = "par_incr_comm"
	wNetIncrUnix  = "net_incr_unix"
	wServeSmall   = "serve_small_jobs"
)

// metricDef declares one reported metric. BENCHMARK.json carries the same
// table for the driver; TestBenchmarkJSONMatchesTables keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: the share by which it may worsen
	// On lists the workloads the metric is defined on; nil means all. On any
	// other workload the result line carries 0 (the driver wants every name
	// on every run) and the report omits it.
	On []string
}

func (d metricDef) definedOn(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// Workload sets the per-layer table attaches metrics to.
var (
	engineWorkloads = []string{
		wSeqFullNoisy, wParFullNoisy, wSeqFullCache, wSeqExactM3,
		wSeqIncrM6, wParIncrComm, wNetIncrUnix,
	}
	onNoisy = []string{wSeqFullNoisy, wParFullNoisy}
	onCache = []string{wSeqFullCache}
	onExact = []string{wSeqExactM3}
	onM6    = []string{wSeqIncrM6}
	onComm  = []string{wParIncrComm}
	onNet   = []string{wNetIncrUnix}
	onMPI   = []string{wParFullNoisy, wParIncrComm, wNetIncrUnix}
	onServe = []string{wServeSmall}
)

// endToEnd is what a user of the system waits for. Every metric is defined
// on every workload through the workload's "operation": one engine call
// (1-6), one networked run from transport creation to the last rank's exit
// (7), one service job from POST to a fully read /result (8). README.md
// says which definitions coincide on which workload. Every bound is the
// contract's maximum: the reference host's own speed drifts by 15-25% over
// tens of minutes (README.md, "Steadiness"), and a bound has to sit about
// three times above the spread identical runs show.
var endToEnd = []metricDef{
	{Name: "gens_per_s", Unit: "gen/s", Better: "higher", Bound: 0.25},
	{Name: "launch_to_exit_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "job/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced pass: probes of single layers and the counters
// and phase shares the engines already export. Each metric sits on the
// workloads it is predicted to move (README.md, "layer -> end-to-end").
var perLayer = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},

	{Name: "game.play_mixed_ns", Unit: "ns", Better: "lower", On: onNoisy},
	{Name: "game.play_allocs", Unit: "count", Better: "lower", On: onNoisy},
	{Name: "game.play_pure_m3_ns", Unit: "ns", Better: "lower", On: onCache},
	{Name: "game.play_pure_m6_ns", Unit: "ns", Better: "lower", On: onM6},
	{Name: "game.cache_hit_ns", Unit: "ns", Better: "lower", On: onCache},
	{Name: "game.cache_put_evict_ns", Unit: "ns", Better: "lower", On: onCache},
	{Name: "game.cache_hit_ratio", Unit: "ratio", Better: "higher", On: onCache},

	{Name: "analysis.markov_m1_us", Unit: "us", Better: "lower", On: onExact},
	{Name: "analysis.markov_m3_us", Unit: "us", Better: "lower", On: onExact},
	{Name: "analysis.markov_m3_allocs", Unit: "count", Better: "lower", On: onExact},

	{Name: "strategy.fingerprint_m3_ns", Unit: "ns", Better: "lower", On: onCache},
	{Name: "strategy.fingerprint_m6_ns", Unit: "ns", Better: "lower", On: onCache},
	{Name: "strategy.random_pure_m6_ns", Unit: "ns", Better: "lower", On: onM6},

	{Name: "sim.game_play_share", Unit: "ratio", Better: "higher", On: engineWorkloads},
	{Name: "sim.nature_step_share", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.fitness_comm_share", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.broadcast_share", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.reduce_share", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.checkpoint_share", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.untimed_share", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.games_per_gen", Unit: "count", Better: "lower", On: engineWorkloads},
	{Name: "sim.allocs_per_gen", Unit: "count", Better: "lower", On: engineWorkloads},
	{Name: "sim.alloc_kb_per_gen", Unit: "kB", Better: "lower", On: engineWorkloads},
	{Name: "sim.trace_overhead_ratio", Unit: "ratio", Better: "lower", On: engineWorkloads},
	{Name: "sim.par_over_seq_full", Unit: "ratio", Better: "higher", On: []string{wParFullNoisy}},
	{Name: "sim.seq_incr_m1_gens_per_s", Unit: "gen/s", Better: "higher", On: onComm},
	{Name: "sim.par_over_seq_incr", Unit: "ratio", Better: "higher", On: onComm},
	{Name: "sim.net_over_par_incr", Unit: "ratio", Better: "higher", On: onNet},
	{Name: "sim.mean_coop_m6_us", Unit: "us", Better: "lower", On: onM6},
	{Name: "sim.filesink_save_ms", Unit: "ms", Better: "lower", On: onServe},

	{Name: "mpi.bcast_us", Unit: "us", Better: "lower", On: onComm},
	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower", On: onComm},
	{Name: "mpi.reduce_us", Unit: "us", Better: "lower", On: onComm},
	{Name: "mpi.allocs_per_bcast", Unit: "count", Better: "lower", On: onComm},
	{Name: "mpi.msgs_per_gen", Unit: "count", Better: "lower", On: onMPI},
	{Name: "mpi.bytes_per_gen", Unit: "B", Better: "lower", On: onMPI},
	{Name: "mpi.net_bcast_us", Unit: "us", Better: "lower", On: onNet},
	{Name: "mpi.net_pingpong_us", Unit: "us", Better: "lower", On: onNet},
	{Name: "mpi.net_mesh_up_ms", Unit: "ms", Better: "lower", On: onNet},
	{Name: "mpi.net_teardown_s", Unit: "s", Better: "lower", On: onNet},
	{Name: "mpi.wire_frames_per_gen", Unit: "count", Better: "lower", On: onNet},
	{Name: "mpi.wire_bytes_per_gen", Unit: "B", Better: "lower", On: onNet},
	{Name: "mpi.wire_resends", Unit: "count", Better: "lower", On: onNet},
	{Name: "mpi.wire_reconnects", Unit: "count", Better: "lower", On: onNet},

	{Name: "checkpoint.write_m6_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "checkpoint.read_m6_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "checkpoint.bytes_m6", Unit: "B", Better: "lower", On: onServe},

	{Name: "server.submit_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.first_event_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.result_fetch_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.job_p98_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.job_p98_beyond", Unit: "count", Better: "higher", On: onServe},
	{Name: "server.events_per_job", Unit: "count", Better: "lower", On: onServe},
	{Name: "server.sse_reconnects_per_job", Unit: "count", Better: "lower", On: onServe},
	{Name: "server.refused_ratio", Unit: "ratio", Better: "lower", On: onServe},
	{Name: "server.ephemeral_job_p50_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.durable_overhead_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.boot_replay_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "server.admission_pred_over_measured", Unit: "ratio", Better: "lower", On: onServe},

	{Name: "perfmodel.host_pred_over_measured", Unit: "ratio", Better: "lower", On: []string{wSeqFullNoisy, wSeqFullCache, wSeqIncrM6}},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs applies the contract's naming rules to a metric table: names
// of letters, digits, '_', '.', '-' starting with a letter or digit, each
// used once; units of at most 16 unit characters; a direction.
func validateDefs(tables ...[]metricDef) error {
	seen := map[string]bool{}
	for _, defs := range tables {
		for _, d := range defs {
			switch {
			case !nameRE.MatchString(d.Name):
				return fmt.Errorf("metric name %q: want letters, digits, '_', '.', '-' (at most 64, not starting with punctuation)", d.Name)
			case seen[d.Name]:
				return fmt.Errorf("metric name %q used twice", d.Name)
			case !unitRE.MatchString(d.Unit):
				return fmt.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
			case d.Better != "higher" && d.Better != "lower":
				return fmt.Errorf("metric %s: better is %q, want higher or lower", d.Name, d.Better)
			case d.Bound < 0 || d.Bound > 0.25:
				return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
			}
			seen[d.Name] = true
		}
	}
	return nil
}
