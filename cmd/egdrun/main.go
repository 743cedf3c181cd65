// Command egdrun launches a multi-process simulation: one worker process
// per rank, wired into a full mesh over unix sockets (default) or TCP by
// the mpi wire transport. Rank 0 hosts the Nature Agent and prints the
// deterministic run summary; egdrun itself supervises the fleet,
// attributes every worker's exit status, and — via the chaos flags — doses
// workers with real SIGKILL/SIGSTOP mid-run to exercise live eviction the
// way an unplugged node would.
//
// Examples:
//
//	egdrun -np 4 -ssets 32 -gens 2000
//	egdrun -np 4 -tcp 127.0.0.1:7700 -ssets 32 -gens 2000
//	egdrun -np 4 -evict -full -ssets 16 -gens 600 -chaos-kill 2@500ms
//	egdrun -np 4 -evict -full -chaos-stop 3@1s:2s   # SIGSTOP, 2s later SIGCONT
//
// The run is described by the flags every command shares (README.md "Run
// parameters") plus egdsim's fault-tolerance flags; the launcher parses them
// once and hands each worker the result as one JSON argument.
//
// A chaos-targeted worker is expected to die (or to discover its eviction
// and exit with an error); egdrun succeeds when rank 0 completes and every
// non-targeted worker exits cleanly.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "egdrun:", err)
		os.Exit(1)
	}
}

// chaosSpec is one scripted process-level fault: signal rank after delay,
// and (for SIGSTOP) resume it pause later.
type chaosSpec struct {
	rank  int
	delay time.Duration
	pause time.Duration // stop specs only: SIGCONT after this much frozen time
	stop  bool
}

// parseChaos parses "rank@delay" (kill) or "rank@delay:pause" (stop).
func parseChaos(spec string, stop bool) (chaosSpec, error) {
	cs := chaosSpec{stop: stop}
	rankStr, rest, ok := strings.Cut(spec, "@")
	if !ok {
		return cs, fmt.Errorf("chaos spec %q: want rank@delay", spec)
	}
	var err error
	if cs.rank, err = strconv.Atoi(rankStr); err != nil {
		return cs, fmt.Errorf("chaos spec %q: bad rank: %v", spec, err)
	}
	delayStr := rest
	if stop {
		var pauseStr string
		if delayStr, pauseStr, ok = strings.Cut(rest, ":"); ok {
			if cs.pause, err = time.ParseDuration(pauseStr); err != nil {
				return cs, fmt.Errorf("chaos spec %q: bad pause: %v", spec, err)
			}
		} else {
			cs.pause = 2 * time.Second
		}
	}
	if cs.delay, err = time.ParseDuration(delayStr); err != nil {
		return cs, fmt.Errorf("chaos spec %q: bad delay: %v", spec, err)
	}
	return cs, nil
}

// workerJob is what the launcher hands each worker process, as the JSON value
// of its -worker flag: the parsed run and the worker's place in the mesh.
type workerJob struct {
	Rank    int
	Addrs   []string
	Network string // unix or tcp
	Job     string // id shared by the fleet
	Spec    sim.Spec
	Faults  sim.FaultTolerance
}

// config materialises the engine configuration the job describes.
func (j workerJob) config() (sim.Config, error) {
	cfg, err := j.Spec.Config()
	if err != nil {
		return cfg, err
	}
	return cfg, j.Faults.Apply(&cfg)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdrun", flag.ContinueOnError)
	// The run and its failure handling are egdsim's flag sets (README.md
	// "Run parameters"); the rest steer the launcher.
	job := workerJob{Spec: sim.DefaultSpec()}
	job.Spec.BindFlags(fs)
	job.Faults.BindFlags(fs)
	fs.IntVar(&job.Spec.Ranks, "np", 0, "number of worker processes (ranks); >= 2")
	var (
		sockDir = fs.String("sock", "", "unix-socket directory for the rank mesh (default: a temp dir)")
		tcpBase = fs.String("tcp", "", "use TCP instead of unix sockets: host:basePort (rank i listens on basePort+i)")
		timeout = fs.Duration("timeout", 10*time.Minute, "kill the fleet and fail if the run exceeds this")

		chaosKill = fs.String("chaos-kill", "", "SIGKILL specs 'rank@delay', comma-separated (requires -evict)")
		chaosStop = fs.String("chaos-stop", "", "SIGSTOP specs 'rank@delay:pause', comma-separated (requires -evict)")

		worker = fs.String("worker", "", "internal: run as the single-rank worker process this JSON workerJob describes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker != "" {
		job = workerJob{}
		if err := json.Unmarshal([]byte(*worker), &job); err != nil {
			return fmt.Errorf("-worker: %w", err)
		}
		return runWorker(job, out)
	}

	np := job.Spec.Ranks
	if np < 2 {
		return fmt.Errorf("-np must be >= 2 (Nature + workers), got %d", np)
	}
	// Reject a bad run here, before any process is spawned.
	if _, err := job.config(); err != nil {
		return err
	}
	var chaos []chaosSpec
	for _, kind := range []struct {
		stop  bool
		specs string
	}{{false, *chaosKill}, {true, *chaosStop}} {
		for _, spec := range splitSpecs(kind.specs) {
			cs, err := parseChaos(spec, kind.stop)
			if err != nil {
				return err
			}
			if cs.rank <= 0 || cs.rank >= np {
				return fmt.Errorf("chaos target rank %d out of worker range [1,%d)", cs.rank, np)
			}
			if !job.Faults.Evict {
				return fmt.Errorf("chaos flags need -evict (live recovery) to make sense")
			}
			chaos = append(chaos, cs)
		}
	}
	return launch(job, *sockDir, *tcpBase, *timeout, chaos, out)
}

func splitSpecs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// launch spawns one worker process per rank, runs the chaos schedule, and
// attributes every exit. Success requires rank 0 to complete and every
// non-targeted worker to exit 0.
func launch(job workerJob, sockDir, tcpBase string, timeout time.Duration, chaos []chaosSpec, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	np := job.Spec.Ranks
	network := "unix"
	addrs := make([]string, np)
	switch {
	case tcpBase != "":
		network = "tcp"
		host, portStr, ok := strings.Cut(tcpBase, ":")
		if !ok {
			return fmt.Errorf("-tcp %q: want host:basePort", tcpBase)
		}
		base, err := strconv.Atoi(portStr)
		if err != nil {
			return fmt.Errorf("-tcp %q: bad base port: %v", tcpBase, err)
		}
		for i := range addrs {
			addrs[i] = fmt.Sprintf("%s:%d", host, base+i)
		}
	default:
		dir := sockDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "egdrun-*"); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
		}
	}

	job.Addrs, job.Network = addrs, network
	job.Job = fmt.Sprintf("egdrun-%d-%d", os.Getpid(), time.Now().UnixNano())

	cmds := make([]*exec.Cmd, np)
	for i := 0; i < np; i++ {
		job.Rank = i
		arg, err := json.Marshal(job)
		if err != nil {
			return err
		}
		cmd := exec.Command(self, "-worker", string(arg))
		cmd.Stderr = os.Stderr
		if i == 0 {
			cmd.Stdout = out // the Nature rank owns the summary
		}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:i] {
				c.Process.Kill()
			}
			return fmt.Errorf("spawn rank %d: %w", i, err)
		}
		cmds[i] = cmd
	}

	targeted := make(map[int]bool)
	for _, cs := range chaos {
		targeted[cs.rank] = true
		cs := cs
		time.AfterFunc(cs.delay, func() {
			sig, name := syscall.SIGKILL, "SIGKILL"
			if cs.stop {
				sig, name = syscall.SIGSTOP, "SIGSTOP"
			}
			fmt.Fprintf(os.Stderr, "egdrun: chaos: rank %d <- %s\n", cs.rank, name)
			cmds[cs.rank].Process.Signal(sig)
			if cs.stop {
				time.AfterFunc(cs.pause, func() {
					fmt.Fprintf(os.Stderr, "egdrun: chaos: rank %d <- SIGCONT\n", cs.rank)
					cmds[cs.rank].Process.Signal(syscall.SIGCONT)
				})
			}
		})
	}

	type exit struct {
		rank int
		err  error
	}
	done := make(chan exit, np)
	for i, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) { done <- exit{rank, cmd.Wait()} }(i, cmd)
	}
	exits := make(map[int]error, np)
	watchdog := time.After(timeout)
	for len(exits) < np {
		select {
		case e := <-done:
			exits[e.rank] = e.err
		case <-watchdog:
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			return fmt.Errorf("fleet did not finish within %v", timeout)
		}
	}

	failed := 0
	for i := 0; i < np; i++ {
		status := describeExit(cmds[i])
		switch {
		case exits[i] == nil:
			fmt.Fprintf(os.Stderr, "egdrun: rank %d: %s\n", i, status)
		case targeted[i]:
			fmt.Fprintf(os.Stderr, "egdrun: rank %d: %s (chaos target)\n", i, status)
		default:
			fmt.Fprintf(os.Stderr, "egdrun: rank %d: %s\n", i, status)
			failed++
		}
	}
	if exits[0] != nil {
		return fmt.Errorf("rank 0 (Nature) failed: %s", describeExit(cmds[0]))
	}
	if failed > 0 {
		return fmt.Errorf("%d non-targeted worker(s) failed", failed)
	}
	return nil
}

// describeExit renders a finished worker's wait status, distinguishing
// clean exits, error exits, and signal deaths.
func describeExit(cmd *exec.Cmd) string {
	ps := cmd.ProcessState
	if ps == nil {
		return "no status"
	}
	if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		return fmt.Sprintf("killed by signal %d (%v)", int(ws.Signal()), ws.Signal())
	}
	if code := ps.ExitCode(); code != 0 {
		return fmt.Sprintf("exit %d", code)
	}
	return "exit 0"
}

// runWorker hosts one rank of the mesh: transport up, simulation through
// sim.RunWorker, and (on the Nature rank) the deterministic summary.
func runWorker(job workerJob, out io.Writer) error {
	if job.Rank < 0 || job.Rank >= len(job.Addrs) {
		return fmt.Errorf("worker rank %d outside %d addresses", job.Rank, len(job.Addrs))
	}
	cfg, err := job.config()
	if err != nil {
		return err
	}
	tr, err := mpi.NewNetTransport(mpi.NetConfig{
		Self:    job.Rank,
		Size:    len(job.Addrs),
		Network: job.Network,
		Addrs:   job.Addrs,
		Job:     job.Job,
	})
	if err != nil {
		return err
	}
	res, err := sim.RunWorker(cfg, tr)
	if err != nil {
		return fmt.Errorf("rank %d: %w", job.Rank, err)
	}
	if res != nil {
		printSummary(out, res)
	}
	return nil
}

// printSummary writes the run summary. Every line except "run:" is a pure
// function of the trajectory (core.SummaryLines), so fault-free and chaos
// runs of the same seeded config diff clean on them (the CI smoke relies on
// this; use -full so eviction replay does not inflate GamesPlayed).
func printSummary(out io.Writer, res *sim.Result) {
	fmt.Fprintf(out, "run: %d ranks finish, %d evictions, %.2fs\n",
		res.Ranks, res.Evictions, res.Elapsed.Seconds())
	for _, line := range core.SummaryLines(res) {
		fmt.Fprintln(out, line)
	}
}
