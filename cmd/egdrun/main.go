// Command egdrun launches a multi-process simulation: one worker process
// per rank, wired into a full mesh over unix sockets (default) or TCP by
// the mpi wire transport. Rank 0 hosts the Nature Agent and prints the
// deterministic run summary.
//
// egdrun supervises the fleet the way sim.RunParallelResilient supervises an
// in-process world. It attributes every worker's exit status, and on the
// first abnormal exit — which it sees at once, from the worker's process —
// it kills the rest of the fleet and relaunches every rank from the Nature
// rank's latest snapshot (sim.RestartConfig; from the start when
// -checkpoint-every wrote none that can be read), up to -max-restarts
// times. The chaos flags dose workers with real SIGKILL/SIGSTOP mid-run to
// exercise that recovery the way an unplugged or hung node would; a stopped
// worker becomes a failure through the -worker-timeout receive deadline of
// a rank waiting on it.
//
// Examples:
//
//	egdrun -np 4 -ssets 32 -gens 2000
//	egdrun -np 4 -tcp 127.0.0.1:7700 -ssets 32 -gens 2000
//	egdrun -np 4 -full -ssets 16 -gens 600 -checkpoint-every 100 -chaos-kill 2@500ms
//	egdrun -np 4 -full -checkpoint-every 100 -worker-timeout 1s -chaos-stop 3@1s:2s   # SIGSTOP, 2s later SIGCONT
//
// The run is described by the flags every command shares (README.md "Run
// parameters") plus egdsim's fault-tolerance flags; the launcher parses them
// once and hands each worker the result as one JSON argument. The scripted
// faults (-inject-fault and the chaos schedule) fire in the first fleet
// only. egdrun succeeds when every rank of a fleet exits cleanly.
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
	"sync"
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
// of its -worker flag: the parsed run, the worker's place in the mesh, and
// where the fleet's snapshots live.
type workerJob struct {
	Rank    int
	Addrs   []string
	Network string // unix or tcp
	Job     string // id shared by the fleet
	Spec    sim.Spec
	Faults  sim.FaultTolerance
	// Checkpoint is the file the Nature rank's snapshots go to; Restarts,
	// how many fleets failed before this one, has every rank resume from it.
	Checkpoint string
	Restarts   int
}

// config materialises the engine configuration the job describes: a
// relaunched fleet's is the run resumed from the latest snapshot.
func (j workerJob) config() (sim.Config, error) {
	cfg, err := j.Spec.Config()
	if err != nil {
		return cfg, err
	}
	if err := j.Faults.Apply(&cfg); err != nil || j.Checkpoint == "" {
		return cfg, err
	}
	cfg.CheckpointSink = &sim.FileSink{Path: j.Checkpoint}
	if j.Restarts == 0 {
		return cfg, nil
	}
	return sim.RestartConfig(cfg)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdrun", flag.ContinueOnError)
	// The run and its failure handling are egdsim's flag sets (README.md
	// "Run parameters"); the rest steer the launcher.
	job := workerJob{Spec: sim.DefaultSpec()}
	job.Spec.BindFlags(fs)
	job.Faults.BindFlags(fs, &job.Spec.CheckpointEvery)
	fs.IntVar(&job.Spec.Ranks, "np", 0, "number of worker processes (ranks); >= 2")
	var (
		sockDir = fs.String("sock", "", "unix-socket directory for the rank mesh (default: a temp dir)")
		tcpBase = fs.String("tcp", "", "use TCP instead of unix sockets: host:basePort (rank i listens on basePort+i)")
		timeout = fs.Duration("timeout", 10*time.Minute, "kill the fleet and fail if the run, relaunches included, exceeds this")

		chaosKill = fs.String("chaos-kill", "", "SIGKILL specs 'rank@delay', comma-separated")
		chaosStop = fs.String("chaos-stop", "", "SIGSTOP specs 'rank@delay:pause', comma-separated (needs -worker-timeout)")

		worker = fs.String("worker", "", "internal: run as the single-rank worker process this JSON workerJob describes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
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
			if job.Faults.MaxRestarts < 1 {
				return fmt.Errorf("chaos flags need -max-restarts >= 1 to recover from the fault")
			}
			if cs.stop && job.Faults.WorkerTimeout <= 0 {
				return fmt.Errorf("-chaos-stop needs -worker-timeout: nothing else notices a stopped worker")
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

// launch supervises the run: it runs a fleet, and while a fleet fails and
// the restart budget lasts, relaunches every rank from the latest snapshot
// in the fleet's temp dir. The scripted faults fire in the first fleet
// only.
func launch(job workerJob, sockDir, tcpBase string, timeout time.Duration, chaos []chaosSpec, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	dir, err := os.MkdirTemp("", "egdrun-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
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
		if sockDir == "" {
			sockDir = dir
		}
		for i := range addrs {
			addrs[i] = filepath.Join(sockDir, fmt.Sprintf("rank-%d.sock", i))
		}
	}
	job.Addrs, job.Network = addrs, network
	job.Checkpoint = filepath.Join(dir, "nature.ckpt")

	deadline := time.Now().Add(timeout)
	for {
		job.Job = fmt.Sprintf("egdrun-%d-%d", os.Getpid(), time.Now().UnixNano())
		failed, err := runFleet(self, job, deadline, chaos, out)
		if err != nil || failed < 0 {
			return err
		}
		if job.Restarts >= job.Faults.MaxRestarts {
			return fmt.Errorf("rank %d failed; giving up after %d relaunches", failed, job.Restarts)
		}
		job.Restarts++
		job.Faults.InjectFault, chaos = "", nil
		// The workers resume through the same rule.
		cfg, err := job.config()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "egdrun: relaunch %d: %d ranks resume from generation %d\n", job.Restarts, np, cfg.StartGeneration)
	}
}

// runFleet spawns one worker process per rank, runs the chaos schedule, and
// waits for every rank to exit: on the first abnormal exit it kills the
// rest. It attributes every exit and returns the rank that failed first, -1
// when every rank exited cleanly.
func runFleet(self string, job workerJob, deadline time.Time, chaos []chaosSpec, out io.Writer) (int, error) {
	np := job.Spec.Ranks
	cmds := make([]*exec.Cmd, np)
	for i := 0; i < np; i++ {
		job.Rank = i
		arg, err := json.Marshal(job)
		if err != nil {
			return -1, err
		}
		cmd := exec.Command(self, "-worker", string(arg))
		cmd.Stderr = os.Stderr
		if i == 0 {
			cmd.Stdout = out // the Nature rank owns the summary
		}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:i] {
				c.Process.Kill()
				c.Wait()
			}
			return -1, fmt.Errorf("spawn rank %d: %w", i, err)
		}
		cmds[i] = cmd
	}

	targeted := make(map[int]bool)
	var timers []*time.Timer
	var tmu sync.Mutex
	after := func(d time.Duration, f func()) {
		tmu.Lock()
		timers = append(timers, time.AfterFunc(d, f))
		tmu.Unlock()
	}
	defer func() {
		tmu.Lock()
		for _, t := range timers {
			t.Stop()
		}
		tmu.Unlock()
	}()
	for _, cs := range chaos {
		targeted[cs.rank] = true
		cs := cs
		after(cs.delay, func() {
			sig, name := syscall.SIGKILL, "SIGKILL"
			if cs.stop {
				sig, name = syscall.SIGSTOP, "SIGSTOP"
			}
			fmt.Fprintf(os.Stderr, "egdrun: chaos: rank %d <- %s\n", cs.rank, name)
			cmds[cs.rank].Process.Signal(sig)
			if cs.stop {
				after(cs.pause, func() {
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
	killRest := func() {
		for _, cmd := range cmds {
			cmd.Process.Kill() // an exited one is an error to ignore
		}
	}
	failed, watchdog := -1, time.After(time.Until(deadline))
	for left := np; left > 0; {
		select {
		case e := <-done:
			left--
			note := ""
			switch {
			case targeted[e.rank]:
				note = " (chaos target)"
			case e.err != nil && failed >= 0:
				note = " (stopped by the launcher)"
			}
			fmt.Fprintf(os.Stderr, "egdrun: rank %d: %s%s\n", e.rank, describeExit(cmds[e.rank]), note)
			if e.err != nil && failed < 0 {
				failed = e.rank
				killRest()
			}
		case <-watchdog:
			killRest()
			for ; left > 0; left-- {
				<-done
			}
			return -1, errors.New("fleet did not finish within the -timeout")
		}
	}
	return failed, nil
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
		res.Restarts = job.Restarts
		printSummary(out, res)
	}
	return nil
}

// printSummary writes the run summary. Every line except "run:" is a pure
// function of the trajectory (core.SummaryLines), so fault-free and chaos
// runs of the same seeded config diff clean on them (the CI smoke relies on
// this; use -full so a resume's replay of every pair does not inflate
// GamesPlayed).
func printSummary(out io.Writer, res *sim.Result) {
	fmt.Fprintf(out, "run: %d ranks, %d restarts, %.2fs\n",
		res.Ranks, res.Restarts, res.Elapsed.Seconds())
	for _, line := range core.SummaryLines(res) {
		fmt.Fprintln(out, line)
	}
}
