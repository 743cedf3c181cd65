package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// This file is the chaos harness: one rank of the mesh runs as a REAL child
// process (this test binary re-executed into TestChaosWorkerHelper), and the
// parent subjects it to the failures egdrun must survive — clean exit,
// error exit with a nonzero status, kill -9, and SIGSTOP/SIGCONT — while
// hosting the surviving ranks in-process. The assertions pin exit-status
// attribution end to end: what the child's process state reports must agree
// with how the survivors' eviction records diagnose the departure.

const chaosEnvGuard = "EGD_CHAOS_HELPER"

// chaosBody is the SPMD body every chaos rank runs: lockstep generations
// (gather at rank 0, then a barrier) with the canonical survivor-side
// recovery step on error. fail, when non-nil, is consulted each generation
// so a scripted rank can die on cue.
func chaosBody(gens int, fail func(g int, c *Comm) error) func(c *Comm) error {
	return func(c *Comm) error {
		g := 0
		for g < gens {
			if fail != nil {
				if err := fail(g, c); err != nil {
					return err
				}
			}
			var err error
			if c.Rank() == 0 {
				for i := 1; i < c.Size(); i++ {
					if _, err = c.Recv(AnySource, 7); err != nil {
						break
					}
				}
			} else {
				err = c.Send(0, 7, float64(g))
			}
			if err == nil {
				err = c.Barrier()
			}
			if err != nil {
				nc, ok := evictRecover(c, err)
				if !ok {
					return err
				}
				c = nc
				continue
			}
			g++
		}
		return nil
	}
}

// TestChaosWorkerHelper is not a test: it is the main() of a chaos worker
// process, entered when the test binary is re-executed with the guard env
// var set. It hosts one rank of the mesh and exits 0 on success or 3 on any
// rank error, so the parent can assert real wait-status attribution.
func TestChaosWorkerHelper(t *testing.T) {
	if os.Getenv(chaosEnvGuard) == "" {
		t.Skip("helper process entry point; run only via re-exec")
	}
	rank, _ := strconv.Atoi(os.Getenv("EGD_CHAOS_RANK"))
	size, _ := strconv.Atoi(os.Getenv("EGD_CHAOS_SIZE"))
	gens, _ := strconv.Atoi(os.Getenv("EGD_CHAOS_GENS"))
	dir := os.Getenv("EGD_CHAOS_DIR")
	mode := os.Getenv("EGD_CHAOS_MODE")
	job := os.Getenv("EGD_CHAOS_JOB")

	addrs := make([]string, size)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	tr, err := NewNetTransport(NetConfig{
		Self: rank, Size: size, Network: "unix", Addrs: addrs, Job: job,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos worker transport: %v\n", err)
		os.Exit(3)
	}
	w := NewNetWorld(tr)
	w.EnableEviction(testBeat, testMisses)
	w.SetRecvTimeout(5 * time.Second)
	if err := tr.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos worker start: %v\n", err)
		os.Exit(3)
	}
	var fail func(g int, c *Comm) error
	if mode == "error" {
		fail = func(g int, c *Comm) error {
			if g == 3 {
				return errors.New("worker exploded")
			}
			return nil
		}
	}
	if err := w.RunLocal(chaosBody(gens, fail)); err != nil {
		fmt.Fprintf(os.Stderr, "chaos worker rank %d: %v\n", rank, err)
		os.Exit(3)
	}
	fmt.Println("CHAOS_WORKER_DONE")
	os.Exit(0)
}

// chaosRun hosts ranks 0..size-2 in-process and rank size-1 as a child
// process in the given mode, runs gens lockstep generations, and returns
// the in-process errors, each survivor's transport (for eviction records),
// the finished child command, and its combined output. onGen, when non-nil,
// fires on rank 0 after each completed generation (the chaos trigger).
func chaosRun(t *testing.T, size, gens int, mode string, onGen func(g int, cmd *exec.Cmd)) ([]error, []*NetTransport, *exec.Cmd, string) {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, size)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	child := size - 1

	cmd := exec.Command(os.Args[0], "-test.run=TestChaosWorkerHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		chaosEnvGuard+"=1",
		"EGD_CHAOS_RANK="+strconv.Itoa(child),
		"EGD_CHAOS_SIZE="+strconv.Itoa(size),
		"EGD_CHAOS_GENS="+strconv.Itoa(gens),
		"EGD_CHAOS_DIR="+dir,
		"EGD_CHAOS_MODE="+mode,
		"EGD_CHAOS_JOB="+t.Name(),
	)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn chaos worker: %v", err)
	}

	trs := make([]*NetTransport, child)
	for i := 0; i < child; i++ {
		tr, err := NewNetTransport(NetConfig{
			Self: i, Size: size, Network: "unix", Addrs: addrs, Job: t.Name(),
		})
		if err != nil {
			t.Fatalf("rank %d transport: %v", i, err)
		}
		trs[i] = tr
	}
	errs := make([]error, child)
	var wg sync.WaitGroup
	for i := 0; i < child; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w := NewNetWorld(trs[rank])
			w.EnableEviction(testBeat, testMisses)
			if err := trs[rank].Start(); err != nil {
				errs[rank] = err
				trs[rank].Shutdown(err)
				return
			}
			var fail func(g int, c *Comm) error
			if rank == 0 && onGen != nil {
				fail = func(g int, c *Comm) error {
					onGen(g, cmd)
					return nil
				}
			}
			errs[rank] = w.RunLocal(chaosBody(gens, fail))
		}(i)
	}
	wg.Wait()

	// The child must exit on its own in every mode (a SIGKILLed child is
	// already gone; a SIGSTOP'd child is resumed by its onGen hook). Bound
	// the wait so a regression hangs the test with a diagnosis, not forever.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("chaos worker did not exit; output:\n%s", out.String())
	}
	return errs, trs, cmd, out.String()
}

// waitStatus digs the raw wait status out of the finished child.
func waitStatus(t *testing.T, cmd *exec.Cmd) syscall.WaitStatus {
	t.Helper()
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok {
		t.Fatalf("no syscall.WaitStatus available (%T)", cmd.ProcessState.Sys())
	}
	return ws
}

// A worker process that finishes its generations and leaves cleanly: exit
// status 0, goodbye on the wire, and nobody evicts anybody.
func TestChaosProcessCleanExit(t *testing.T) {
	errs, trs, cmd, out := chaosRun(t, 3, 4, "clean", nil)
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("clean worker exit code %d; output:\n%s", code, out)
	}
	if !strings.Contains(out, "CHAOS_WORKER_DONE") {
		t.Fatalf("worker never reached completion; output:\n%s", out)
	}
	for _, tr := range trs {
		if evs := tr.world.Evictions(); len(evs) != 0 {
			t.Errorf("rank %d evicted someone on a clean run: %v", tr.cfg.Self, evs)
		}
	}
}

// A worker process that dies of its own error: nonzero exit status, and the
// survivors' eviction records attribute the failure to the worker's actual
// error (carried by its goodbye frame), not to a liveness guess.
func TestChaosProcessErrorExit(t *testing.T) {
	errs, trs, cmd, out := chaosRun(t, 3, 8, "error", nil)
	for r, err := range errs {
		if err != nil {
			t.Errorf("survivor rank %d: %v", r, err)
		}
	}
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("erroring worker exit code %d, want 3; output:\n%s", code, out)
	}
	for _, tr := range trs {
		evs := tr.world.Evictions()
		if len(evs) != 1 || evs[0].Rank != 2 {
			t.Fatalf("rank %d evictions: %v", tr.cfg.Self, evs)
		}
		if msg := evs[0].Err.Error(); !strings.Contains(msg, "worker exploded") {
			t.Errorf("rank %d eviction cause %q does not carry the worker's error", tr.cfg.Self, msg)
		}
	}
}

// kill -9 mid-run: the wait status reports SIGKILL, the survivors see only
// silence — stale heartbeats or a dead socket — and the eviction records
// say so.
func TestChaosProcessSIGKILL(t *testing.T) {
	var once sync.Once
	errs, trs, cmd, out := chaosRun(t, 3, 10, "clean", func(g int, cmd *exec.Cmd) {
		if g == 2 {
			once.Do(func() { cmd.Process.Signal(syscall.SIGKILL) })
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("survivor rank %d: %v", r, err)
		}
	}
	ws := waitStatus(t, cmd)
	if !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("wait status %v, want SIGKILL; output:\n%s", ws, out)
	}
	for _, tr := range trs {
		evs := tr.world.Evictions()
		if len(evs) != 1 || evs[0].Rank != 2 {
			t.Fatalf("rank %d evictions: %v", tr.cfg.Self, evs)
		}
		msg := evs[0].Err.Error()
		if !strings.Contains(msg, "heartbeat") && !strings.Contains(msg, "unreachable") {
			t.Errorf("rank %d eviction cause %q lacks a liveness diagnosis", tr.cfg.Self, msg)
		}
	}
}

// SIGSTOP freezes the worker without killing it: the survivors must evict
// it on heartbeat staleness exactly as a kill, and when SIGCONT resumes the
// zombie it must discover its own eviction and exit with an error rather
// than rejoin or hang.
func TestChaosProcessSIGSTOPThenCont(t *testing.T) {
	var stop, cont sync.Once
	errs, trs, cmd, out := chaosRun(t, 3, 10, "clean", func(g int, cmd *exec.Cmd) {
		if g == 2 {
			stop.Do(func() { cmd.Process.Signal(syscall.SIGSTOP) })
		}
		if g == 8 {
			// By now the survivors have evicted the frozen rank (they could
			// not have passed gen 3's barrier otherwise). Resume it.
			cont.Do(func() { cmd.Process.Signal(syscall.SIGCONT) })
		}
	})
	cont.Do(func() { cmd.Process.Signal(syscall.SIGCONT) })
	for r, err := range errs {
		if err != nil {
			t.Errorf("survivor rank %d: %v", r, err)
		}
	}
	if ws := waitStatus(t, cmd); ws.Signaled() {
		t.Fatalf("resumed worker died of signal %v, want error exit; output:\n%s", ws.Signal(), out)
	}
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("resumed worker exit code %d, want 3 (must discover its eviction); output:\n%s", code, out)
	}
	for _, tr := range trs {
		evs := tr.world.Evictions()
		if len(evs) != 1 || evs[0].Rank != 2 {
			t.Fatalf("rank %d evictions: %v", tr.cfg.Self, evs)
		}
		msg := evs[0].Err.Error()
		if !strings.Contains(msg, "heartbeat") && !strings.Contains(msg, "unreachable") {
			t.Errorf("rank %d eviction cause %q lacks a liveness diagnosis", tr.cfg.Self, msg)
		}
	}
}
