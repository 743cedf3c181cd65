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
// hosting the other ranks in-process. The assertions pin exit-status
// attribution end to end: what the child's process state reports must agree
// with the abort cause the in-process ranks return.

const chaosEnvGuard = "EGD_CHAOS_HELPER"

// chaosBody is the SPMD body every chaos rank runs: lockstep generations
// (gather at rank 0, then a barrier); any error ends the rank. fail, when
// non-nil, is consulted each generation so a scripted rank can die on cue.
func chaosBody(gens int, fail func(g int, c *Comm) error) func(c *Comm) error {
	return func(c *Comm) error {
		for g := 0; g < gens; g++ {
			if fail != nil {
				if err := fail(g, c); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				for src := 1; src < c.Size(); src++ {
					if _, err := c.Recv(src, 7); err != nil {
						return err
					}
				}
			} else if err := c.Send(0, 7, float64(g)); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
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
// the in-process errors, the finished child command, and its combined
// output. The in-process ranks bound every receive by recvTimeout (0: no
// bound). onGen, when non-nil, fires on rank 0 at the top of each
// generation (the chaos trigger).
func chaosRun(t *testing.T, size, gens int, mode string, recvTimeout time.Duration, onGen func(g int, cmd *exec.Cmd)) ([]error, *exec.Cmd, string) {
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
			w.SetRecvTimeout(recvTimeout)
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
	// already gone; a SIGSTOP'd child is resumed by a timer its test set). Bound
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
	return errs, cmd, out.String()
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
// status 0, goodbye on the wire, and no rank fails.
func TestChaosProcessCleanExit(t *testing.T) {
	errs, cmd, out := chaosRun(t, 3, 4, "clean", 0, nil)
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
}

// assertBlamed checks that every in-process rank unwound on rank 2's
// failure, and that the cause it returns says what contains.
func assertBlamed(t *testing.T, errs []error, contains ...string) {
	t.Helper()
	for r, err := range errs {
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 {
			t.Errorf("rank %d returned %v, want the *RankFailedError of rank 2", r, err)
			continue
		}
		ok := false
		for _, c := range contains {
			ok = ok || strings.Contains(err.Error(), c)
		}
		if !ok {
			t.Errorf("rank %d cause %q names none of %q", r, err, contains)
		}
	}
}

// A worker process that dies of its own error: nonzero exit status, and the
// other ranks abort on the worker's actual error (carried by its goodbye
// frame), not on a liveness guess.
func TestChaosProcessErrorExit(t *testing.T) {
	errs, cmd, out := chaosRun(t, 3, 8, "error", 0, nil)
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("erroring worker exit code %d, want 3; output:\n%s", code, out)
	}
	assertBlamed(t, errs, "worker exploded")
}

// kill -9 mid-run: the wait status reports SIGKILL, and the other ranks see
// only a dead socket — a connection that ends, or a write that fails,
// before the worker's goodbye: every rank aborts naming it.
func TestChaosProcessSIGKILL(t *testing.T) {
	var once sync.Once
	errs, cmd, out := chaosRun(t, 3, 10, "clean", 0, func(g int, cmd *exec.Cmd) {
		if g == 2 {
			once.Do(func() { cmd.Process.Signal(syscall.SIGKILL) })
		}
	})
	ws := waitStatus(t, cmd)
	if !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("wait status %v, want SIGKILL; output:\n%s", ws, out)
	}
	assertBlamed(t, errs, "before its goodbye", "write to rank 2")
}

// SIGSTOP freezes the worker without killing it or its sockets: only the
// receive deadline notices, and the world aborts on it. When SIGCONT
// resumes the worker it hears the others' error goodbyes and exits with an
// error rather than hang.
//
// kill(2) returns once the signal is queued, not once the worker has
// stopped: the stop lands when the worker's threads next pass the kernel's
// signal path, and until then the mesh can run its remaining generations
// to the end. Rank 0 holds its generation until wait4(WUNTRACED) reports
// the worker stopped, so the world cannot finish before the freeze.
func TestChaosProcessSIGSTOPThenCont(t *testing.T) {
	var stop, cont sync.Once
	resume := func(cmd *exec.Cmd) { cont.Do(func() { cmd.Process.Signal(syscall.SIGCONT) }) }
	errs, cmd, out := chaosRun(t, 3, 10, "clean", 500*time.Millisecond, func(g int, cmd *exec.Cmd) {
		if g == 2 {
			stop.Do(func() {
				if err := cmd.Process.Signal(syscall.SIGSTOP); err != nil {
					t.Errorf("SIGSTOP: %v", err)
					return
				}
				var ws syscall.WaitStatus
				if _, err := syscall.Wait4(cmd.Process.Pid, &ws, syscall.WUNTRACED, nil); err != nil || !ws.Stopped() {
					t.Errorf("waiting for the worker to stop: status %v, %v", ws, err)
				}
				time.AfterFunc(1500*time.Millisecond, func() { resume(cmd) })
			})
		}
	})
	for r, err := range errs {
		if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrRecvTimeout) {
			t.Errorf("rank %d returned %v, want the receive deadline's abort", r, err)
		}
	}
	if !errors.Is(errs[0], ErrRecvTimeout) && !errors.Is(errs[1], ErrRecvTimeout) {
		t.Errorf("no rank's deadline fired: %v", errs)
	}
	if ws := waitStatus(t, cmd); ws.Signaled() {
		t.Fatalf("resumed worker died of signal %v, want error exit; output:\n%s", ws.Signal(), out)
	}
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("resumed worker exit code %d, want 3 (must hear of the abort); output:\n%s", code, out)
	}
}
