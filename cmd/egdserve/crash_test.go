package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Crash-recovery tests: a real egdserve process is started as a helper
// subprocess (the chaos-test idiom), killed with SIGKILL mid-job or drained
// with SIGTERM, and a daemon restarted over the same data directory must
// serve a /result identical — in every trajectory-determined field — to an
// uninterrupted run of the same spec.

const (
	helperEnv   = "EGDSERVE_CRASH_HELPER"
	dataDirEnv  = "EGDSERVE_DATA_DIR"
	addrFileEnv = "EGDSERVE_ADDR_FILE"
	// crashSpec must run long enough that the interruption lands mid-
	// trajectory: full_recompute pins the match count and error_rate > 0
	// keeps every match out of the payoff table (a noise-free run of this
	// size is served by type in milliseconds), so 12k generations is seconds
	// of work with a wide window past the first few checkpoints. Each test
	// also checks the restarted daemon re-queued the job.
	crashSpec       = `{"memory":1,"ssets":8,"generations":12000,"rounds":200,"error_rate":0.01,"seed":90125,"full_recompute":true}`
	crashCheckpoint = 500
)

// TestCrashDaemonHelper is the subprocess body, inert in a normal test run:
// it becomes a real egdserve daemon (durable mode, one worker) and writes
// its bound address where the parent can read it.
func TestCrashDaemonHelper(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process body; run via the crash tests")
	}
	addrFile := os.Getenv(addrFileEnv)
	testHookReady = func(addr string, shutdown func()) {
		os.WriteFile(addrFile, []byte(addr), 0o644) //nolint:errcheck // parent times out and fails the test
	}
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-data-dir", os.Getenv(dataDirEnv),
		"-checkpoint-every", fmt.Sprint(crashCheckpoint),
		"-drain-timeout", "60s",
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper daemon:", err)
		os.Exit(1)
	}
}

// syncBuffer is a mutex-guarded output buffer: os/exec writes to it from
// its own goroutines while the tests poll String.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// startHelperDaemon launches the subprocess daemon over dir and waits for
// its HTTP address.
func startHelperDaemon(t *testing.T, dir string) (*exec.Cmd, string, *syncBuffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashDaemonHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		helperEnv+"=1",
		dataDirEnv+"="+dir,
		addrFileEnv+"="+addrFile,
	)
	var out syncBuffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper daemon: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, "http://" + string(data), &out
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill() //nolint:errcheck // already failing
	t.Fatalf("helper daemon never became ready; output:\n%s", out.String())
	return nil, "", nil
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding %s -> %q: %v", url, raw, err)
	}
	return m
}

func submitCrashSpec(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
		t.Fatalf("submit: status %d, decode err %v, id %q", resp.StatusCode, err, st.ID)
	}
	return st.ID
}

// waitMidRun polls until the job is running past a few durable checkpoints,
// so the interruption tests resume-from-checkpoint rather than
// restart-from-scratch.
func waitMidRun(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		m := getJSON(t, base+"/api/v1/jobs/"+id)
		state, _ := m["state"].(string)
		gen, _ := m["generation"].(float64)
		if state == "running" && gen >= 3*crashCheckpoint {
			return
		}
		if state == "done" || state == "failed" || state == "canceled" {
			t.Fatalf("job settled as %s before the interruption window", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached the interruption window")
}

// waitDone polls the restarted daemon until the job finishes, then returns
// its result with the wall-clock field removed.
func waitDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		m := getJSON(t, base+"/api/v1/jobs/"+id)
		switch m["state"] {
		case "done":
			res := getJSON(t, base+"/api/v1/jobs/"+id+"/result")
			delete(res, "elapsed_seconds")
			return res
		case "failed", "canceled":
			t.Fatalf("job settled as %v (error %v)", m["state"], m["error"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished after restart")
	return nil
}

// crashBaseline computes the uninterrupted-run reference result once and
// shares it between the crash tests (it is deterministic by construction).
var crashBaseline struct {
	once sync.Once
	res  map[string]any
}

func baselineResult(t *testing.T) map[string]any {
	crashBaseline.once.Do(func() {
		dir := os.TempDir()
		tmp, err := os.MkdirTemp(dir, "egdserve-baseline")
		if err != nil {
			t.Fatalf("baseline tempdir: %v", err)
		}
		defer os.RemoveAll(tmp)
		cmd, base, out := startHelperDaemon(t, tmp)
		id := submitCrashSpec(t, base)
		res := waitDone(t, base, id)
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // Wait below surfaces failures
		if err := cmd.Wait(); err != nil {
			t.Fatalf("baseline daemon exit: %v; output:\n%s", err, out.String())
		}
		crashBaseline.res = res
	})
	if crashBaseline.res == nil {
		t.Fatal("baseline computation failed in an earlier test")
	}
	return crashBaseline.res
}

// TestKill9RecoveryBitIdentical SIGKILLs the daemon mid-job. The journal
// says "running"; the restarted daemon must report the job interrupted,
// re-queue it, resume it from its last durable checkpoint, and produce the
// uninterrupted run's result.
func TestKill9RecoveryBitIdentical(t *testing.T) {
	want := baselineResult(t)

	dir := t.TempDir()
	cmd, base, _ := startHelperDaemon(t, dir)
	id := submitCrashSpec(t, base)
	waitMidRun(t, base, id)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait() //nolint:errcheck // killed: non-zero exit is the point

	cmd2, base2, out2 := startHelperDaemon(t, dir)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM) //nolint:errcheck // best-effort cleanup
		cmd2.Wait()                          //nolint:errcheck // best-effort cleanup
	}()
	assertInterrupted(t, waitForRecoveryLine(out2))
	got := waitDone(t, base2, id)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-kill result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
	if !strings.Contains(out2.String(), "1 interrupted while running") {
		t.Errorf("recovery log did not report the job the kill interrupted; output:\n%s", out2.String())
	}
}

// TestSIGTERMDrainResumesBitIdentical sends the daemon SIGTERM mid-job: it
// must drain (checkpoint the running job, journal it queued) and exit zero;
// the restarted daemon finds no job interrupted and finishes the job with
// the uninterrupted run's result.
func TestSIGTERMDrainResumesBitIdentical(t *testing.T) {
	want := baselineResult(t)

	dir := t.TempDir()
	cmd, base, out := startHelperDaemon(t, dir)
	id := submitCrashSpec(t, base)
	waitMidRun(t, base, id)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("drained daemon exited non-zero: %v; output:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "drain complete, no job left running") {
		t.Errorf("drain completion message missing; output:\n%s", out.String())
	}

	cmd2, base2, out2 := startHelperDaemon(t, dir)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM) //nolint:errcheck // best-effort cleanup
		cmd2.Wait()                          //nolint:errcheck // best-effort cleanup
	}()
	if !strings.Contains(waitForRecoveryLine(out2), "0 interrupted while running") {
		t.Errorf("restarted daemon found a job interrupted after a clean drain; output:\n%s", out2.String())
	}
	assertInterrupted(t, out2.String())
	got := waitDone(t, base2, id)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-drain result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
}

// assertInterrupted checks the restarted daemon's recovery line: the one job
// came back to be re-queued, so the interruption landed before it finished.
func assertInterrupted(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "recovered 1 jobs from journal (1 re-queued, 0 paused, 0 terminal") {
		t.Errorf("the job was not re-queued, so the interruption did not land mid-run; output:\n%s", out)
	}
}

// waitForRecoveryLine waits for the helper's recovery summary to appear in
// its captured output (the daemon logs it before serving, but the pipe is
// asynchronous).
func waitForRecoveryLine(out *syncBuffer) string {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "recovered") {
			return s
		}
		time.Sleep(10 * time.Millisecond)
	}
	return out.String()
}
