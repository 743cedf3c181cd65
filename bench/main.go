// Command bench is the repository's benchmark: eight named workloads over
// the public entry points of the engines, the transports and the service,
// each verified against a reference, reported as end-to-end metrics (what a
// user waits for) and, in a separate traced pass, per-layer metrics (where
// the time went). It changes nothing it measures; README.md in this
// directory defines every metric and workload.
//
// Usage, from the repository root:
//
//	go run ./bench                       # all workloads, untraced
//	go run ./bench -trace 1              # ... plus the traced pass and probes
//	go run ./bench -workload seq_incr_m6 # one workload, in this process
//	go run ./bench -seed 2 -seconds 10
//	go run ./bench -quick                # harness smoke, 1/20 size
//	go run ./bench -compare A.json B.json
//	go run ./bench -selfcheck
//	go run ./bench -update-golden
//
// With -workload the last line of standard output is the result object the
// benchmark driver reads (BENCHMARK.json declares this contract).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run is main without the exit: 0 clean, 1 failed operations or a
// regression, 2 an operational error.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run this one workload in-process and end with the driver's result line")
		seed      = fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 10, "measured time per workload run")
		trace     = fs.Int("trace", 0, "1 adds the traced pass: Config.Metrics on, layer probes, spans to bench/out/trace.json")
		quick     = fs.Bool("quick", false, "harness smoke: one operation per workload at 1/20 size")
		golden    = fs.Bool("update-golden", false, "rewrite bench/golden.json from this run (default seed only)")
		compare   = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced pass twice and compare the two")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if err := validateDefs(endToEnd, perLayer); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	if *golden && *seed != defaultSeed {
		return 2, fmt.Errorf("-update-golden needs the default seed %d", defaultSeed)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, updateGolden: *golden}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two result files")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		return runChild(out, w, o)
	case *selfcheck:
		return runSelfcheck(out, o)
	}
	return runAll(out, o, "result.json")
}

// value is one number of the driver's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object the driver reads from the last line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func passDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func detailPath(workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir(), fmt.Sprintf("run-%s-t%d.json", workload, t))
}

// runChild runs one workload in this process, prints its report, leaves the
// detail file for a parent to merge, and ends with the result line.
func runChild(out io.Writer, w workload, o options) (int, error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return 2, err
	}
	r, err := runWorkload(w, o)
	if err != nil {
		return 2, err
	}
	printRun(out, r)
	detail, err := json.Marshal(r)
	if err != nil {
		return 2, err
	}
	if err := os.WriteFile(detailPath(w.name, o.trace), detail, 0o644); err != nil {
		return 2, err
	}
	if o.trace {
		path := filepath.Join(outDir(), "trace-"+w.name+".json")
		if err := writeChromeTrace(path, chromeEvents(r.Spans, 1)); err != nil {
			return 2, err
		}
	}
	line := resultLine{
		Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]value{},
	}
	for _, d := range passDefs(o.trace) {
		line.Metrics[d.Name] = value{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "%s\n", data)
	if r.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// printRun writes one line per metric defined on the run's workload, then
// the run's notes.
func printRun(out io.Writer, r *runResult) {
	for _, d := range passDefs(r.Traced) {
		if !d.definedOn(r.Workload) {
			continue
		}
		v, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(out, "%-17s %-36s %14s %s\n", r.Workload, d.Name, "missing", d.Unit)
			continue
		}
		fmt.Fprintf(out, "%-17s %-36s %14.6g %s\n", r.Workload, d.Name, v, d.Unit)
	}
	if !r.Traced {
		fmt.Fprintf(out, "%-17s %-36s %14.6g %s  (%d failed of %d attempted)\n", r.Workload, "fail_ratio",
			float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Failed, r.Attempted)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "%-17s # %s\n", r.Workload, n)
	}
}

// header describes the host and build a result file was measured on.
type header struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

func newHeader(o options) header {
	h := header{
		Commit: "unknown", NProc: runtime.NumCPU(), CPU: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: "default", Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
	}
	if v := os.Getenv("GOGC"); v != "" {
		h.GOGC = v
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resultFile is what a whole invocation writes to bench/out.
type resultFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

// runAll runs every workload, each in a child process of its own so heaps,
// GC state and peak RSS do not leak from one workload into the next, and
// writes one result file per name in files. With several files each
// workload is run once per file back to back, so the files see the same
// phase of the host (-selfcheck).
func runAll(out io.Writer, o options, files ...string) (int, error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return 2, err
	}
	self, err := os.Executable()
	if err != nil {
		return 2, err
	}
	h := newHeader(o)
	fmt.Fprintf(out, "# egd bench: commit=%s nproc=%d cpu=%q go=%s GOMAXPROCS=%d GOGC=%s seed=%d seconds=%g quick=%v\n",
		h.Commit, h.NProc, h.CPU, h.GoVersion, h.GOMAXPROCS, h.GOGC, h.Seed, h.Seconds, h.Quick)
	results := make([]resultFile, len(files))
	for i := range results {
		results[i].Header = h
	}
	start := time.Now()
	code := 0
	var events []chromeEvent
	passes := []bool{false}
	if o.trace {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		for i, w := range workloads {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", "0",
			}
			if traced {
				args[len(args)-1] = "1"
			}
			if o.quick {
				args = append(args, "-quick")
			}
			if o.updateGolden && !traced {
				args = append(args, "-update-golden")
			}
			for f := range results {
				r, failed, err := spawn(out, self, args, w.name, traced)
				if err != nil {
					return 2, fmt.Errorf("%s: %w", w.name, err)
				}
				if failed {
					code = 1
				}
				if traced {
					events = append(events, chromeEvents(r.Spans, i+1)...)
					r.Spans = nil
				}
				results[f].Runs = append(results[f].Runs, r)
			}
		}
	}
	if o.trace {
		path := filepath.Join(outDir(), "trace.json")
		if err := writeChromeTrace(path, events); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(events), path)
	}
	for f, file := range files {
		data, err := json.MarshalIndent(results[f], "", " ")
		if err != nil {
			return 2, err
		}
		path := filepath.Join(outDir(), file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "# results written to %s\n", path)
	}
	fmt.Fprintf(out, "# done in %.1f s\n", time.Since(start).Seconds())
	return code, nil
}

// spawn runs one child, passes its report through, and loads its detail
// file. failed reports a child that exited 1 (failed operations).
func spawn(out io.Writer, self string, args []string, workload string, traced bool) (r *runResult, failed bool, err error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, false, err
	}
	if err := cmd.Start(); err != nil {
		return nil, false, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, `{"correct"`) {
			fmt.Fprintln(out, line)
		}
	}
	if err := cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			return nil, false, err
		}
		failed = true
	}
	data, err := os.ReadFile(detailPath(workload, traced))
	if err != nil {
		return nil, failed, err
	}
	r = &runResult{}
	return r, failed, json.Unmarshal(data, r)
}

// runSelfcheck measures the same code twice, each workload's two runs back
// to back, and holds the pair to the benchmark's own bounds: what -compare
// reports here is the noise floor.
func runSelfcheck(out io.Writer, o options) (int, error) {
	o.trace = false
	a, b := "selfcheck-a.json", "selfcheck-b.json"
	if code, err := runAll(out, o, a, b); err != nil || code != 0 {
		return code, err
	}
	return compareFiles(out, filepath.Join(outDir(), a), filepath.Join(outDir(), b))
}
