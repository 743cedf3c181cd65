package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares the base value va of one metric with the new value vb,
// given the per-operation samples a and b behind them. The new side
// regressed when its value is worse than the base's by more than the bound.
// When either side's own spread is wider than the bound and the two samples
// interleave, the row cannot be called either way and is reported
// unresolved rather than unchanged.
func verdict(d metricDef, va, vb float64, a, b []float64) (v string, ratio float64) {
	if va == 0 {
		return verdictUnresolved, 0
	}
	ratio = vb / va
	worse := ratio - 1 // lower is better: growing is worse
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	if max(spread(a), spread(b)) > d.Bound && interleave(a, b) {
		return verdictUnresolved, ratio
	}
	if worse > d.Bound {
		return verdictRegressed, ratio
	}
	return verdictOK, ratio
}

// interleave reports whether neither sample lies wholly on one side of the
// other.
func interleave(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// untraced indexes a file's untraced runs by workload.
func (rf *resultFile) untraced() map[string]*runResult {
	m := map[string]*runResult{}
	for _, r := range rf.Runs {
		if !r.Traced {
			m[r.Workload] = r
		}
	}
	return m
}

func (rf *resultFile) failRatio() float64 {
	var failed, attempted int
	for _, r := range rf.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// samplesOf returns the values behind one metric of one run: its
// per-operation samples, or the single reported value (setup_s).
func samplesOf(r *runResult, metric string) []float64 {
	if s := r.Samples[metric]; len(s) > 0 {
		return s
	}
	if v, ok := r.Metrics[metric]; ok {
		return []float64{v}
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of base A
// against new B — the reported values (what the bound gates), then the
// median and quartiles of the samples behind them — and exits non-zero on a
// regression or a higher fail ratio.
func compareFiles(out io.Writer, pathA, pathB string) (int, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "# A (base) = %s commit=%s seed=%d\n# B (new)  = %s commit=%s seed=%d\n",
		pathA, a.Header.Commit, a.Header.Seed, pathB, b.Header.Commit, b.Header.Seed)
	fmt.Fprintf(out, "%-17s %-17s %12s %12s %23s %12s %12s %23s %9s %6s  %s\n",
		"workload", "metric", "A", "A median", "A [q1, q3]", "B", "B median", "B [q1, q3]", "B/A", "bound", "verdict")
	code := 0
	ra, rb := a.untraced(), b.untraced()
	for _, w := range workloads {
		x, y := ra[w.name], rb[w.name]
		if x == nil || y == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := samplesOf(x, d.Name), samplesOf(y, d.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			va, vb := x.Metrics[d.Name], y.Metrics[d.Name]
			v, ratio := verdict(d, va, vb, sa, sb)
			if v == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(out, "%-17s %-17s %12.6g %12.6g [%10.5g,%10.5g] %12.6g %12.6g [%10.5g,%10.5g] %9.4f %5.0f%%  %s\n",
				w.name, d.Name, va, median(sa), quantile(sa, 0.25), quantile(sa, 0.75),
				vb, median(sb), quantile(sb, 0.25), quantile(sb, 0.75), ratio, d.Bound*100, v)
		}
	}
	fa, fb := a.failRatio(), b.failRatio()
	fmt.Fprintf(out, "fail_ratio: A %.6g, B %.6g\n", fa, fb)
	if fb > fa {
		fmt.Fprintln(out, "fail_ratio rose: regressed")
		code = 1
	}
	return code, nil
}
