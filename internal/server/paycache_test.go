package server

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestCostModelCacheDiscount: every memoizable job is priced by the type
// table the engine always keeps. A memoizable full-recompute job costs at
// least 10x less than its full match count, a noisy mixed one (the table
// stands aside) costs exactly that, an exact mixed one is discounted, and an
// incremental memoizable job — serve_small_jobs' kind — costs what it cost
// before the table was the default.
func TestCostModelCacheDiscount(t *testing.T) {
	m := DefaultCostModel()
	cfg := func(mutate func(*sim.Config)) sim.Config {
		c := sim.DefaultConfig(2, 32)
		c.Generations = 5000
		mutate(&c)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	perMatch := func(c sim.Config) float64 {
		rounds := float64(c.Rules.Rounds)
		if c.ExactPayoffs {
			rounds = float64(int64(1) << uint(2*c.Memory))
		}
		return m.Cal.GameSeconds[c.Memory] * rounds / float64(m.CalRounds)
	}
	undiscounted := func(c sim.Config) float64 {
		s := float64(c.NumSSets)
		return float64(c.Generations) * s * (s - 1) * perMatch(c)
	}

	full := cfg(func(c *sim.Config) { c.FullRecompute = true })
	if got := m.EstimateSeconds(full); got <= 0 || got > undiscounted(full)/10 {
		t.Fatalf("memoizable full-recompute job: %v, want in (0, %v]", got, undiscounted(full)/10)
	}
	noisy := cfg(func(c *sim.Config) {
		c.FullRecompute, c.Kind, c.Rules.ErrorRate = true, sim.MixedStrategies, 0.01
	})
	if got, want := m.EstimateSeconds(noisy), undiscounted(noisy); got != want {
		t.Fatalf("noisy mixed job: %v, want the undiscounted %v", got, want)
	}
	exact := cfg(func(c *sim.Config) {
		c.FullRecompute, c.Kind, c.Rules.ErrorRate, c.ExactPayoffs = true, sim.MixedStrategies, 0.01, true
	})
	if got := m.EstimateSeconds(exact); got >= undiscounted(exact) {
		t.Fatalf("exact mixed job: %v, want below the undiscounted %v", got, undiscounted(exact))
	}

	// The parent's incremental formula, and the value it gave.
	incr := cfg(func(*sim.Config) {})
	s, churn := float64(incr.NumSSets), incr.PCRate+incr.Mu
	want := (s*(s-1) + float64(incr.Generations-1)*churn*2*(s-1)) * perMatch(incr)
	if got := m.EstimateSeconds(incr); got != want {
		t.Fatalf("incremental memoizable job: %v, want the parent's %v", got, want)
	}
}

// TestJobSpecPayoffCacheFields: both knobs that left the job spec — the
// table's capacity, then the table itself — are refused by name, not
// silently dropped.
func TestJobSpecPayoffCacheFields(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, field := range []string{"payoff_cache", "payoff_cache_size"} {
		resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "",
			`{"memory":1,"ssets":8,"generations":10,"seed":1,"`+field+`":true}`)
		if detail, _ := m["detail"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(detail, `"`+field+`"`) {
			t.Fatalf("%s: got %d %v, want a 400 naming the field", field, resp.StatusCode, m)
		}
	}
}

// TestJournalWithPayoffCacheSizeStillBoots: the journal is decoded
// leniently, so a record an earlier daemon wrote for a job that set the
// removed knobs — below is one such journal, its generation count shortened,
// carrying both payoff_cache and payoff_cache_size — re-queues and runs to the
// result of the same spec without them.
func TestJournalWithPayoffCacheSizeStillBoots(t *testing.T) {
	const spec = `"memory":1,"ssets":8,"generations":300,"rounds":100,"seed":11,"full_recompute":true`
	dir := t.TempDir()
	journal := `{"kind":"meta","epoch":1}
{"kind":"submit","job":"j-0001-000001","tenant":"default","spec":{` + spec + `,"payoff_cache":true,"payoff_cache_size":4096},"estimated_seconds":1.5192144056967525}
{"kind":"state","job":"j-0001-000001","state":"running","event_id":1}
`
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newDurableServer(t, dir)
	waitState(t, ts, "j-0001-000001", StateDone)
	got := resultMinusElapsed(t, ts, "j-0001-000001")

	_, fresh := newDurableServer(t, t.TempDir())
	id := submit(t, fresh, "", "{"+spec+"}")
	waitState(t, fresh, id, StateDone)
	if want := resultMinusElapsed(t, fresh, id); !reflect.DeepEqual(got, want) {
		t.Errorf("job replayed from the parent's journal differs from a fresh run\n got: %v\nwant: %v", got, want)
	}
}

// TestServiceRunsCachedJob: a memoizable job submitted over HTTP — no knob
// asked for the table — completes and its folded metrics include the cache
// series.
func TestServiceRunsCachedJob(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := submit(t, ts, "",
		`{"memory":1,"ssets":8,"generations":30,"rounds":10,"seed":4,"full_recompute":true,"metrics":true}`)
	waitState(t, ts, id, StateDone)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "egd_payoff_cache_hits_total") {
		t.Fatalf("daemon metrics carry no cache series:\n%s", body)
	}
}
