package server

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestCostModelCacheDiscount: enabling the payoff cache on a memoizable
// full-recompute job must cut the modelled cost by at least the 10x the
// kernel targets, while non-memoizable jobs keep the undiscounted price.
func TestCostModelCacheDiscount(t *testing.T) {
	m := DefaultCostModel()
	base := sim.DefaultConfig(2, 32)
	base.Generations = 5000
	base.FullRecompute = true
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	uncached := m.EstimateSeconds(base)

	cached := base
	cached.PayoffCache = true
	discounted := m.EstimateSeconds(cached)
	if discounted <= 0 {
		t.Fatalf("discounted estimate %v, want > 0", discounted)
	}
	if discounted > uncached/10 {
		t.Fatalf("cache discount too small: %v vs %v uncached (want >= 10x)", discounted, uncached)
	}

	// Mixed strategies with noise are not memoizable: no discount.
	noisy := cached
	noisy.Kind = sim.MixedStrategies
	noisy.Rules.ErrorRate = 0.01
	if got := m.EstimateSeconds(noisy); got != m.EstimateSeconds(func() sim.Config {
		c := noisy
		c.PayoffCache = false
		return c
	}()) {
		t.Fatalf("non-memoizable job got a cache discount: %v", got)
	}

	// Exact mode is memoizable even for mixed strategies.
	exact := base
	exact.Kind = sim.MixedStrategies
	exact.ExactPayoffs = true
	exact.PayoffCache = true
	exactOff := exact
	exactOff.PayoffCache = false
	if m.EstimateSeconds(exact) >= m.EstimateSeconds(exactOff) {
		t.Fatal("exact-mode job got no cache discount")
	}
}

// TestJobSpecPayoffCacheFields: the wire field reaches the engine config,
// and the capacity knob that left with the LRU is refused by name, not
// silently dropped.
func TestJobSpecPayoffCacheFields(t *testing.T) {
	spec, err := parseSpec(strings.NewReader(`{"memory":1,"ssets":8,"generations":10,"seed":1,"payoff_cache":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err := spec.Config(); err != nil || !cfg.PayoffCache {
		t.Fatalf("payoff_cache lost in translation: %+v, %v", cfg, err)
	}
	ts := newTestServer(t, Options{})
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "",
		`{"memory":1,"ssets":8,"generations":10,"seed":1,"payoff_cache":true,"payoff_cache_size":512}`)
	if detail, _ := m["detail"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(detail, `"payoff_cache_size"`) {
		t.Fatalf("payoff_cache_size: got %d %v, want a 400 naming the field", resp.StatusCode, m)
	}
}

// TestJournalWithPayoffCacheSizeStillBoots: the journal is decoded
// leniently, so a record the parent daemon wrote for a job that set the
// removed knob — below is one such journal, its generation count shortened —
// re-queues and runs to the result of the same spec without it.
func TestJournalWithPayoffCacheSizeStillBoots(t *testing.T) {
	const spec = `"memory":1,"ssets":8,"generations":300,"rounds":100,"seed":11,"full_recompute":true,"payoff_cache":true`
	dir := t.TempDir()
	journal := `{"kind":"meta","epoch":1}
{"kind":"submit","job":"j-0001-000001","tenant":"default","spec":{` + spec + `,"payoff_cache_size":4096},"estimated_seconds":1.5192144056967525}
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

// TestServiceRunsCachedJob: a cached job submitted over HTTP completes and
// its folded metrics include the cache series.
func TestServiceRunsCachedJob(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := submit(t, ts, "",
		`{"memory":1,"ssets":8,"generations":30,"rounds":10,"seed":4,"full_recompute":true,"payoff_cache":true,"metrics":true}`)
	waitState(t, ts, id, StateDone)
}
