package server

import (
	"fmt"
	"sync"
	"time"
)

// TenantLimits bounds what one tenant may have in flight.
type TenantLimits struct {
	// MaxActive caps a tenant's queued+running+paused jobs (0 = unlimited).
	MaxActive int
	// RatePerSec refills the tenant's submission token bucket (0 disables
	// rate limiting).
	RatePerSec float64
	// Burst is the bucket capacity (0 with RatePerSec > 0 means 1).
	Burst int
}

// quotaError is a structured quota rejection carrying the Retry-After hint.
type quotaError struct {
	Reason            string `json:"reason"`
	Detail            string `json:"detail"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("server: quota rejected (%s): %s", e.Reason, e.Detail)
}

type tenantState struct {
	active    int
	tokens    float64
	lastNanos int64
}

// quotaTable enforces per-tenant active-job caps and token-bucket rate
// limits. All wall-clock reads go through nowNanos so tests can inject a
// fake clock and the rest of the package stays deterministic.
type quotaTable struct {
	mu      sync.Mutex
	limits  TenantLimits
	tenants map[string]*tenantState
	nowFn   func() int64
}

func newQuotaTable(limits TenantLimits, nowFn func() int64) *quotaTable {
	if nowFn == nil {
		nowFn = nowNanos
	}
	return &quotaTable{limits: limits, tenants: make(map[string]*tenantState), nowFn: nowFn}
}

// nowNanos is the quota layer's single wall-clock site.
func nowNanos() int64 {
	return time.Now().UnixNano() //egdlint:allow determinism token-bucket refill clock; never feeds a trajectory
}

func (q *quotaTable) state(tenant string) *tenantState {
	st, ok := q.tenants[tenant]
	if !ok {
		st = &tenantState{tokens: q.burst(), lastNanos: q.nowFn()}
		q.tenants[tenant] = st
	}
	return st
}

func (q *quotaTable) burst() float64 {
	if q.limits.Burst > 0 {
		return float64(q.limits.Burst)
	}
	return 1
}

// admit charges one submission against the tenant's rate bucket and active
// cap, reserving an active slot on success. A nil error means the caller
// must eventually release the slot with release().
func (q *quotaTable) admit(tenant string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.state(tenant)
	if q.limits.MaxActive > 0 && st.active >= q.limits.MaxActive {
		return &quotaError{
			Reason:            "tenant_active_limit",
			Detail:            fmt.Sprintf("tenant %q already has %d active jobs (limit %d)", tenant, st.active, q.limits.MaxActive),
			RetryAfterSeconds: 5,
		}
	}
	if q.limits.RatePerSec > 0 {
		now := q.nowFn()
		elapsed := float64(now-st.lastNanos) / 1e9
		st.lastNanos = now
		st.tokens += float64(elapsed * q.limits.RatePerSec)
		if b := q.burst(); st.tokens > b {
			st.tokens = b
		}
		if st.tokens < 1 {
			wait := (1 - st.tokens) / q.limits.RatePerSec
			retry := int(wait)
			if float64(retry) < wait {
				retry++
			}
			if retry < 1 {
				retry = 1
			}
			return &quotaError{
				Reason:            "tenant_rate_limit",
				Detail:            fmt.Sprintf("tenant %q exceeded %.3g submissions/s (burst %.0f)", tenant, q.limits.RatePerSec, q.burst()),
				RetryAfterSeconds: retry,
			}
		}
		st.tokens--
	}
	st.active++
	return nil
}

// restore re-reserves an active slot for a tenant's job recovered from the
// journal at boot. Unlike admit it charges no rate tokens: the submission
// was already paid for in the previous process's lifetime.
func (q *quotaTable) restore(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.state(tenant).active++
}

// release frees one of the tenant's active slots (job reached a terminal
// state).
func (q *quotaTable) release(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if st, ok := q.tenants[tenant]; ok && st.active > 0 {
		st.active--
	}
}
