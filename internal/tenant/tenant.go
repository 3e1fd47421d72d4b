// Package tenant hosts many isolated communities inside one process:
// a Registry of named tenants, each with its own Monitor (or follower /
// router Driver), its own data directory under <root>/tenants/<name>/,
// a bearer auth token, and enforced quotas. server.TenantServer
// namespaces the whole HTTP API under /t/{tenant}/... on top of it;
// cmd/paretomon's `serve -config fleet.yaml` stands a fleet up
// declaratively. See docs/OPERATIONS.md for the operator guide.
//
// Isolation model: tenants share nothing but the process. Every tenant
// owns a full engine (frontiers, WAL, snapshots, subscriptions), so a
// tenant's workload replayed alone on a standalone monitor produces
// byte-identical frontiers — the multi-tenant integration suite gates
// on exactly that. Quota enforcement happens at the serving edge
// (before the monitor is touched), never inside the engines, so the
// ingest hot path is identical with and without quotas.
package tenant

import (
	"context"
	"crypto/subtle"
	"fmt"
	"sync"
	"time"

	paretomon "repro"
	"repro/internal/partition"
)

// Tenant is one hosted community: an isolated Driver plus the serving-
// edge state (token, quotas, usage counts, rate limiter) the registry
// enforces around it.
type Tenant struct {
	name string
	spec Spec
	dir  string // data directory ("" when not persistent)

	mon *paretomon.Monitor // primary and follower tenants
	rt  *partition.Router  // router tenants

	mu     sync.Mutex
	token  string
	closed bool
	// Session context: cancelled on token rotation and on delete, so
	// in-flight requests — SSE streams especially — end immediately
	// instead of riding an invalidated credential.
	sessCtx    context.Context
	sessCancel context.CancelFunc

	// Usage counters behind the quota gate. users mirrors the monitor's
	// alive count (initialized from it on boot, then maintained by the
	// gate); pending counts the objects reserved by calls still in
	// flight, on top of the monitor's alive objects; subs counts open
	// subscription streams.
	users   int
	pending int
	subs    int

	// Token-bucket request limiter (Quotas.MaxRequestsPerSec).
	rateTokens float64
	rateLast   time.Time

	// now is the rate limiter's clock, swappable in tests.
	now func() time.Time

	tel *hooks
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Spec returns a copy of the tenant's spec with the current token.
func (t *Tenant) Spec() Spec {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spec
	s.Token = t.token
	return s
}

// Monitor returns the tenant's monitor, or nil for a router tenant.
func (t *Tenant) Monitor() *paretomon.Monitor { return t.mon }

// Router returns the tenant's partition router, or nil otherwise.
func (t *Tenant) Router() *partition.Router { return t.rt }

// SessionContext returns a context cancelled when the tenant's token
// rotates or the tenant is deleted. The HTTP layer merges it into
// every tenant-scoped request context, which is what makes rotation
// and deletion invalidate in-flight requests and live SSE streams.
func (t *Tenant) SessionContext() context.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessCtx
}

// Authorize checks a bearer token. A tenant configured without a token
// accepts any credential (including none).
func (t *Tenant) Authorize(token string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.token == "" {
		return nil
	}
	if subtle.ConstantTimeCompare([]byte(token), []byte(t.token)) != 1 {
		return fmt.Errorf("%w: tenant %q", ErrUnauthorized, t.name)
	}
	return nil
}

// fillRateLocked starts the token bucket full (a fresh or newly
// rate-limited tenant gets its whole burst). Caller holds t.mu or has
// exclusive access.
func (t *Tenant) fillRateLocked() {
	if rate := t.spec.Quotas.MaxRequestsPerSec; rate > 0 {
		t.rateTokens = rate
		if t.rateTokens < 1 {
			t.rateTokens = 1
		}
	}
}

// rotateLocked installs a new token and cancels the current session
// context. Caller holds t.mu.
func (t *Tenant) rotateLocked(token string) {
	t.token = token
	t.sessCancel()
	t.sessCtx, t.sessCancel = context.WithCancel(context.Background())
}

// Admit charges the request-rate limiter: one token per request,
// refilled at MaxRequestsPerSec with a burst of one second's worth
// (minimum 1). Zero rate means unlimited.
func (t *Tenant) Admit() error {
	rate := t.spec.Quotas.MaxRequestsPerSec
	if rate <= 0 {
		return nil
	}
	burst := rate
	if burst < 1 {
		burst = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.rateTokens += now.Sub(t.rateLast).Seconds() * rate
	t.rateLast = now
	if t.rateTokens > burst {
		t.rateTokens = burst
	}
	if t.rateTokens < 1 {
		t.tel.quotaReject("rate")
		return &QuotaError{Tenant: t.name, Resource: "rate", Limit: int(rate)}
	}
	t.rateTokens--
	return nil
}

// ReserveObjects admits names into the object quota before an
// Add/AddBatch, or refuses the whole batch atomically: nothing is
// reserved on failure, and for a multi-object batch the error is a
// *paretomon.BatchError locating the first object that does not fit
// (its chain reaches ErrQuotaExceeded). Names the monitor already holds
// are not charged — a re-sent batch answered from the monitor's memo
// adds nothing — and the count reserved is returned. Usage is the
// monitor's alive object count — which removal and window expiry lower
// — plus the reservations in flight, capped at the window on a windowed
// tenant: arrivals into a full window evict as many as they add. Every
// successful reservation must be ended by ReleaseObjects of the count
// once the monitor call has returned, whatever its outcome.
func (t *Tenant) ReserveObjects(names []string) (int, error) {
	var fresh []int // the indices of names the monitor does not hold
	for i, name := range names {
		if t.mon == nil || !t.mon.HasObject(name) {
			fresh = append(fresh, i)
		}
	}
	limit := t.spec.Quotas.MaxObjects
	t.mu.Lock()
	defer t.mu.Unlock()
	used := t.aliveObjects() + t.pending
	after := used + len(fresh)
	if w := t.spec.Window; w > 0 {
		after = min(after, w)
	}
	if limit > 0 && len(fresh) > 0 && after > limit {
		t.tel.quotaReject("objects")
		qerr := &QuotaError{Tenant: t.name, Resource: "objects", Limit: limit}
		over := fresh[max(limit-used, 0)] // the first object over the line
		if len(names) > 1 {
			return 0, &paretomon.BatchError{Index: over, Object: names[over], Err: qerr}
		}
		return 0, qerr
	}
	t.pending += len(fresh)
	t.tel.ingested(len(fresh))
	return len(fresh), nil
}

// ReleaseObjects ends a reservation of n objects once the monitor call
// it admitted has returned: the objects it added are the monitor's alive
// count from then on, and a failed call added none.
func (t *Tenant) ReleaseObjects(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending -= n
}

// ReserveUser admits one AddUser into the user quota.
func (t *Tenant) ReserveUser() error {
	max := t.spec.Quotas.MaxUsers
	t.mu.Lock()
	defer t.mu.Unlock()
	if max > 0 && t.users+1 > max {
		t.tel.quotaReject("users")
		return &QuotaError{Tenant: t.name, Resource: "users", Limit: max}
	}
	t.users++
	return nil
}

// UnreserveUser rolls back a user reservation.
func (t *Tenant) UnreserveUser() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.users--
}

// UserRemoved releases one user's quota after a successful delete.
func (t *Tenant) UserRemoved() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.users--
}

// ReserveSubscription admits one SSE stream into the subscription
// quota. The returned release must be called when the stream ends; it
// is idempotent. Deleting the tenant while streams are live works
// through the session context — the handlers unwind and call their
// releases on the way out.
func (t *Tenant) ReserveSubscription() (release func(), err error) {
	max := t.spec.Quotas.MaxSubscriptions
	t.mu.Lock()
	defer t.mu.Unlock()
	if max > 0 && t.subs+1 > max {
		t.tel.quotaReject("subscriptions")
		return nil, &QuotaError{Tenant: t.name, Resource: "subscriptions", Limit: max}
	}
	t.subs++
	t.tel.subs(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.subs--
			t.tel.subs(-1)
		})
	}, nil
}

// Usage returns the current quota consumption (users, objects — alive
// or reserved —, open subscription streams).
func (t *Tenant) Usage() (users, objects, subs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.users, t.aliveObjects() + t.pending, t.subs
}

// aliveObjects is the monitor's alive object count; a router tenant has
// no monitor of its own.
func (t *Tenant) aliveObjects() int {
	if t.mon == nil {
		return 0
	}
	return t.mon.AliveObjectCount()
}

// close cancels the session and shuts the driver down.
func (t *Tenant) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.sessCancel()
	t.mu.Unlock()
	if t.rt != nil {
		return t.rt.Close()
	}
	return t.mon.Close()
}
