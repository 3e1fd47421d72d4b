package partition

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// Online rebalancing and router HA.
//
// The migration primitive rests on one property of the paper's model: a
// user's frontier is a pure function of (object stream prefix,
// asserted preference tuples). Two partitions that have processed the
// same stream prefix therefore agree byte-for-byte on what any user's
// frontier would be — so moving a user is: freeze writes (the Router's
// own mutation mutex), export the user's tuples at the source's stream
// position, replay them through the destination's live AddUser path,
// flip ownership by committing a new ring version, and delete the
// source copy. Every step is idempotent or guarded by the ring-version
// barrier, so a crash anywhere leaves a state Reconcile converges from
// — see the failure playbook in docs/PARTITIONING.md.

// DefaultMigrateBatch is how many users move per freeze window during
// Rebalance when RebalanceOptions.BatchSize is zero: small enough that
// one window stalls writes for milliseconds, large enough that ring
// versions do not churn per-user.
const DefaultMigrateBatch = 32

// RebalanceEvent is one observable step of a migration or rebalance,
// delivered synchronously to Config.Observe as the step completes.
// Chaos tests use it as a deterministic crash hook; the CLI prints it
// as progress.
type RebalanceEvent struct {
	// Phase is the step: "ring-bootstrap", "ring-extend", "object-sync",
	// "reconcile", "export", "import", "commit", "delete", "final".
	Phase string
	// From and To are partition indices for migration phases.
	From, To int
	// Users is the batch being migrated, when the phase moves users.
	Users []string
	// Version is the ring version after the step, when it changed.
	Version uint64
	// Detail carries phase-specific context (a partition URL, a count).
	Detail string
}

// event delivers e to the observer, when one is configured.
func (r *Router) event(e RebalanceEvent) {
	if r.observe != nil {
		r.observe(e)
	}
}

// ---------------------------------------------------------------------
// Ring agreement.

// installRing adopts rg when it is newer than the installed one,
// rebuilding the partition set from its URLs (clients are reused per
// URL, so connection pools and ingest streams survive a flip; a remote
// that refused the stream is asked again).
func (r *Router) installRing(rg *Ring) {
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	if r.ring != nil && rg.Version <= r.ring.Version {
		return
	}
	byURL := make(map[string]*remote, len(r.parts))
	for _, p := range r.parts {
		byURL[p.url] = p
	}
	parts := make([]*remote, len(rg.URLs))
	for i, u := range rg.URLs {
		base := strings.TrimRight(u, "/")
		if ex, ok := byURL[base]; ok {
			parts[i] = &remote{client: ex.client, idx: i, url: base}
			delete(byURL, base)
		} else {
			c := newClient(u, r.hc, &r.ringVer)
			parts[i] = &remote{client: c, idx: i, url: c.base}
		}
	}
	// A partition the ring no longer names gets no more batches.
	for _, p := range byURL {
		p.closeStream(true)
	}
	r.parts = parts
	r.ring = rg
	r.ringVer.Store(rg.Version)
}

// RefreshRing fetches every partition's installed ring, adopts the
// newest (including the Router's own), and pushes it to partitions
// that are behind, best-effort. Returns the fleet's agreed ring, nil
// when no partition has one installed (legacy mode).
func (r *Router) RefreshRing(ctx context.Context) (*Ring, error) {
	parts := r.remotes()
	rings := make([]*Ring, len(parts))
	fanOut(parts, func(i int, p *remote) {
		var raw json.RawMessage
		if err := p.do(ctx, http.MethodGet, "/ring", nil, &raw); err != nil {
			return // down or 404: contributes nothing
		}
		if rg, err := DecodeRing(raw); err == nil {
			rings[i] = rg
		}
	})
	best := r.Ring()
	for _, rg := range rings {
		if rg != nil && (best == nil || rg.Version > best.Version) {
			best = rg
		}
	}
	if best == nil {
		return nil, nil
	}
	r.installRing(best)
	payload := json.RawMessage(best.Encode())
	for i, p := range parts {
		if rings[i] == nil || rings[i].Version < best.Version {
			_ = p.do(ctx, http.MethodPut, "/ring", payload, nil)
		}
	}
	return best, nil
}

// commitRing is the ownership barrier: install rg locally (routing and
// header stamping flip immediately), then push it to every partition —
// the new set and any partition the previous ring named that dropped
// out (it must learn it retired). A push failure returns an error with
// the fleet split across versions; every path that commits rings is
// re-runnable and RefreshRing heals stragglers, so the caller retries
// rather than unwinding.
func (r *Router) commitRing(rg *Ring) error {
	prev := r.remotes()
	r.installRing(rg)
	seen := make(map[string]bool)
	var all []*remote
	for _, p := range r.remotes() {
		if !seen[p.url] {
			seen[p.url] = true
			all = append(all, p)
		}
	}
	for _, p := range prev {
		if !seen[p.url] {
			seen[p.url] = true
			all = append(all, p)
		}
	}
	payload := json.RawMessage(rg.Encode())
	errs := make([]error, len(all))
	fanOut(all, func(i int, p *remote) {
		errs[i] = r.withRetry(p, true, func(ctx context.Context) error {
			return p.do(ctx, http.MethodPut, "/ring", payload, nil)
		})
	})
	return collect("commitRing", errs)
}

// ensureRingLocked returns the fleet's agreed ring, bootstrapping
// version 1 over the Router's current topology when no partition has
// one yet. Caller holds r.mu.
func (r *Router) ensureRingLocked(ctx context.Context) (*Ring, error) {
	rg, err := r.RefreshRing(ctx)
	if err != nil || rg != nil {
		return rg, err
	}
	parts := r.remotes()
	urls := make([]string, len(parts))
	for i, p := range parts {
		urls[i] = p.url
	}
	rg, err = NewRing(1, len(parts), r.plan.VNodes(), urls, nil)
	if err != nil {
		return nil, err
	}
	if err := r.commitRing(rg); err != nil {
		return nil, err
	}
	r.event(RebalanceEvent{Phase: "ring-bootstrap", Version: rg.Version})
	return rg, nil
}

// ---------------------------------------------------------------------
// Router HA lease.

// leaseState is the Router's cached view of the fleet write lease. The
// renewal clock is local and monotonic — only partition 0's clock
// judges expiry; this side merely renews early (a third of the TTL)
// and fences its own mutations against the conservative expiry (see
// leaseExpiry). renewed is anchored BEFORE the renewal request went
// out, so it under-estimates the grant's remaining life; ttl is the
// TTL the server actually granted (it may clamp the request).
type leaseState struct {
	mu      sync.Mutex
	held    bool
	renewed time.Time
	ttl     time.Duration
	epoch   uint64
}

type leasePayload struct {
	ID        string `json:"id"`
	TTLMillis int64  `json:"ttl_ms"`
}

type leaseGrant struct {
	ID        string `json:"id"`
	Epoch     uint64 `json:"epoch"`
	TTLMillis int64  `json:"ttl_ms"`
}

// LeaseEpoch returns the fencing epoch of the lease this Router holds
// (0 when HA is disabled or the lease is not held).
func (r *Router) LeaseEpoch() uint64 {
	r.lease.mu.Lock()
	defer r.lease.mu.Unlock()
	if !r.lease.held {
		return 0
	}
	return r.lease.epoch
}

// ensureLease acquires or renews the fleet write lease before a
// mutation. A no-op unless Config.RouterID enabled HA. Partition 0
// arbitrates (a fleet write needs every partition up anyway, so the
// lease adds no availability constraint); ErrNotLeaseHolder means
// another router holds it and this one must stand by. Caller holds
// r.mu.
func (r *Router) ensureLease() error {
	if r.leaseID == "" {
		return nil
	}
	r.lease.mu.Lock()
	defer r.lease.mu.Unlock()
	ttl := r.lease.ttl
	if ttl <= 0 {
		ttl = r.leaseTTL
	}
	if r.lease.held && time.Since(r.lease.renewed) < ttl/3 {
		return nil
	}
	p0 := r.remotes()[0]
	req := leasePayload{ID: r.leaseID, TTLMillis: r.leaseTTL.Milliseconds()}
	var grant leaseGrant
	// Anchor the renewal clock before each attempt goes out: the server
	// stamps its expiry when it processes the POST, so any local instant
	// at or before that moment under-estimates the grant's remaining
	// life — the safe direction for the mutation fence (leaseExpiry).
	var t0 time.Time
	err := r.withRetry(p0, false, func(ctx context.Context) error {
		t0 = time.Now()
		return p0.do(ctx, http.MethodPost, "/lease", req, &grant)
	})
	if err != nil {
		r.lease.held = false
		var se *StatusError
		if errors.As(err, &se) && se.Status == http.StatusConflict {
			return fmt.Errorf("%w: %s", ErrNotLeaseHolder, se.Msg)
		}
		return err
	}
	// The grant echoes the effective TTL (the server may clamp an
	// oversized request); the fence must be sized from what was granted,
	// never from what was asked.
	granted := time.Duration(grant.TTLMillis) * time.Millisecond
	if granted <= 0 || granted > r.leaseTTL {
		granted = r.leaseTTL
	}
	r.lease.held = true
	r.lease.renewed = t0
	r.lease.ttl = granted
	r.lease.epoch = grant.Epoch
	return nil
}

// leaseExpiry returns the earliest instant the held write lease could
// lapse on the arbiter's clock (the renewal anchor plus the granted
// TTL — conservative by construction). ok is false when HA is off or
// the lease is not currently held.
func (r *Router) leaseExpiry() (expiry time.Time, ok bool) {
	if r.leaseID == "" {
		return time.Time{}, false
	}
	r.lease.mu.Lock()
	defer r.lease.mu.Unlock()
	if !r.lease.held {
		return time.Time{}, false
	}
	ttl := r.lease.ttl
	if ttl <= 0 {
		ttl = r.leaseTTL
	}
	return r.lease.renewed.Add(ttl), true
}

// releaseLease steps down (Close): expire our own grant so a standby
// takes over without waiting out the TTL. Best-effort.
func (r *Router) releaseLease() {
	if r.leaseID == "" {
		return
	}
	r.lease.mu.Lock()
	held := r.lease.held
	r.lease.held = false
	r.lease.mu.Unlock()
	if !held {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	p0 := r.remotes()[0]
	_ = p0.do(ctx, http.MethodDelete, "/lease?id="+url.QueryEscape(r.leaseID), nil, nil)
}

// ---------------------------------------------------------------------
// Migration.

type migrateExportPayload struct {
	Users []string `json:"users"`
}

// Migrate moves the named users from partition `from` to partition
// `to` under the fleet write freeze: export at the source's stream
// position, import through the destination's live lifecycle paths,
// commit the ownership flip as a new ring version, then retire the
// source copies. Re-running after any failure converges: imports skip
// users the destination holds, the commit is monotone, deletes treat
// 404 as done — and Reconcile repairs the crash windows in between.
func (r *Router) Migrate(users []string, from, to int) error {
	if len(users) == 0 {
		return nil
	}
	return r.write(func() error {
		ctx := context.Background()
		if r.Ring() == nil {
			if _, err := r.ensureRingLocked(ctx); err != nil {
				return err
			}
		}
		return r.migrateLocked(ctx, users, from, to)
	})
}

// migrateLocked is Migrate's body; caller holds r.mu and has ensured a
// ring is installed.
func (r *Router) migrateLocked(ctx context.Context, users []string, from, to int) error {
	cur := r.Ring()
	parts := r.remotes()
	if from < 0 || from >= len(parts) || to < 0 || to >= len(parts) || from == to {
		return fmt.Errorf("partition: bad migration %d → %d over %d partitions", from, to, len(parts))
	}
	for _, u := range users {
		if o := cur.Owner(u); o != from {
			return fmt.Errorf("partition: user %q is owned by partition %d, not %d", u, o, from)
		}
	}
	src, dst := parts[from], parts[to]

	// Ship the snapshot slice: source streams straight into the
	// destination, both ends checked against the shared watermark. The
	// stream runs under the migration timeout, not the per-call retry
	// budget — a large user batch legitimately takes longer than one
	// retry window to ship.
	cctx, cancel := context.WithTimeout(ctx, r.migrateTO)
	defer cancel()
	body, err := src.getStream(cctx, http.MethodPost, "/migrate/export", migrateExportPayload{Users: users})
	if err != nil {
		return fmt.Errorf("partition: exporting %d user(s) from partition %d: %w", len(users), from, err)
	}
	var imported struct {
		Added   int `json:"added"`
		Skipped int `json:"skipped"`
	}
	err = dst.postStream(cctx, "/migrate/import", body, &imported)
	body.Close()
	if err != nil {
		return fmt.Errorf("partition: importing %d user(s) into partition %d: %w", len(users), to, err)
	}
	r.event(RebalanceEvent{Phase: "import", From: from, To: to, Users: users,
		Detail: fmt.Sprintf("added %d, skipped %d", imported.Added, imported.Skipped)})

	// Commit: the new ring version is the ownership barrier — from this
	// point reads and writes for these users route to the destination,
	// and the source's stale copies are unreachable garbage.
	succ := cur.successor()
	for _, u := range users {
		if succ.PlanOwner(u) == to {
			delete(succ.Moves, u)
		} else {
			succ.Moves[u] = to
		}
	}
	if err := r.commitRing(succ); err != nil {
		return fmt.Errorf("partition: committing ring %d: %w", succ.Version, err)
	}
	r.event(RebalanceEvent{Phase: "commit", From: from, To: to, Users: users, Version: succ.Version})

	// Retire the source copies; 404 means a previous run already did.
	for _, u := range users {
		err := r.withRetry(src, true, func(ctx context.Context) error {
			return src.do(ctx, http.MethodDelete, "/users/"+url.PathEscape(u), nil, nil)
		})
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) && se.Status == http.StatusNotFound {
				continue
			}
			return fmt.Errorf("partition: retiring user %q from partition %d: %w", u, from, err)
		}
	}
	r.event(RebalanceEvent{Phase: "delete", From: from, To: to, Users: users})
	return nil
}

// userLists fetches every partition's user list with per-partition
// retries and STRICT failure semantics: any partition that stays
// unreachable past its budget fails the whole call. Rebalance and
// Reconcile derive migration work from the result — the best-effort
// Users() would let a down partition contribute an empty list, and its
// users would silently drop out of the plan (never pinned, never
// migrated, stranded on a retired partition at scale-in).
func (r *Router) userLists(op string, parts []*remote) ([][]string, error) {
	lists := make([][]string, len(parts))
	errs := make([]error, len(parts))
	fanOut(parts, func(i int, p *remote) {
		errs[i] = r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodGet, "/users", nil, &lists[i])
		})
	})
	if err := collect(op, errs); err != nil {
		return nil, err
	}
	return lists, nil
}

// ---------------------------------------------------------------------
// Reconcile.

// ReconcileReport summarizes a Reconcile pass.
type ReconcileReport struct {
	// Removed counts user copies deleted from non-owner partitions.
	Removed int `json:"removed"`
	// Repinned counts users whose ring entry was repointed at the one
	// partition actually holding them (the owner had no copy).
	Repinned int `json:"repinned"`
}

// Reconcile restores the exactly-one-owner invariant after a crash
// mid-migration: every user held by a partition the ring does not
// assign them to loses that copy, and a user whose assigned owner
// holds no copy is re-pinned to the partition that does (rolling the
// interrupted step back or forward, whichever the ring already
// committed). A no-op on a healthy fleet, and on a fleet that never
// rebalanced.
func (r *Router) Reconcile(ctx context.Context) (ReconcileReport, error) {
	var rep ReconcileReport
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLease(); err != nil {
		return rep, err
	}
	if _, err := r.RefreshRing(ctx); err != nil {
		return rep, err
	}
	cur := r.Ring()
	if cur == nil {
		return rep, nil // legacy mode: the static plan is the single source of truth
	}
	parts := r.remotes()
	lists, err := r.userLists("Reconcile", parts)
	if err != nil {
		return rep, err
	}
	holders := make(map[string][]int)
	for i, l := range lists {
		for _, u := range l {
			holders[u] = append(holders[u], i) // ascending partition order
		}
	}

	// Pass 1: a user whose assigned owner holds no copy (crash after
	// the source delete of an uncommitted flip — not a window our
	// ordering produces, but the invariant is cheap to defend) is
	// re-pinned to their lowest-indexed holder.
	repins := make(map[string]int)
	for u, hs := range holders {
		owner := cur.Owner(u)
		held := false
		for _, h := range hs {
			if h == owner {
				held = true
				break
			}
		}
		if !held {
			repins[u] = hs[0]
		}
	}
	if len(repins) > 0 {
		succ := cur.successor()
		for u, idx := range repins {
			if succ.PlanOwner(u) == idx {
				delete(succ.Moves, u)
			} else {
				succ.Moves[u] = idx
			}
		}
		if err := r.commitRing(succ); err != nil {
			return rep, err
		}
		cur = succ
		rep.Repinned = len(repins)
		r.event(RebalanceEvent{Phase: "reconcile", Version: succ.Version,
			Detail: fmt.Sprintf("repinned %d user(s)", len(repins))})
	}

	// Pass 2: delete every copy the ring does not sanction.
	users := make([]string, 0, len(holders))
	for u := range holders {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		owner := cur.Owner(u)
		for _, h := range holders[u] {
			if h == owner {
				continue
			}
			p := parts[h]
			err := r.withRetry(p, true, func(ctx context.Context) error {
				return p.do(ctx, http.MethodDelete, "/users/"+url.PathEscape(u), nil, nil)
			})
			if err != nil {
				var se *StatusError
				if errors.As(err, &se) && se.Status == http.StatusNotFound {
					continue
				}
				return rep, fmt.Errorf("partition: reconcile removing %q from partition %d: %w", u, h, err)
			}
			rep.Removed++
		}
	}
	if rep.Removed > 0 {
		r.event(RebalanceEvent{Phase: "reconcile", Detail: fmt.Sprintf("removed %d stray cop(ies)", rep.Removed)})
	}
	return rep, nil
}

// ---------------------------------------------------------------------
// Rebalance.

// RebalanceOptions tunes a Rebalance run.
type RebalanceOptions struct {
	// BatchSize is how many users move per freeze window; 0 selects
	// DefaultMigrateBatch.
	BatchSize int `json:"batch_size"`
}

// RebalanceReport summarizes a completed Rebalance.
type RebalanceReport struct {
	FromParts int `json:"from_parts"`
	ToParts   int `json:"to_parts"`
	// UsersMoved and Batches count completed migrations; Stripped is
	// what the pre-migration Reconcile removed (a fresh partition's
	// construction community).
	UsersMoved int `json:"users_moved"`
	Batches    int `json:"batches"`
	Stripped   int `json:"stripped"`
	// ObjectsSynced counts objects shipped to partitions that were
	// behind the fleet's stream position.
	ObjectsSynced int `json:"objects_synced"`
	// RingVersion is the final committed ring version.
	RingVersion uint64 `json:"ring_version"`
	Millis      int64  `json:"millis"`
}

// unionURLs merges the installed ring's URL list with the rebalance
// target: one must be a prefix of the other (partition indices are
// stable identities — scale-out appends, scale-in truncates; swapping
// a URL mid-list would silently reassign another partition's WAL).
func unionURLs(a, b []string) ([]string, error) {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	for i := range short {
		if strings.TrimRight(short[i], "/") != strings.TrimRight(long[i], "/") {
			return nil, fmt.Errorf("partition: rebalance would change partition %d from %q to %q; only trailing partitions may be added or removed", i, long[i], short[i])
		}
	}
	out := make([]string, len(long))
	for i, u := range long {
		out[i] = strings.TrimRight(u, "/")
	}
	return out, nil
}

// Rebalance moves a live fleet to the given partition URL list —
// scale-out (the current list plus new partitions, freshly booted and
// ready) or scale-in (a prefix of the current list) — while writers
// keep writing. The freeze windows are per-batch: setup (ring
// agreement, object sync) and each user batch hold the write mutex for
// one round-trip's worth of work, and traffic interleaves between
// them. Re-running an interrupted Rebalance with the same target
// converges: every phase derives its work from the installed ring and
// the fleet's actual holdings, not from in-memory progress.
func (r *Router) Rebalance(ctx context.Context, urls []string, opts RebalanceOptions) (*RebalanceReport, error) {
	if len(urls) == 0 {
		return nil, errors.New("partition: rebalance needs at least one partition URL")
	}
	if !r.rebalancing.CompareAndSwap(false, true) {
		return nil, errors.New("partition: a rebalance is already running")
	}
	defer r.rebalancing.Store(false)
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultMigrateBatch
	}
	norm := make([]string, len(urls))
	for i, u := range urls {
		norm[i] = strings.TrimRight(u, "/")
	}
	start := time.Now()
	rep := &RebalanceReport{ToParts: len(norm)}

	// Phase A (one freeze window): agree on a ring, extend its URL set
	// to old ∪ new so every partition — retiring ones included — keeps
	// a stable index, and bring the newcomers to the fleet's object
	// position. Sync happens inside the same window that admits the new
	// partitions to the fan-out set, so no write can land in between
	// and break the positional skip.
	r.mu.Lock()
	err := func() error {
		if err := r.ensureLease(); err != nil {
			return err
		}
		cur, err := r.ensureRingLocked(ctx)
		if err != nil {
			return err
		}
		rep.FromParts = cur.Parts
		trans, err := unionURLs(cur.URLs, norm)
		if err != nil {
			return err
		}
		if len(trans) != len(cur.URLs) {
			succ, err := NewRing(cur.Version+1, cur.Parts, cur.VNodes, trans, cur.Moves)
			if err != nil {
				return err
			}
			if err := r.commitRing(succ); err != nil {
				return err
			}
			r.event(RebalanceEvent{Phase: "ring-extend", Version: succ.Version,
				Detail: fmt.Sprintf("%d urls", len(trans))})
		}
		synced, err := r.objectSyncLocked()
		rep.ObjectsSynced = synced
		return err
	}()
	r.mu.Unlock()
	if err != nil {
		return rep, err
	}

	// Strip: a freshly booted partition carries whatever community it
	// was constructed with; the ring says it owns none of them yet.
	// Reconcile deletes the unsanctioned copies (and doubles as crash
	// repair when this run is a retry).
	rec, err := r.Reconcile(ctx)
	if err != nil {
		return rep, err
	}
	rep.Stripped = rec.Removed

	// Phase B (one freeze window): pin every user whose owner under the
	// target plan differs from their current owner, and commit the
	// target plan in the same ring — ownership does not move yet, the
	// pins see to that, but from here each migration batch only has to
	// erase its own pins.
	groups := make(map[[2]int][]string)
	r.mu.Lock()
	err = func() error {
		if err := r.ensureLease(); err != nil {
			return err
		}
		cur := r.Ring()
		newPlan, err := NewPlan(len(norm), cur.VNodes)
		if err != nil {
			return err
		}
		// The pin set MUST come from a strict fleet-wide listing: if any
		// partition is unreachable here, abort rather than plan around an
		// empty list — a down partition's users would never be pinned or
		// migrated, and a scale-in would commit a final ring that strands
		// them on a retired partition with no error (the no-lost-users
		// guarantee this whole dance exists to keep).
		lists, err := r.userLists("Rebalance", r.remotes())
		if err != nil {
			return err
		}
		pins := make(map[string]int)
		for _, l := range lists {
			for _, u := range l {
				if _, seen := pins[u]; seen {
					continue // transient double-holder; one pin suffices
				}
				curOwner := cur.Owner(u)
				newOwner := newPlan.Owner(u)
				if curOwner != newOwner {
					pins[u] = curOwner
					key := [2]int{curOwner, newOwner}
					groups[key] = append(groups[key], u)
				}
			}
		}
		if cur.Parts == len(norm) && len(pins) == 0 && len(cur.Moves) == 0 {
			return nil // already on the target plan (a resumed run past phase C)
		}
		succ, err := NewRing(cur.Version+1, len(norm), cur.VNodes, cur.URLs, pins)
		if err != nil {
			return err
		}
		if err := r.commitRing(succ); err != nil {
			return err
		}
		r.event(RebalanceEvent{Phase: "ring-plan", Version: succ.Version,
			Detail: fmt.Sprintf("%d parts, %d pinned", len(norm), len(pins))})
		return nil
	}()
	r.mu.Unlock()
	if err != nil {
		return rep, err
	}

	// Phase C: drain the pins, one bounded batch per freeze window, so
	// write traffic interleaves with the migration.
	keys := make([][2]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		users := groups[key]
		sort.Strings(users)
		for len(users) > 0 {
			n := batch
			if n > len(users) {
				n = len(users)
			}
			chunk := users[:n]
			users = users[n:]
			r.mu.Lock()
			err := func() error {
				if err := r.ensureLease(); err != nil {
					return err
				}
				return r.migrateLocked(ctx, chunk, key[0], key[1])
			}()
			// Hand the lock to a write call already waiting for it before
			// the next freeze window: without this the window would likely
			// take it back at once, and the writer would get in only once
			// the mutex turns to starvation mode.
			yield := r.writerWaiting()
			r.mu.Unlock()
			if err != nil {
				return rep, err
			}
			if yield {
				r.awaitWriter(ctx)
			}
			rep.UsersMoved += n
			rep.Batches++
		}
	}

	// Phase D (one freeze window): shrink the URL list to the target —
	// retiring partitions drop out of the fan-out — and settle on the
	// clean plan-only ring.
	r.mu.Lock()
	err = func() error {
		if err := r.ensureLease(); err != nil {
			return err
		}
		cur := r.Ring()
		if len(cur.Moves) != 0 {
			return fmt.Errorf("partition: %d pin(s) remain after migration; re-run rebalance", len(cur.Moves))
		}
		if len(cur.URLs) == len(norm) {
			rep.RingVersion = cur.Version
			return nil
		}
		succ, err := NewRing(cur.Version+1, len(norm), cur.VNodes, norm, nil)
		if err != nil {
			return err
		}
		if err := r.commitRing(succ); err != nil {
			return err
		}
		rep.RingVersion = succ.Version
		r.event(RebalanceEvent{Phase: "final", Version: succ.Version})
		return nil
	}()
	r.mu.Unlock()
	rep.Millis = time.Since(start).Milliseconds()
	return rep, err
}

// objectCount reads a partition's object count.
func objectCount(ctx context.Context, p *remote) (int, error) {
	var reply struct {
		Count int `json:"count"`
	}
	err := p.do(ctx, http.MethodGet, "/objects/count", nil, &reply)
	return reply.Count, err
}

// objectSyncLocked brings every partition to the fleet's maximum
// object-stream position by piping the most advanced partition's
// registry export into each one that is behind. Caller holds r.mu (no
// concurrent writers). Returns objects applied across all targets.
func (r *Router) objectSyncLocked() (int, error) {
	parts := r.remotes()
	counts := make([]int, len(parts))
	errs := make([]error, len(parts))
	fanOut(parts, func(i int, p *remote) {
		errs[i] = r.withRetry(p, false, func(ctx context.Context) (err error) {
			counts[i], err = objectCount(ctx, p)
			return err
		})
	})
	if err := collect("objectSync", errs); err != nil {
		return 0, err
	}
	src := 0
	for i, c := range counts {
		if c > counts[src] {
			src = i
		}
	}
	applied := 0
	for i, p := range parts {
		if counts[i] == counts[src] {
			continue
		}
		// A full registry sync is a bulk stream: bound it by the
		// migration timeout, not the per-call retry budget.
		ctx, cancel := context.WithTimeout(context.Background(), r.migrateTO)
		body, err := parts[src].getStream(ctx, http.MethodGet, "/migrate/objects", nil)
		if err != nil {
			cancel()
			return applied, fmt.Errorf("partition: exporting objects from partition %d: %w", src, err)
		}
		var reply struct {
			Applied int `json:"applied"`
		}
		err = p.postStream(ctx, "/migrate/objects", body, &reply)
		body.Close()
		cancel()
		if err != nil {
			return applied, fmt.Errorf("partition: syncing objects to partition %d: %w", i, err)
		}
		applied += reply.Applied
		r.event(RebalanceEvent{Phase: "object-sync", From: src, To: i,
			Detail: fmt.Sprintf("%d object(s)", reply.Applied)})
	}
	return applied, nil
}
