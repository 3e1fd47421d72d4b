package partition

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	paretomon "repro"
	"repro/internal/wire"
)

// Default retry parameters: how long a Router keeps trying to land an
// operation on an unresponsive partition before declaring it down, and
// how long it sleeps between readiness probes while waiting.
const (
	DefaultRetryBudget   = 30 * time.Second
	DefaultRetryInterval = 25 * time.Millisecond
)

// DefaultLeaseTTL is the write-lease duration when Config.RouterID
// enables HA and Config.LeaseTTL is zero; the holder renews after a
// third of it elapses, so a standby waits at most one TTL on failover.
const DefaultLeaseTTL = 10 * time.Second

// DefaultMigrateTimeout bounds one bulk migration stream (a user
// export/import or an object-registry sync) when Config.MigrateTimeout
// is zero. Deliberately much larger than the per-call retry budget: a
// big registry or user batch legitimately streams for minutes, and
// re-cutting the stream at the retry budget would make Rebalance
// unable to ever complete for large datasets.
const DefaultMigrateTimeout = 5 * time.Minute

// ringRetryRounds bounds how many times one operation refreshes the
// ring and retries after a version conflict before giving up — enough
// to chase a concurrent rebalance commit or two, finite so a fleet
// being rebalanced faster than we can refetch fails loudly instead of
// looping.
const ringRetryRounds = 4

// Config describes the fleet a Router fronts.
type Config struct {
	// URLs are the partition base URLs in plan order: URLs[i] must be the
	// process started with -partition i/len(URLs) (or an equivalent
	// Subset), or the plan's owners and the fleet's holdings disagree.
	URLs []string
	// Client is the HTTP client for partition calls; nil selects
	// http.DefaultClient.
	Client *http.Client
	// RetryBudget bounds how long one operation keeps retrying a
	// partition that fails with a retryable error (transport, 5xx)
	// before giving up with ErrPartitionDown; 0 selects
	// DefaultRetryBudget.
	RetryBudget time.Duration
	// RetryInterval is the pause between readiness probes while waiting
	// out a down partition; 0 selects DefaultRetryInterval.
	RetryInterval time.Duration
	// RouterID, when non-empty, enables router HA: before every
	// mutation the Router acquires (or renews) the fleet write lease
	// under this identity on partition 0, and refuses to write while
	// another router holds it (ErrNotLeaseHolder). Two routers fronting
	// one fleet MUST both set it; a single router may leave it empty.
	// See docs/PARTITIONING.md "Router HA".
	RouterID string
	// LeaseTTL is the write-lease duration; 0 selects DefaultLeaseTTL.
	// Partition 0 may clamp oversized TTLs; the router fences by the
	// granted value.
	LeaseTTL time.Duration
	// MigrateTimeout bounds one bulk migration stream (user
	// export/import, object sync) during Migrate/Rebalance; 0 selects
	// DefaultMigrateTimeout. Size it to the largest partition's state,
	// not to the retry budget.
	MigrateTimeout time.Duration
	// Observe, when non-nil, receives rebalance progress events
	// synchronously as each step completes (keep it fast; it runs under
	// the write freeze).
	Observe func(RebalanceEvent)
}

// remote is one partition as the Router sees it.
type remote struct {
	*client
	idx int
	url string
	// refused is set once the partition said it has no ingest stream:
	// its batches go out as POSTs until a ring install replaces this
	// remote (see stream.go).
	refused atomic.Bool
}

// Router presents a partitioned fleet as one paretomon.Driver: writes
// fan out to every partition (each holds a consistent-hash slice of the
// users, so each does its share of the work), user-scoped calls route
// to the owner, and aggregates merge. See the package comment and
// docs/PARTITIONING.md.
//
// Mutations are serialized router-wide by an internal mutex, so every
// partition observes the same mutation order — the property that makes
// a fleet's frontiers reproducible against a single monitor fed the
// same stream. Reads bypass the mutex entirely.
type Router struct {
	plan     *Plan
	hc       *http.Client
	budget   time.Duration
	interval time.Duration
	// migrateTO bounds one bulk migration stream; see
	// Config.MigrateTimeout.
	migrateTO time.Duration

	// ringMu guards parts and ring. ring is nil until the fleet
	// installs one (legacy mode: route by the static plan, stamp no
	// version header); ringVer mirrors ring.Version so the clients
	// stamp headers without taking the lock. parts is rebuilt wholesale
	// on ring install — readers snapshot it via remotes().
	ringMu sync.RWMutex
	parts  []*remote
	ring   *Ring
	// ringVer is shared with every client by pointer.
	ringVer atomic.Uint64

	// Router HA lease state; see rebalance.go.
	leaseID  string
	leaseTTL time.Duration
	lease    leaseState

	// observe receives rebalance progress events; nil = silent.
	observe func(RebalanceEvent)

	// rebalancing rejects overlapped Rebalance calls (each one already
	// interleaves freeze windows with live traffic; two at once would
	// interleave ring successions).
	rebalancing atomic.Bool

	// mu serializes mutations fleet-wide; see the type comment.
	mu sync.Mutex
	// writers counts write calls blocked on mu, and each one that gets
	// it signals handoff (capacity 1): Rebalance's phase C hands mu to a
	// waiting writer between two freeze windows (see write).
	writers atomic.Int32
	handoff chan struct{}
	// bodyHint is the last POST /objects/batch body's length (guarded by
	// mu): the next one is allocated that large up front.
	bodyHint int
	// batch and frame are the ingest stream's binary batch and request
	// frame (guarded by mu), rewritten for every batch: a stream write
	// has returned before the next batch starts.
	batch, frame []byte
	// writer is the batch-id writer minted at New, and seq the last
	// batch it numbered (guarded by mu). A failed AddBatch leaves its id
	// and binary batch behind, so re-sending the same batch reuses the
	// id.
	writer      string
	seq         uint64
	failedID    paretomon.BatchID
	failedBatch []byte
}

var _ paretomon.Driver = (*Router)(nil)

// New builds a Router over the given fleet.
func New(cfg Config) (*Router, error) {
	if len(cfg.URLs) == 0 {
		return nil, errors.New("partition: router needs at least one partition URL")
	}
	plan, err := NewPlan(len(cfg.URLs), DefaultVNodes)
	if err != nil {
		return nil, err
	}
	hc := cfg.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	budget := cfg.RetryBudget
	if budget <= 0 {
		budget = DefaultRetryBudget
	}
	interval := cfg.RetryInterval
	if interval <= 0 {
		interval = DefaultRetryInterval
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	migrateTO := cfg.MigrateTimeout
	if migrateTO <= 0 {
		migrateTO = DefaultMigrateTimeout
	}
	r := &Router{
		plan: plan, hc: hc, budget: budget, interval: interval, migrateTO: migrateTO,
		leaseID: cfg.RouterID, leaseTTL: ttl, observe: cfg.Observe, writer: rand.Text(),
		handoff: make(chan struct{}, 1),
	}
	for i, u := range cfg.URLs {
		c := newClient(u, hc, &r.ringVer)
		r.parts = append(r.parts, &remote{client: c, idx: i, url: c.base})
	}
	return r, nil
}

// remotes snapshots the current partition set. The slice is replaced,
// never mutated, on ring install, so holding a snapshot across a ring
// flip is safe — at worst an operation lands with a stale version
// header and comes back as a ring conflict.
func (r *Router) remotes() []*remote {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return r.parts
}

// Ring returns the ring the Router currently routes by, nil before any
// rebalance installs one.
func (r *Router) Ring() *Ring {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return r.ring
}

// Owner returns the partition index owning the named user: the
// installed ring's say when there is one, the static plan's otherwise.
func (r *Router) Owner(user string) int {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	if r.ring != nil {
		return r.ring.Owner(user)
	}
	return r.plan.Owner(user)
}

// PartitionURL returns partition i's base URL.
func (r *Router) PartitionURL(i int) string { return r.remotes()[i].url }

// HTTPClient returns the client used for partition calls — a fronting
// server reuses it to proxy subscription streams to owner partitions.
func (r *Router) HTTPClient() *http.Client { return r.hc }

// Close releases the Router: it closes its ingest streams and, if it
// holds the write lease, steps down (best-effort) so a standby takes over
// immediately. The partitions are independent processes and keep
// running.
func (r *Router) Close() error {
	for _, p := range r.remotes() {
		p.closeStream(false)
	}
	r.releaseLease()
	return nil
}

// write runs fn, a write call, under mu and the write lease. While it
// waits for mu it counts in writers, and once it holds mu it signals
// handoff, which is what Rebalance's phase C waits for (see
// writerWaiting).
func (r *Router) write(fn func() error) error {
	r.writers.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writers.Add(-1)
	select {
	case r.handoff <- struct{}{}:
	default:
	}
	if err := r.ensureLease(); err != nil {
		return err
	}
	return fn()
}

// writerWaiting reports, to a caller holding mu that is about to release
// it, whether a write call is waiting for mu; it clears handoff of
// signals from writers that held mu before. A caller told true
// unlocks and then waits on handoff (awaitWriter) before it locks again,
// so the waiting writer gets in between.
func (r *Router) writerWaiting() bool {
	select {
	case <-r.handoff:
	default:
	}
	return r.writers.Load() > 0
}

// awaitWriter waits, within ctx, until a write call has taken mu.
func (r *Router) awaitWriter(ctx context.Context) {
	select {
	case <-r.handoff:
	case <-ctx.Done():
	}
}

// Ready probes every partition's /readyz; nil means the whole fleet is
// serving. The error aggregates each unready partition.
func (r *Router) Ready(ctx context.Context) error {
	parts := r.remotes()
	errs := make([]error, len(parts))
	fanOut(parts, func(i int, p *remote) {
		if err := p.ready(ctx); err != nil {
			errs[i] = &PartitionError{Partition: p.idx, URL: p.url, Err: err}
		}
	})
	return collect("Ready", errs)
}

// fanOut runs fn for every partition of parts, each in its own
// goroutine, and returns once all have.
func fanOut(parts []*remote, fn func(i int, p *remote)) {
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, p)
		}()
	}
	wg.Wait()
}

// collect folds per-partition failures into one *RouteError (nil when
// none failed).
func collect(op string, errs []error) error {
	var fails []*PartitionError
	for i, err := range errs {
		if err == nil {
			continue
		}
		var pe *PartitionError
		if !errors.As(err, &pe) {
			pe = &PartitionError{Partition: i, Err: err}
		}
		fails = append(fails, pe)
	}
	if len(fails) == 0 {
		return nil
	}
	return &RouteError{Op: op, Failures: fails}
}

// sleepCtx sleeps d, reporting false if ctx expired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// awaitReady waits (within ctx) until the partition answers /readyz,
// probing every retry interval. A restarting partition replays its WAL
// before serving; probing instead of blind re-sends keeps the retry
// loop from hammering a process mid-recovery.
func (r *Router) awaitReady(ctx context.Context, p *remote) {
	for {
		if !sleepCtx(ctx, r.interval) {
			return
		}
		if p.ready(ctx) == nil {
			return
		}
	}
}

// downError wraps the last attempt error as an exhausted-budget
// *PartitionError carrying ErrPartitionDown.
func downError(p *remote, lastErr error) *PartitionError {
	return &PartitionError{
		Partition: p.idx,
		URL:       p.url,
		Err:       fmt.Errorf("%w: retry budget exhausted: %w", ErrPartitionDown, lastErr),
	}
}

// writeAttemptCtx derives the context for one mutation attempt under
// router HA: the parent (retry-budget) context capped at the write
// lease's conservative expiry, renewing first when the lease has
// lapsed. This is the fencing half of the lease contract — a mutation
// may retry far longer than one TTL, but no single attempt stays in
// flight past the lease that covered it when it was sent; losing the
// lease mid-retry surfaces ErrNotLeaseHolder instead of a late write
// landing under another router's tenure. Identity (with a no-op
// cancel) when HA is off.
func (r *Router) writeAttemptCtx(parent context.Context) (context.Context, context.CancelFunc, error) {
	if r.leaseID == "" {
		return parent, func() {}, nil
	}
	for {
		if exp, held := r.leaseExpiry(); held && time.Until(exp) > 0 {
			ctx, cancel := context.WithDeadline(parent, exp)
			return ctx, cancel, nil
		}
		if err := r.ensureLease(); err != nil {
			return nil, nil, err
		}
	}
}

// withRetry runs fn against one partition under the retry budget:
// retryable failures (transport, 5xx) wait for /readyz and try again;
// authoritative failures (4xx) return immediately. Exhausting the
// budget yields a *PartitionError wrapping ErrPartitionDown. A write is
// lease-fenced: each attempt runs under writeAttemptCtx, so a retry
// loop keeps renewing the lease and no attempt outlives it.
func (r *Router) withRetry(p *remote, write bool, fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.budget)
	defer cancel()
	return r.retryAfter(ctx, p, write, nil, fn)
}

// retryAfter is withRetry's loop under the budget ctx, after a first
// attempt that failed retryably with failed (nil: none was made): it
// waits for /readyz before the next.
func (r *Router) retryAfter(ctx context.Context, p *remote, write bool, failed error, fn func(ctx context.Context) error) error {
	lastErr := failed
	if failed != nil {
		r.awaitReady(ctx, p)
	}
	for ctx.Err() == nil {
		actx, acancel := ctx, context.CancelFunc(func() {})
		if write {
			var err error
			if actx, acancel, err = r.writeAttemptCtx(ctx); err != nil {
				return err
			}
		}
		err := fn(actx)
		if err == nil || !retryable(err) {
			acancel()
			return err
		}
		lastErr = err
		r.awaitReady(actx, p)
		acancel()
	}
	return downError(p, lastErr)
}

// Wire shadows of internal/server's request/response bodies for the
// calls off the ingest path (internal/wire owns the ingest shapes). The
// server package keeps them unexported; the shapes are the stable HTTP
// API.
type preferencePayload struct {
	User      string `json:"user"`
	Attribute string `json:"attribute"`
	Better    string `json:"better"`
	Worse     string `json:"worse"`
}

type addUserPayload struct {
	Name        string              `json:"name"`
	Preferences []preferencePayload `json:"preferences"`
}

type frontierReply struct {
	User     string   `json:"user"`
	Frontier []string `json:"frontier"`
}

type targetsReply struct {
	Object string   `json:"object"`
	Users  []string `json:"users"`
}

// mapNotFound rewraps a 404 from a partition with the matching
// paretomon sentinel, so library callers keep their errors.Is dispatch;
// the *StatusError stays in the chain for HTTP passthrough.
func mapNotFound(err, sentinel error) error {
	var se *StatusError
	if errors.As(err, &se) && se.Status == http.StatusNotFound {
		return fmt.Errorf("%w: %w", sentinel, se)
	}
	return err
}

// Add ingests one object fleet-wide; the delivery unions every
// partition's targets. It is AddBatch of one.
func (r *Router) Add(name string, values ...string) (paretomon.Delivery, error) {
	ds, err := r.AddBatch([]paretomon.Object{{Name: name, Values: values}})
	if err != nil {
		return paretomon.Delivery{}, err
	}
	return ds[0], nil
}

// AddBatch fans the batch to every partition concurrently. Each
// partition ingests the full batch against its own users, so the
// merged deliveries — per-object union of each partition's targets,
// sorted — match what a single monitor over the whole community would
// deliver. It is AddBatchOnce under the Router's own batch id: a batch
// after a failed one whose encoding is byte-identical reuses the
// failed id, so re-sending a batch after a *RouteError applies it at
// most once on every partition and answers with the deliveries of its
// arrival. See the failure playbook in docs/PARTITIONING.md.
func (r *Router) AddBatch(objs []paretomon.Object) ([]paretomon.Delivery, error) {
	return r.AddBatchOnce(paretomon.BatchID{}, objs)
}

// AddBatchOnce is AddBatch under the caller's batch id, which every
// partition gets; the zero id selects the Router's own. A partition that
// fails retryably is retried under the budget, probing /readyz between
// attempts, and every attempt re-sends the same batch under the same id:
// a partition that applied the batch, or a prefix of it, before the
// reply was lost answers that part from its memo and applies the rest.
// A batch with a name or value that is not valid UTF-8 is refused with
// ErrInvalidUTF8 before any partition sees it.
//
// A batch travels over each partition's ingest stream (see stream.go),
// opened on the first batch: the first attempt writes the frame to every
// partition from this goroutine, then reads the replies in partition
// order. Only a partition that failed retryably, or takes POSTs, gets a
// goroutine of its own, for the retry loop.
func (r *Router) AddBatchOnce(id paretomon.BatchID, objs []paretomon.Object) ([]paretomon.Delivery, error) {
	if len(objs) == 0 {
		return []paretomon.Delivery{}, nil
	}
	if err := checkUTF8(objs); err != nil {
		return nil, err
	}
	var out []paretomon.Delivery
	err := r.write(func() error {
		// Every partition ingests the same batch: encode it once and share
		// the bytes.
		r.batch = wire.AppendBatchPayload(r.batch[:0], objs)
		own := id == (paretomon.BatchID{})
		if own {
			if r.failedBatch == nil || !bytes.Equal(r.batch, r.failedBatch) {
				r.seq++
				r.failedID = paretomon.BatchID{Writer: r.writer, Seq: r.seq}
			}
			id, r.failedBatch = r.failedID, nil
		}
		hdr := []string{id.String()}
		// body is the JSON body, built only once a partition may take a
		// POST. A fresh slice per call, sized by the last one, because the
		// transport may still be reading a POST's body after Do returns (an
		// early 409, say) and promises only to close it eventually.
		var body []byte
		err := r.ringRetry("AddBatch", func() error {
			parts := r.remotes()
			results := make([][]paretomon.Delivery, len(parts))
			errs := make([]error, len(parts))
			r.frame = wire.AppendBatchFrame(r.frame[:0], hdr[0], r.ringVer.Load(), r.batch)
			frame := r.frame
			if len(frame)-wire.FrameHeader > wire.MaxRequestPayload {
				frame = nil // a POST, answered 413 past the partition's body limit
			}
			budget := time.Now().Add(r.budget)
			if r.streamBatch(budget, parts, frame, objs, results, errs) {
				ctx, cancel := context.WithDeadline(context.Background(), budget)
				defer cancel()
				if body == nil {
					body = wire.AppendBatch(make([]byte, 0, r.bodyHint), objs)
					r.bodyHint = len(body)
				}
				fanOut(parts, func(i int, p *remote) {
					f := frame
					if errors.Is(errs[i], errNotNow) {
						f, errs[i] = nil, nil // this batch goes as a POST
					}
					if results[i] != nil || errs[i] != nil && !retryable(errs[i]) {
						return // answered, or refused for good
					}
					errs[i] = r.retryAfter(ctx, p, true, errs[i], func(ctx context.Context) (err error) {
						results[i], err = p.addBatch(ctx, f, body, hdr, objs)
						return err
					})
				})
			}
			if err := collect("AddBatch", errs); err != nil {
				return err
			}
			out = mergeDeliveries(objs, results)
			return nil
		})
		if err != nil && own {
			r.failedBatch, r.batch = r.batch, nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkUTF8 refuses a batch with a name or value that is not valid
// UTF-8: POST /objects/batch would carry it as U+FFFD, so the partitions
// would apply, and answer for, an object the batch does not name.
func checkUTF8(objs []paretomon.Object) error {
	for i, o := range objs {
		valid := utf8.ValidString(o.Name)
		for _, v := range o.Values {
			valid = valid && utf8.ValidString(v)
		}
		if !valid {
			return fmt.Errorf("%w: batch object %d (%q, values %q)", ErrInvalidUTF8, i, o.Name, o.Values)
		}
	}
	return nil
}

// streamBatch is a batch's first attempt on every partition with an
// ingest stream, open or opened now: the frame goes to each from this
// goroutine, then the replies are read in partition order, all within
// one lease-fenced attempt under the budget's deadline. It fills results
// and errs for the partitions it tried and reports whether any partition
// is left for the retry loop: one that failed retryably, or one that
// takes POSTs (it refused the stream, or frame is nil).
func (r *Router) streamBatch(budget time.Time, parts []*remote, frame []byte, objs []paretomon.Object, results [][]paretomon.Delivery, errs []error) (rest bool) {
	actx, acancel, err := r.writeAttemptCtx(context.Background())
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return false
	}
	defer acancel()
	deadline := budget
	if d, ok := actx.Deadline(); ok && d.Before(budget) {
		deadline = d // the write lease's
	}
	sent := make([]*stream, len(parts))
	for i, p := range parts {
		if frame == nil || p.refused.Load() {
			rest = true
			continue
		}
		st, err := p.ingest(deadline)
		if errors.Is(err, errRefused) {
			p.refused.Store(true)
			rest = true
			continue
		}
		if err == nil {
			err = st.send(deadline, frame)
		}
		if err != nil {
			errs[i], rest = err, true
			continue
		}
		sent[i] = st
	}
	for i, st := range sent {
		if st == nil {
			continue
		}
		results[i], errs[i] = st.receive(deadline, objs)
		rest = rest || errs[i] != nil && retryable(errs[i])
	}
	return rest
}

// mergeDeliveries unions each object's per-partition targets into one
// community-wide delivery, sorted and deduplicated like a Monitor's —
// dedup matters during migration's crash window, where a user can
// transiently be held by both the source and the destination and must
// still be delivered to once. An object only one partition delivers
// keeps that partition's list, which is sorted already.
func mergeDeliveries(objs []paretomon.Object, results [][]paretomon.Delivery) []paretomon.Delivery {
	out := make([]paretomon.Delivery, len(objs))
	for i, o := range objs {
		n, named := 0, 0
		var only []string
		for _, ds := range results {
			if us := ds[i].Users; len(us) > 0 {
				n, named, only = n+len(us), named+1, us
			}
		}
		users := []string{}
		switch named {
		case 0:
		case 1:
			users = only
		default:
			users = make([]string, 0, n)
			for _, ds := range results {
				users = append(users, ds[i].Users...)
			}
			slices.Sort(users)
			users = slices.Compact(users)
		}
		out[i] = paretomon.Delivery{Object: o.Name, Users: users}
	}
	return out
}

// ringRetry runs one fleet mutation, refreshing the ring and retrying
// when any partition rejects it with a version conflict. Each attempt
// re-resolves owners and budgets from the refreshed ring, so a
// conflicted owner op lands on the NEW owner with a fresh retry
// budget. Bounded by ringRetryRounds.
func (r *Router) ringRetry(op string, fn func() error) error {
	var lastErr error
	for round := 0; round < ringRetryRounds; round++ {
		err := fn()
		if err == nil || !errors.Is(err, ErrRingVersion) {
			return err
		}
		lastErr = err
		if _, rerr := r.RefreshRing(context.Background()); rerr != nil {
			return fmt.Errorf("partition: %s hit a ring conflict and the refresh failed: %w (conflict: %w)", op, rerr, err)
		}
	}
	return lastErr
}

// ownerOp routes one mutation or read to the user's owning partition
// with retries, chasing ring flips from both directions: a version
// conflict (writes are ring-gated) refreshes the ring and re-resolves
// the owner — the user may have migrated — before trying again, and a
// 404 re-checks the ring once before it is believed. Reads are NOT
// ring-gated, so a router that missed a flip (a standby router learns
// of the active's rebalances no other way) would otherwise keep asking
// the old owner about users that moved, and report ErrUnknownUser for
// users that exist, until failover. write selects the lease-fenced
// retry loop for mutations.
func (r *Router) ownerOp(user string, write bool, fn func(ctx context.Context, p *remote) error) error {
	attempt := func() error {
		return r.ringRetry("ownerOp", func() error {
			p := r.remotes()[r.Owner(user)]
			return r.withRetry(p, write, func(ctx context.Context) error { return fn(ctx, p) })
		})
	}
	err := attempt()
	var se *StatusError
	if err == nil || !errors.As(err, &se) || se.Status != http.StatusNotFound {
		return err
	}
	before := r.Owner(user)
	rctx, rcancel := context.WithTimeout(context.Background(), r.budget)
	_, rerr := r.RefreshRing(rctx)
	rcancel()
	if rerr != nil || r.Owner(user) == before {
		return err // the miss was not a stale-ring artifact
	}
	return attempt()
}

// once makes fn, an owner op a partition refuses to apply twice, safe to
// retry: after an attempt that was sent and got no answer (a lost reply,
// a cut connection, an attempt the lease fence ended), which may have
// applied, a refusal of status naming sentinel is that attempt's success.
// An attempt whose connection was refused applied nothing.
func once(status int, sentinel error, fn func(ctx context.Context, p *remote) error) func(ctx context.Context, p *remote) error {
	unanswered := false
	return func(ctx context.Context, p *remote) error {
		err := fn(ctx, p)
		var se *StatusError
		var oe *net.OpError
		switch {
		case errors.As(err, &se):
			if unanswered && se.Status == status && strings.Contains(se.Msg, sentinel.Error()) {
				return nil
			}
		case err != nil && retryable(err) && !(errors.As(err, &oe) && oe.Op == "dial"):
			unanswered = true
		}
		return err
	}
}

// AddUser registers a user (with initial preferences) on its owning
// partition. A retry after an unanswered attempt that is refused as a
// duplicate user succeeds (once).
func (r *Router) AddUser(name string, prefs []paretomon.Preference) error {
	req := addUserPayload{Name: name, Preferences: make([]preferencePayload, len(prefs))}
	for i, pr := range prefs {
		req.Preferences[i] = preferencePayload{Attribute: pr.Attr, Better: pr.Better, Worse: pr.Worse}
	}
	return r.write(func() error {
		return r.ownerOp(name, true, once(http.StatusBadRequest, paretomon.ErrDuplicateUser, func(ctx context.Context, p *remote) error {
			return p.do(ctx, http.MethodPost, "/users", req, nil)
		}))
	})
}

// RemoveUser removes a user from its owning partition. A retry after an
// unanswered attempt that finds no such user succeeds (once).
func (r *Router) RemoveUser(name string) error {
	err := r.write(func() error {
		return r.ownerOp(name, true, once(http.StatusNotFound, paretomon.ErrUnknownUser, func(ctx context.Context, p *remote) error {
			return p.do(ctx, http.MethodDelete, "/users/"+url.PathEscape(name), nil, nil)
		}))
	})
	return mapNotFound(err, paretomon.ErrUnknownUser)
}

// AddPreference asserts a preference tuple on the user's owning
// partition.
func (r *Router) AddPreference(user, attr, better, worse string) error {
	req := preferencePayload{User: user, Attribute: attr, Better: better, Worse: worse}
	err := r.write(func() error {
		return r.ownerOp(user, true, func(ctx context.Context, p *remote) error {
			return p.do(ctx, http.MethodPost, "/preferences", req, nil)
		})
	})
	return mapNotFound(err, paretomon.ErrUnknownUser)
}

// RetractPreference retracts a previously asserted tuple on the user's
// owning partition.
func (r *Router) RetractPreference(user, attr, better, worse string) error {
	req := preferencePayload{User: user, Attribute: attr, Better: better, Worse: worse}
	err := r.write(func() error {
		return r.ownerOp(user, true, func(ctx context.Context, p *remote) error {
			return p.do(ctx, http.MethodDelete, "/preferences", req, nil)
		})
	})
	return mapNotFound(err, paretomon.ErrUnknownPreference)
}

// RemoveObject removes the object fleet-wide: every partition ingested
// it, so every partition must drop it. Partial failure returns a
// *RouteError; re-issuing is safe (partitions that already removed it
// answer 404, which the Router treats as done).
func (r *Router) RemoveObject(name string) error {
	return r.write(func() error { return r.removeObject(name) })
}

// removeObject is RemoveObject's body; the caller holds mu and the lease.
func (r *Router) removeObject(name string) error {
	return r.ringRetry("RemoveObject", func() error {
		parts := r.remotes()
		errs := make([]error, len(parts))
		notFound := make([]bool, len(parts))
		fanOut(parts, func(i int, p *remote) {
			errs[i] = r.withRetry(p, true, func(ctx context.Context) error {
				return p.do(ctx, http.MethodDelete, "/objects/"+url.PathEscape(name), nil, nil)
			})
			var se *StatusError
			if errs[i] != nil && errors.As(errs[i], &se) && se.Status == http.StatusNotFound {
				notFound[i] = true
			}
		})
		// All partitions ingest every object, so 404s agree — except on a
		// retry after partial failure, where partitions that already removed
		// it answer 404 and must count as success.
		all404 := true
		for i := range parts {
			if !notFound[i] {
				all404 = false
			} else {
				errs[i] = nil
			}
		}
		if all404 {
			return fmt.Errorf("%w: %q", paretomon.ErrUnknownObject, name)
		}
		return collect("RemoveObject", errs)
	})
}

// Frontier returns the user's frontier from its owning partition.
func (r *Router) Frontier(user string) ([]string, error) {
	var reply frontierReply
	err := r.ownerOp(user, false, func(ctx context.Context, p *remote) error {
		return p.do(ctx, http.MethodGet, "/frontier/"+url.PathEscape(user), nil, &reply)
	})
	if err != nil {
		return nil, mapNotFound(err, paretomon.ErrUnknownUser)
	}
	return reply.Frontier, nil
}

// TargetsOf unions the object's current targets across the fleet —
// each partition reports its own users, the union is the community's
// C_o, sorted. Any unreachable partition fails the call (a partial
// union would silently under-report).
func (r *Router) TargetsOf(object string) ([]string, error) {
	parts := r.remotes()
	replies := make([]targetsReply, len(parts))
	errs := make([]error, len(parts))
	fanOut(parts, func(i int, p *remote) {
		errs[i] = r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodGet, "/targets/"+url.PathEscape(object), nil, &replies[i])
		})
	})
	for _, err := range errs {
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) && se.Status == http.StatusNotFound {
				return nil, fmt.Errorf("%w: %w", paretomon.ErrUnknownObject, se)
			}
			return nil, collect("TargetsOf", errs)
		}
	}
	users := []string{}
	for _, reply := range replies {
		users = append(users, reply.Users...)
	}
	slices.Sort(users)
	return slices.Compact(users), nil
}

// Users returns the merged community membership, name-sorted (a
// Monitor reports registration order; partitions register
// independently, so the Router sorts for determinism). Unreachable
// partitions are skipped — Users has no error return — so the listing
// is best-effort under failure, like Stats.
func (r *Router) Users() []string {
	parts := r.remotes()
	lists := make([][]string, len(parts))
	fanOut(parts, func(i int, p *remote) {
		_ = r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodGet, "/users", nil, &lists[i])
		})
	})
	users := []string{}
	for _, l := range lists {
		users = append(users, l...)
	}
	slices.Sort(users)
	return slices.Compact(users)
}

// Clusters concatenates each partition's clusters in partition order.
// Clustering is a per-partition work-sharing structure (users cluster
// only with co-located users), so the fleet's clustering is the
// concatenation, not a re-clustering of the union. Best-effort under
// failure, like Users.
func (r *Router) Clusters() [][]string {
	parts := r.remotes()
	lists := make([][][]string, len(parts))
	fanOut(parts, func(i int, p *remote) {
		_ = r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodGet, "/clusters", nil, &lists[i])
		})
	})
	out := [][]string{}
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Stats returns the fleet's merged work counters: Comparisons,
// Delivered and friends sum across partitions; Processed — the stream
// position — and Twins are the maximum, because every partition processes
// the whole stream (and meets the same repeated tuples in it); Workers
// sums (total ingestion goroutines fleet-wide); Shards stays empty
// (per-partition shards are reported by FleetStats). Unreachable
// partitions contribute zeros.
func (r *Router) Stats() paretomon.Stats {
	return r.FleetStats().Stats
}

// PartitionStats is one partition's slice of a FleetStats report.
type PartitionStats struct {
	Partition int    `json:"partition"`
	URL       string `json:"url"`
	// Ready reports whether the partition answered; Err carries the
	// failure when it did not (its Stats are then zero).
	Ready bool   `json:"ready"`
	Err   string `json:"error,omitempty"`
	// Stats are the partition's own counters, including its per-shard
	// breakdown.
	Stats paretomon.Stats `json:"stats"`
}

// FleetStats is the Router's /stats payload: the merged counters (see
// Stats for the merge rules) plus each partition's own view.
type FleetStats struct {
	paretomon.Stats
	Partitions []PartitionStats `json:"partitions"`
}

// FleetStats fetches every partition's /stats concurrently and merges.
func (r *Router) FleetStats() FleetStats {
	parts := r.remotes()
	out := FleetStats{Partitions: make([]PartitionStats, len(parts))}
	fanOut(parts, func(i int, p *remote) {
		out.Partitions[i] = PartitionStats{Partition: p.idx, URL: p.url}
		err := r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodGet, "/stats", nil, &out.Partitions[i].Stats)
		})
		if err != nil {
			out.Partitions[i].Err = err.Error()
		} else {
			out.Partitions[i].Ready = true
		}
	})
	for _, ps := range out.Partitions {
		s := ps.Stats
		out.Comparisons += s.Comparisons
		out.FilterComparisons += s.FilterComparisons
		out.VerifyComparisons += s.VerifyComparisons
		out.Delivered += s.Delivered
		out.DroppedDeliveries += s.DroppedDeliveries
		out.Workers += s.Workers
		out.Processed = max(out.Processed, s.Processed)
		out.Twins = max(out.Twins, s.Twins)
	}
	return out
}

// PartitionStorage is one partition's slice of a FleetStorageStats
// report.
type PartitionStorage struct {
	Partition int    `json:"partition"`
	URL       string `json:"url"`
	Err       string `json:"error,omitempty"`
	// Storage is the partition's own store footprint (nil when the
	// partition was unreachable or runs without a store).
	Storage *paretomon.StoreStats `json:"storage,omitempty"`
}

// FleetStorageStats aggregates the fleet's storage footprint.
type FleetStorageStats struct {
	Partitions         []PartitionStorage `json:"partitions"`
	TotalSegments      int                `json:"total_segments"`
	TotalWALBytes      int64              `json:"total_wal_bytes"`
	TotalSnapshots     int                `json:"total_snapshots"`
	TotalSnapshotBytes int64              `json:"total_snapshot_bytes"`
}

// StorageStats fetches every partition's /storage/stats concurrently
// and totals the footprint. Partitions without a store (or down)
// report an error entry and contribute nothing to the totals.
func (r *Router) StorageStats() FleetStorageStats {
	parts := r.remotes()
	out := FleetStorageStats{Partitions: make([]PartitionStorage, len(parts))}
	fanOut(parts, func(i int, p *remote) {
		out.Partitions[i] = PartitionStorage{Partition: p.idx, URL: p.url}
		var st paretomon.StoreStats
		err := r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodGet, "/storage/stats", nil, &st)
		})
		if err != nil {
			out.Partitions[i].Err = err.Error()
			return
		}
		out.Partitions[i].Storage = &st
	})
	for _, ps := range out.Partitions {
		if ps.Storage == nil {
			continue
		}
		out.TotalSegments += ps.Storage.Segments
		out.TotalWALBytes += ps.Storage.WALBytes
		out.TotalSnapshots += ps.Storage.Snapshots
		out.TotalSnapshotBytes += ps.Storage.SnapshotBytes
	}
	return out
}

// Snapshot forces a checked snapshot on every partition (POST
// /snapshot fleet-wide). Partial failure returns a *RouteError; the
// partitions that succeeded keep their snapshots.
func (r *Router) Snapshot() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := r.remotes()
	errs := make([]error, len(parts))
	fanOut(parts, func(i int, p *remote) {
		errs[i] = r.withRetry(p, false, func(ctx context.Context) error {
			return p.do(ctx, http.MethodPost, "/snapshot", nil, nil)
		})
	})
	return collect("Snapshot", errs)
}
