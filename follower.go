package paretomon

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/replica"
)

// Read-scaling replication, follower side. OpenFollower builds a
// read-only Monitor that bootstraps from a primary's newest snapshot
// and then tails its WAL changefeed over HTTP, applying every record
// through the write path the primary's calls used (check, then apply,
// for a lifecycle record) — so the follower's frontiers, targets,
// clusters, and work counters are identical to the primary's at the
// same log position. Reads (Frontier, TargetsOf, Stats, Subscribe...)
// serve locally; mutations return ErrReadOnly. See docs/REPLICATION.md
// for the topology and operations guide.

// followerState is the feed-tailing side of a follower Monitor.
type followerState struct {
	primary string
	client  *replica.Client
	// com is the construction-time base community, pinned against every
	// snapshot the follower (re-)bootstraps from.
	com    *Community
	cancel context.CancelFunc
	done   chan struct{}

	head         atomic.Uint64
	connected    atomic.Bool
	rebootstraps atomic.Uint64
	err          atomic.Value // error: fatal apply divergence
}

// advanceHead moves the head watermark monotonically forward.
func (f *followerState) advanceHead(seq uint64) {
	for {
		cur := f.head.Load()
		if seq <= cur || f.head.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// followerBootstrapTimeout bounds the initial snapshot fetch so a
// misconfigured primary URL fails fast instead of hanging OpenFollower.
const followerBootstrapTimeout = 30 * time.Second

// OpenFollower builds a read-only replica of the primary serving at
// primaryURL (a durable monitor behind internal/server, e.g.
// "http://primary:8080"). The community and options must mirror the
// primary's — algorithm, window, clustering — or bootstrap fails with
// ErrStateMismatch; WithWorkers may differ (the shard layout is local).
// WithStore and WithSnapshotEvery are rejected with ErrBadOption:
// followers keep no log of their own, the primary's is the only truth.
//
// OpenFollower fetches the primary's newest snapshot synchronously (so
// an unreachable primary fails here), then returns while a background
// goroutine tails the changefeed: resuming from the applied position
// with exponential backoff across disconnects and primary restarts, and
// re-bootstrapping from a fresh snapshot if the primary prunes past the
// follower's position. Replication() and Lag() report progress;
// WaitSynced blocks until caught up. Close stops the tail goroutine.
func OpenFollower(c *Community, primaryURL string, opts ...Option) (*Monitor, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	if cfg.Store != nil || cfg.SnapshotEvery != 0 {
		return nil, fmt.Errorf("%w: a follower cannot have its own store; the primary owns the log", ErrBadOption)
	}
	client := replica.NewClient(primaryURL)
	ctx, cancelBoot := context.WithTimeout(context.Background(), followerBootstrapTimeout)
	seq, body, ok, err := client.Snapshot(ctx)
	cancelBoot()
	if err != nil {
		return nil, fmt.Errorf("paretomon: bootstrapping follower from %s: %w", primaryURL, err)
	}
	m, err := newFollowerMonitor(c, cfg, seq, body, ok)
	if err != nil {
		return nil, err
	}

	tailCtx, cancel := context.WithCancel(context.Background())
	f := &followerState{
		primary: client.Base,
		client:  client,
		com:     c,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	f.head.Store(seq)
	m.readOnly = true
	m.follower = f

	tailer := &replica.Tailer{
		Client: client,
		Hooks: replica.Hooks{
			Applied:     m.AppliedSeq,
			Apply:       m.applyFeedRecord,
			Head:        f.advanceHead,
			Rebootstrap: m.rebootstrapFollower,
			Connected:   func(up bool) { f.connected.Store(up) },
		},
	}
	go func() {
		defer close(f.done)
		if err := tailer.Run(tailCtx); err != nil {
			f.err.Store(err)
		}
	}()
	return m, nil
}

// newFollowerMonitor builds a validated monitor from a fetched primary
// snapshot — the recovery restore path, minus a store — or fresh from
// the community when the primary has none (haveSnap false; the whole
// log is then still retained and the feed tails from 0). Shared by
// OpenFollower and rebootstrapFollower so the two bootstrap paths can
// never drift apart.
func newFollowerMonitor(c *Community, cfg Config, seq uint64, body []byte, haveSnap bool) (*Monitor, error) {
	m, err := monitorShell(c, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.bootstrap(c, seq, body, haveSnap); err != nil {
		return nil, err
	}
	return m, nil
}

// applyFeedRecord applies one replicated WAL record under the write
// lock. Records at or below the applied position are skipped — a resumed
// stream can never double-apply — and a sequence jump is ErrCorrupt (the
// feed protocol delivers contiguously; a gap means the transports or the
// primary lied).
func (m *Monitor) applyFeedRecord(rec WALRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.Seq <= m.walSeq {
		return nil
	}
	if rec.Seq != m.walSeq+1 {
		return fmt.Errorf("%w: feed jumped to record %d with %d applied", ErrCorrupt, rec.Seq, m.walSeq)
	}
	if err := m.replayRecord(rec); err != nil {
		return err
	}
	m.rotateWALNotifyLocked()
	return nil
}

// rebootstrapFollower rebuilds the follower from the primary's newest
// snapshot after the feed position was pruned away (ErrGone): reads
// jump from the last applied position to the snapshot position in one
// step. The replacement state is built and validated on a scratch
// monitor first, so any failure — an undecodable snapshot, a primary
// reconfigured out from under us (ErrStateMismatch) — leaves the
// serving state untouched; those failures are replica.ErrPermanent,
// which stops the tailer instead of looping reset-and-fail. Subscribers
// keep their registrations — user slots are append-only, so indices
// stay stable across the jump — but the skipped interval produces no
// delta events; consumers needing the full picture resynchronize via
// Frontier. Subscriptions of users removed inside the gap are closed,
// exactly as a live RemoveUser would.
func (m *Monitor) rebootstrapFollower(ctx context.Context) error {
	f := m.follower
	seq, body, ok, err := f.client.Snapshot(ctx)
	if err != nil {
		return err // transient (network): retried with backoff
	}
	if !ok {
		return fmt.Errorf("%w: primary retired feed position %d but serves no snapshot (%v)",
			replica.ErrPermanent, m.AppliedSeq(), ErrCorrupt)
	}
	fresh, err := newFollowerMonitor(f.com, m.cfg, seq, body, true)
	if err != nil {
		return fmt.Errorf("%w: %v", replica.ErrPermanent, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if seq <= m.walSeq {
		return nil // raced with our own tail: already at or past it
	}
	aliveBefore := m.userAlive
	// Transplant the validated state; m keeps its identity (lock,
	// subscriptions, walCh, follower handle) so readers and subscribers
	// carry across the jump.
	m.state = fresh.state
	f.rebootstraps.Add(1)
	f.advanceHead(seq)
	for i, wasAlive := range aliveBefore {
		if wasAlive && (i >= len(m.userAlive) || !m.userAlive[i]) {
			m.subs.closeUser(i)
		}
	}
	m.rotateWALNotifyLocked()
	return nil
}

// WaitSynced blocks until the follower has applied every record the
// primary held at some instant during the call, or until ctx ends. The
// check is strong: the primary's actual head is read synchronously (its
// /storage/stats), not taken from the feed's possibly-stale watermarks,
// so a true return means the follower reached a position the primary
// really had — records still in flight behind a shipped page cannot
// fake it. It returns immediately on a primary (nil) and returns the
// fatal replication error if the apply loop has stopped.
//
//paretomon:nowal — waits on WALNotify's channel; writes nothing.
func (m *Monitor) WaitSynced(ctx context.Context) error {
	f := m.follower
	if f == nil {
		return nil
	}
	for {
		if err, _ := f.err.Load().(error); err != nil {
			return err
		}
		head, err := f.client.Head(ctx)
		if err != nil {
			// Primary unreachable: back off before asking again.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			timer := time.NewTimer(100 * time.Millisecond)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
			continue
		}
		// One head fetch, then wait event-driven: the notify channel
		// rotates on every applied record, so no polling of the primary
		// while the backlog drains. The timer is only a safety net for
		// an apply loop that stopped without recording an error.
		for m.AppliedSeq() < head {
			if err, _ := f.err.Load().(error); err != nil {
				return err
			}
			notify := m.WALNotify()
			if m.AppliedSeq() >= head {
				break
			}
			timer := time.NewTimer(250 * time.Millisecond)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-notify:
				timer.Stop()
			case <-timer.C:
			}
		}
		return nil
	}
}
