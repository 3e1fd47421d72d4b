package paretomon

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// The primary side of read-scaling replication: a durable Monitor's WAL
// doubles as a changefeed. WALAfter pages through the log from any
// position, WALNotify wakes long-polling readers on every append, and
// LatestSnapshot hands out the bootstrap image — together they are
// everything internal/server needs to serve GET /wal and
// GET /snapshot/latest, and everything OpenFollower needs to replicate.
// See docs/REPLICATION.md.

// errStopFeed is the internal early-stop sentinel for bounded WALAfter
// reads; it never escapes.
var errStopFeed = errors.New("paretomon: stop feed page")

// WALAfter returns up to limit WAL records with Seq > after, in log
// order, plus the log head (the last appended seq). An empty batch with
// head == after means the caller is caught up; WALNotify then signals
// the next append. It returns ErrUnsupported without a store and
// ErrWALRetired when records directly above after have been pruned away
// (the caller must re-bootstrap from a snapshot; see Prune in
// docs/REPLICATION.md).
//
// Each call replays from the store, re-reading the containing WAL
// segment (there is no positioned cursor), and runs under the
// monitor's read lock — so callers paging over a large backlog should
// use a generous limit, and very large SegmentBytes amplify the
// re-read cost of a cold catch-up.
//
//paretomon:nowal — replays the log; reads storage, writes nothing.
func (m *Monitor) WALAfter(after uint64, limit int) ([]WALRecord, uint64, error) {
	if m.store == nil {
		return nil, 0, fmt.Errorf("%w: monitor has no store (use WithStore or Open)", ErrUnsupported)
	}
	if limit <= 0 {
		limit = 4096
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	head := m.walSeq
	if after >= head {
		return nil, head, nil
	}
	recs := make([]WALRecord, 0, min(limit, 64))
	expect := after + 1
	err := m.store.Replay(after, func(rec storage.Record) error {
		if len(recs) >= limit {
			return errStopFeed
		}
		if rec.Seq != expect {
			// The store's own continuity checks catch interior damage;
			// a jump right at the requested position means the records
			// were legitimately pruned below a snapshot floor.
			return fmt.Errorf("%w: WAL resumes at %d, position %d requested", ErrWALRetired, rec.Seq, after)
		}
		expect++
		recs = append(recs, rec)
		return nil
	})
	if err != nil && !errors.Is(err, errStopFeed) {
		return nil, head, err
	}
	return recs, head, nil
}

// WALNotify returns a channel that is closed by the next WAL append (or
// follower feed apply). Long-polling changefeed streams grab the
// channel, re-check WALAfter, and wait: any append between the two
// closes the grabbed channel, so no wakeup is ever missed. The channel
// is made here, on demand, so an append with nobody waiting makes none.
//
//paretomon:nowal — makes the waiters' channel; no record determines it.
func (m *Monitor) WALNotify() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.walCh == nil {
		m.walCh = make(chan struct{})
	}
	return m.walCh
}

// LatestSnapshot returns the newest snapshot's log position and encoded
// body. ok is false when no snapshot has been taken yet — a follower
// then bootstraps from the community and tails the feed from seq 0,
// which is always possible because Prune never discards WAL segments
// without a snapshot covering them. It returns ErrUnsupported without a
// store.
//
//paretomon:nowal — loads the newest snapshot; a pure storage read.
func (m *Monitor) LatestSnapshot() (seq uint64, body []byte, ok bool, err error) {
	if m.store == nil {
		return 0, nil, false, fmt.Errorf("%w: monitor has no store (use WithStore or Open)", ErrUnsupported)
	}
	// Under the read lock: store reads may run concurrently with each
	// other but never with WriteSnapshot/Prune (write-lock holders).
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.store.LoadSnapshot()
}

// AppliedSeq returns the monitor's log position: the last WAL seq
// appended (primary) or applied from the primary's feed (follower).
func (m *Monitor) AppliedSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.walSeq
}

// IsFollower reports whether the monitor is a read-only replica built
// by OpenFollower.
func (m *Monitor) IsFollower() bool { return m.readOnly }

// Lag returns how many log records the follower is behind the primary's
// last known head (0 for a primary, and for a caught-up follower). The
// head watermark refreshes with every feed message, so during a primary
// outage Lag reports the distance to the last head seen before the
// disconnect; Replication().Connected distinguishes the two.
func (m *Monitor) Lag() uint64 {
	if m.follower == nil {
		return 0
	}
	head := m.follower.head.Load()
	applied := m.AppliedSeq()
	if head <= applied {
		return 0
	}
	return head - applied
}

// ReplicationStats describes a monitor's place in a replication
// topology, for GET /storage/stats and operator dashboards.
type ReplicationStats struct {
	// Follower is true for OpenFollower monitors; the remaining fields
	// describe the follower's progress against its primary.
	Follower bool `json:"follower"`
	// Primary is the followed base URL.
	Primary string `json:"primary,omitempty"`
	// AppliedSeq is the last log position applied locally; HeadSeq the
	// primary's last known head; Lag their distance.
	AppliedSeq uint64 `json:"applied_seq"`
	HeadSeq    uint64 `json:"head_seq,omitempty"`
	Lag        uint64 `json:"lag"`
	// Connected reports whether the feed connection is currently up;
	// Rebootstraps counts snapshot re-bootstraps after the primary
	// pruned past us.
	Connected    bool   `json:"connected"`
	Rebootstraps uint64 `json:"rebootstraps,omitempty"`
	// Err is the fatal replication error, if the apply loop stopped
	// (feed diverged from local state); reads keep serving the last
	// applied position.
	Err string `json:"error,omitempty"`
}

// Replication reports the monitor's replication role and watermarks.
// For a primary it carries the applied (= appended) position only.
func (m *Monitor) Replication() ReplicationStats {
	st := ReplicationStats{AppliedSeq: m.AppliedSeq()}
	f := m.follower
	if f == nil {
		return st
	}
	st.Follower = true
	st.Primary = f.primary
	st.HeadSeq = f.head.Load()
	st.Lag = m.Lag()
	st.Connected = f.connected.Load()
	st.Rebootstraps = f.rebootstraps.Load()
	if err := f.err.Load(); err != nil {
		st.Err = err.(error).Error()
	}
	return st
}
