package paretomon

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pref"
	"repro/internal/storage"
)

// Durable monitors. A Monitor built with WithStore writes every
// mutation — Add, AddBatch, AddPreference — to a write-ahead log before
// applying it, and periodically (WithSnapshotEvery, or an explicit
// Snapshot call) persists its full state at one log position. A monitor
// constructed over a non-empty store recovers first: the newest valid
// snapshot is loaded and the WAL tail behind it replayed, yielding
// state byte-for-byte equivalent to an uninterrupted run — frontiers
// keep their scan order, so deliveries, Frontier, TargetsOf, and even
// Stats counters continue exactly where the crashed process would have.
// See docs/PERSISTENCE.md for the on-disk format and operations guide.

// Store is the pluggable persistence backend a Monitor writes through:
// WAL record appends, snapshot write/load, and segment pruning. Two
// implementations ship with the package — NewFileStore (durable, binary
// segments + atomic snapshots) and NewMemStore (volatile, for tests) —
// and custom backends implement the same interface using the WALRecord
// and StoreStats types.
type Store = storage.Store

// WALRecord is one write-ahead-log entry: the raw input of a single
// monitor mutation (an object ingestion or an online preference
// addition), sufficient to replay it through a fresh engine.
type WALRecord = storage.Record

// WALOp discriminates WALRecord types.
type WALOp = storage.Op

// WAL record types: object ingestion (Add or one AddBatch element),
// online preference addition (AddPreference), and the v3 lifecycle
// mutations (AddUser, RemoveUser, RetractPreference, RemoveObject).
const (
	OpObject            WALOp = storage.OpObject
	OpPreference        WALOp = storage.OpPreference
	OpAddUser           WALOp = storage.OpAddUser
	OpRemoveUser        WALOp = storage.OpRemoveUser
	OpRetractPreference WALOp = storage.OpRetractPreference
	OpRemoveObject      WALOp = storage.OpRemoveObject
)

// StoreStats describes a store's footprint: live WAL segments and
// bytes, retained snapshots, and the appends performed by this process.
type StoreStats = storage.Stats

// NewFileStore opens (creating if needed) a durable file-backed store
// rooted at dir: length-prefixed, CRC-checked binary WAL segments plus
// atomically renamed snapshot files. Pass it to WithStore, or use Open
// which bundles the two.
func NewFileStore(dir string) (Store, error) { return storage.OpenFile(dir) }

// NewMemStore returns a volatile in-memory store with the same contract
// as NewFileStore: useful in tests and for handing state between
// monitor generations within one process.
func NewMemStore() Store { return storage.NewMem() }

// Open builds a durable monitor backed by a file store at dir: it is
// NewMonitor(c, opts..., WithStore(NewFileStore(dir))) plus ownership —
// the monitor closes the store when Close is called. If dir already
// holds state from a previous run, the monitor recovers it; the
// community and options must match the ones the state was written
// under (ErrStateMismatch otherwise).
func Open(c *Community, dir string, opts ...Option) (*Monitor, error) {
	st, err := storage.OpenFile(dir)
	if err != nil {
		return nil, err
	}
	all := make([]Option, 0, len(opts)+1)
	all = append(all, opts...)
	all = append(all, WithStore(st))
	mon, err := NewMonitor(c, all...)
	if err != nil {
		st.Close()
		return nil, err
	}
	mon.ownsStore = true
	return mon, nil
}

// Snapshot persists the monitor's full state at the current WAL
// position and prunes log segments and older snapshots that recovery no
// longer needs. It returns ErrUnsupported if the monitor has no store.
// Automatic snapshots (WithSnapshotEvery) are best-effort; Snapshot is
// the checked path, which POST /snapshot exposes over HTTP.
//
// the WAL already ordered, so it is never itself WAL-logged.
//
//paretomon:nowal — a snapshot is derived state: it compacts the log
func (m *Monitor) Snapshot() error {
	if m.store == nil {
		return fmt.Errorf("%w: monitor has no store (use WithStore or Open)", ErrUnsupported)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.storeErr != nil {
		// After a failed append, memory and log may disagree; a snapshot
		// taken now would let the orphaned log records replay on top of
		// it. Restart and recover instead.
		return fmt.Errorf("%w: store unusable: %w", ErrStore, m.storeErr)
	}
	return m.writeSnapshotLocked()
}

// StorageStats reports the store's current footprint (WAL segments and
// bytes, snapshots, appends). It returns ErrUnsupported if the monitor
// has no store.
//
//paretomon:nowal — reads storage counters only.
func (m *Monitor) StorageStats() (StoreStats, error) {
	if m.store == nil {
		return StoreStats{}, fmt.Errorf("%w: monitor has no store (use WithStore or Open)", ErrUnsupported)
	}
	st, err := m.store.Stats()
	if err != nil {
		return st, err
	}
	// The store only sees this process's appends; the monitor's log
	// position also covers records recovered from prior incarnations.
	// Followers compare against this head (WaitSynced), so it must be
	// authoritative even on a freshly recovered, idle primary.
	m.mu.RLock()
	st.LastAppendedSeq = m.walSeq
	m.mu.RUnlock()
	return st, nil
}

// ObjectCount returns how many objects the monitor has ingested over
// its lifetime, including recovered ones (neither window expiry nor
// RemoveObject decreases it): the id the next object gets. It is a
// stream position, not a count of what the monitor still holds.
func (m *Monitor) ObjectCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.objectCount()
}

// AliveObjectCount returns how many objects the monitor currently
// holds: ingested, not removed and, under a window, not expired — an
// expired object is forgotten, so this is at most the window. Tenant
// quotas meter this number, not the lifetime ObjectCount.
func (m *Monitor) AliveObjectCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.names.n
}

// appendWAL assigns sequence numbers to the pre-validated records and
// logs them as one contiguous WAL append (torn only at the tail, never
// interleaved). No-op without a store or during recovery replay. A
// failed append poisons the monitor's durable side: the log may hold a
// prefix of the records while memory holds none, so further mutations
// and snapshots are refused until a restart recovers from the log.
func (m *Monitor) appendWAL(recs []WALRecord) error {
	if !m.logging() {
		return nil
	}
	if m.storeErr != nil {
		return fmt.Errorf("%w: store unusable: %w", ErrStore, m.storeErr)
	}
	for i := range recs {
		recs[i].Seq = m.walSeq + 1 + uint64(i)
	}
	if err := m.store.Append(recs...); err != nil {
		m.storeErr = err
		return fmt.Errorf("%w: appending to WAL: %w", ErrStore, err)
	}
	m.walSeq += uint64(len(recs))
	m.rotateWALNotifyLocked()
	return nil
}

// rotateWALNotifyLocked wakes every WALNotify waiter — long-polling
// changefeed streams and WaitSynced — by closing the current notify
// channel, if a waiter made one, and clearing it for the next waiter to
// make. Every path that advances walSeq must call it, and must hold mu
// (write).
func (m *Monitor) rotateWALNotifyLocked() {
	if m.walCh != nil {
		close(m.walCh)
		m.walCh = nil
	}
}

// logging reports whether mutations reach a WAL: there is a store, and
// recovery is not replaying it.
func (m *Monitor) logging() bool { return m.store != nil && !m.replaying }

// objectRecords builds the WAL records for a validated object batch,
// each tagged with id, or nil when appendWAL would not log them: the
// ingest path of a storeless monitor allocates nothing for the WAL. The
// records are built in walRecs's array, which keepRecords takes back
// after the append. Caller holds mu.
func (m *Monitor) objectRecords(id BatchID, objs []Object) []WALRecord {
	if !m.logging() {
		return nil
	}
	recs := m.walRecs[:0]
	if len(objs) > scratchKeep {
		recs = nil
	}
	for _, o := range objs {
		recs = append(recs, WALRecord{Op: OpObject, Name: o.Name, Values: o.Values, Writer: id.Writer, Batch: id.Seq})
	}
	return recs
}

// keepRecords clears objectRecords's records, so they pin no names or
// values, and keeps their array for the next call unless the batch was
// larger than scratchKeep. Caller holds mu.
func (m *Monitor) keepRecords(recs []WALRecord) {
	clear(recs)
	if len(recs) <= scratchKeep {
		m.walRecs = recs[:0]
	}
}

// maybeSnapshotLocked counts applied records toward the WithSnapshotEvery
// threshold and snapshots when it is crossed. Failures are tolerated
// (the WAL already holds the data); the counter is only reset on
// success, so the next threshold crossing retries.
func (m *Monitor) maybeSnapshotLocked(applied int) {
	if !m.logging() || m.snapEvery <= 0 {
		return
	}
	m.sinceSnap += applied
	if m.sinceSnap >= m.snapEvery {
		_ = m.writeSnapshotLocked()
	}
}

// writeSnapshotLocked captures and persists the full monitor state at
// the current WAL position, then prunes. Since format version 2 the
// snapshot is self-contained: the evolved community (user table with
// asserted preference tuples), the clustering, and the full object
// registry travel with the engine state, so recovery needs no lifecycle
// replay behind the snapshot position. Caller holds mu.
func (m *Monitor) writeSnapshotLocked() error {
	st := core.NewEngineState(len(m.userNames), len(m.clusterMembers))
	m.eng.CaptureState(st)
	dims := len(m.schema.doms)
	users := make([]storage.UserState, len(m.userNames))
	for i := range m.userNames {
		us := storage.UserState{Name: m.userNames[i], Alive: m.userAlive[i], Prefs: make([][][2]int, dims)}
		if m.userAlive[i] {
			for d := 0; d < dims; d++ {
				for _, t := range m.profiles[i].Relation(d).Asserted() {
					us.Prefs[d] = append(us.Prefs[d], [2]int{t.Better, t.Worse})
				}
			}
		}
		users[i] = us
	}
	// A retired slot (expired from the window) is written as a dead
	// placeholder, keeping ids dense in the v3 layout.
	objs := make([]storage.ObjectState, m.objectCount())
	retired := storage.ObjectState{Attrs: make([]int32, dims)}
	for i := range objs[:m.objBase] {
		objs[i] = retired
	}
	for id := m.objBase; id < len(objs); id++ {
		if name := m.nameAt(id); name != "" {
			objs[id] = storage.ObjectState{Name: name, Alive: m.aliveAt(id), Attrs: m.attrsAt(id)}
		} else {
			objs[id] = retired
		}
	}
	snap := &storage.Snapshot{
		Algorithm:    uint8(m.cfg.Algorithm),
		Window:       m.cfg.Window,
		Measure:      uint8(m.cfg.Measure),
		BranchCut:    m.cfg.BranchCut,
		ClusterCount: m.cfg.ClusterCount,
		Theta1:       m.cfg.Theta1,
		Theta2:       m.cfg.Theta2,
		BaseUsers:    m.baseUsers,
		Users:        users,
		Clusters:     m.clusterMembers,
		Domains:      m.schema.domainValues(),
		Objects:      objs,
		Counters:     m.eng.Totals(),
		Engine:       st,
		Batches:      m.batchMemos(),
	}
	if err := m.store.WriteSnapshot(m.walSeq, snap.Marshal()); err != nil {
		return fmt.Errorf("%w: writing snapshot: %w", ErrStore, err)
	}
	m.sinceSnap = 0
	if err := m.store.Prune(); err != nil {
		return fmt.Errorf("%w: pruning store: %w", ErrStore, err)
	}
	return nil
}

// domainValues returns each attribute's interned values in id order.
func (s *Schema) domainValues() [][]string {
	out := make([][]string, len(s.doms))
	for i, d := range s.doms {
		out[i] = d.Values()
	}
	return out
}

// replayRecord applies one WAL record through the write path the live
// calls use — an object through claimAdd and ingest, a lifecycle
// record through check and apply — so the resulting state and work
// counters are identical to an uninterrupted run's. It serves two
// callers: recovery replay (m.replaying true — publication suppressed,
// history must never reach subscribers) and the follower feed apply loop
// (m.replaying false — subscribers observe replicated mutations as
// deliveries and FrontierDelta events, exactly as the primary's
// subscribers do). A record that does not apply cleanly means the log and
// the local state have diverged — corrupt state, not a caller input
// error — and is refused before anything changes.
func (m *Monitor) replayRecord(rec WALRecord) error {
	if rec.Op == OpObject {
		o := Object{Name: rec.Name, Values: rec.Values}
		start := m.objectCount()
		if err := m.claimAdd(o); err != nil {
			return corruptRecord(rec, err)
		}
		d := m.ingest(o)
		if rec.Writer != "" {
			bm := m.openBatch(BatchID{Writer: rec.Writer, Seq: rec.Batch}, start)
			bm.ds = append(bm.ds, d)
		}
	} else {
		mut, err := m.check(rec)
		if err != nil {
			return corruptRecord(rec, err)
		}
		m.apply(mut)
	}
	m.walSeq = rec.Seq
	return nil
}

// corruptRecord is the error for a logged record that does not apply.
func corruptRecord(rec WALRecord, err error) error {
	return fmt.Errorf("%w: replaying WAL record %d: %v", ErrCorrupt, rec.Seq, err)
}

// buildFromSnapshot rebuilds the monitor from a decoded self-contained
// snapshot. The snapshot is authoritative for the evolved community —
// users added or removed, preferences grown or retracted, objects
// deleted — while the caller-provided community must match the
// snapshot's construction-time base (its first BaseUsers slots); every
// divergence from the recorded configuration is ErrStateMismatch so
// recovery fails loudly instead of serving wrong frontiers.
func (m *Monitor) buildFromSnapshot(c *Community, snap *storage.Snapshot) error {
	if snap.Algorithm != uint8(m.cfg.Algorithm) || snap.Window != m.cfg.Window ||
		snap.Measure != uint8(m.cfg.Measure) || snap.BranchCut != m.cfg.BranchCut ||
		snap.ClusterCount != m.cfg.ClusterCount ||
		snap.Theta1 != m.cfg.Theta1 || snap.Theta2 != m.cfg.Theta2 {
		return fmt.Errorf("%w: snapshot was written under a different monitor configuration", ErrStateMismatch)
	}
	if snap.BaseUsers != c.Len() || snap.BaseUsers > len(snap.Users) {
		return fmt.Errorf("%w: snapshot community is based on %d users, provided community has %d",
			ErrStateMismatch, snap.BaseUsers, c.Len())
	}
	for i := 0; i < snap.BaseUsers; i++ {
		if snap.Users[i].Name != c.users[i].name {
			return fmt.Errorf("%w: snapshot base user %d is %q, community has %q",
				ErrStateMismatch, i, snap.Users[i].Name, c.users[i].name)
		}
	}
	dims := len(m.schema.doms)
	if len(snap.Domains) != dims {
		return fmt.Errorf("%w: snapshot has %d attributes, schema has %d", ErrStateMismatch, len(snap.Domains), dims)
	}
	// Re-intern the snapshot's domain tables in id order. The values the
	// community's preferences already interned must come back with the
	// same ids; the rest (first seen in objects or lifecycle updates)
	// extend the tables so recorded value ids stay meaningful.
	for d, values := range snap.Domains {
		for want, v := range values {
			if got := m.schema.doms[d].Intern(v); got != want {
				return fmt.Errorf("%w: attribute %q value %q interned as %d, snapshot has %d (changed preferences?)",
					ErrStateMismatch, m.schema.doms[d].Name(), v, got, want)
			}
		}
	}
	m.baseUsers = snap.BaseUsers

	// Rebuild the community table: profiles re-assert their recorded
	// tuples in order, reproducing both the closure and the retractable
	// base exactly.
	m.userNames = make([]string, len(snap.Users))
	m.userAlive = make([]bool, len(snap.Users))
	m.profiles = make([]*pref.Profile, len(snap.Users))
	for i, us := range snap.Users {
		m.userNames[i] = us.Name
		m.userAlive[i] = us.Alive
		p := pref.NewProfile(m.schema.doms)
		for d := 0; d < dims && d < len(us.Prefs); d++ {
			domSize := m.schema.doms[d].Size()
			for _, t := range us.Prefs[d] {
				if t[0] < 0 || t[0] >= domSize || t[1] < 0 || t[1] >= domSize {
					return fmt.Errorf("%w: snapshot preference tuple (%d,%d) outside attribute %q's domain",
						ErrCorrupt, t[0], t[1], m.schema.doms[d].Name())
				}
				if err := p.Relation(d).Add(t[0], t[1]); err != nil {
					return fmt.Errorf("%w: reasserting snapshot preferences of %q: %v", ErrCorrupt, us.Name, err)
				}
			}
		}
		m.profiles[i] = p
		if us.Alive {
			if _, dup := m.userIdx[us.Name]; dup {
				return fmt.Errorf("%w: snapshot has two alive users named %q", ErrCorrupt, us.Name)
			}
			m.userIdx[us.Name] = i
		}
	}
	m.rankUsers()

	// Rebuild the object registry. Under a window only the last W slots
	// are alive: anything older is retired, whether the snapshot holds it
	// as a placeholder or (written before expired objects were forgotten)
	// as an alive entry.
	if w := m.cfg.Window; w > 0 {
		m.objBase = max(len(snap.Objects)-w, 0)
	}
	for i, os := range snap.Objects[m.objBase:] {
		if len(os.Attrs) != dims {
			return fmt.Errorf("%w: snapshot object %q has %d attributes, schema has %d", ErrCorrupt, os.Name, len(os.Attrs), dims)
		}
		copy(m.registry.push(os.Name, os.Alive), os.Attrs)
		if os.Alive && !m.names.claim(os.Name, m.objBase+i) {
			return fmt.Errorf("%w: snapshot has two alive objects named %q", ErrCorrupt, os.Name)
		}
	}

	// Rebuild the clustering (dormant clusters stay as placeholders so
	// cluster indices keyed into the engine state resolve), recompute
	// each common relation from the restored member profiles, and
	// construct the engine over the evolved community.
	var clusters []core.Cluster
	if m.cfg.Algorithm != AlgorithmBaseline {
		clusters = make([]core.Cluster, len(snap.Clusters))
		for ui, members := range snap.Clusters {
			ms := append([]int(nil), members...)
			for _, c := range ms {
				if c < 0 || c >= len(m.profiles) || !m.userAlive[c] {
					return fmt.Errorf("%w: snapshot cluster %d references user %d", ErrCorrupt, ui, c)
				}
			}
			cl := core.Cluster{Members: ms}
			if len(ms) > 0 {
				cl.Common = m.commonFn(m.memberProfiles(ms))
			}
			clusters[ui] = cl
			// A copy: RemoveUser edits the monitor's list in place, and the
			// engine must still find the user in its own.
			m.clusterMembers = append(m.clusterMembers, append([]int(nil), ms...))
			m.clusters = append(m.clusters, m.sortedNames(ms))
		}
	} else if len(snap.Clusters) != 0 {
		return fmt.Errorf("%w: snapshot has clusters but the configured algorithm is Baseline", ErrCorrupt)
	}
	if err := m.buildEngine(clusters); err != nil {
		return fmt.Errorf("%w: snapshot clustering: %v", ErrCorrupt, err)
	}
	// The state names frontier members only; the exact engines read
	// their dominated tuples back from the registry (core.TupleClasses).
	if err := m.eng.RestoreState(snap.Engine); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	*m.ctr = snap.Counters
	m.restoreBatchMemos(snap.Batches)
	return nil
}
