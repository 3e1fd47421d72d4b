package paretomon

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/replica"
	"repro/internal/storage"
)

// Live state migration. A user's frontier is a pure function of the
// object stream prefix the monitor has processed and the user's
// asserted preference tuples — so moving a user between partitions
// that sit at the same stream position needs only their tuples, not
// their engine state. ExportUsers ships them as replica frames (a head
// watermark carrying the source's object count, then one OpAddUser
// record per user); ImportUsers refuses the stream unless its own
// object count matches the watermark, then runs each user's record
// through AddUser's write path, which WAL-logs the join and mends the
// frontier over the alive objects — byte-for-byte what an untouched
// monitor would hold. ExportObjects/ImportObjects are the bootstrap
// half: they bring a brand-new partition's object registry (ids,
// tombstones, window positions) up to the fleet's stream position
// before any users land on it. The partition Router drives both under
// its fleet-wide write freeze; see docs/PARTITIONING.md.

// metaStore returns the store's MetaStore surface, if any.
func (m *Monitor) metaStore() storage.MetaStore {
	if ms, ok := m.store.(storage.MetaStore); ok {
		return ms
	}
	return nil
}

// PutMeta durably stores a small coordination record (the accepted
// fleet ring, the router lease) beside — not inside — the WAL. On a
// monitor whose store does not support meta records (or that has no
// store) the value is kept in process memory, surviving until restart.
//
// version coordination state (ring payloads), not monitor state.
//
//paretomon:nowal — meta records live beside the WAL, not in it: they
func (m *Monitor) PutMeta(key string, value []byte) error {
	if ms := m.metaStore(); ms != nil {
		return ms.PutMeta(key, value)
	}
	m.metaMu.Lock()
	defer m.metaMu.Unlock()
	if m.metaMem == nil {
		m.metaMem = make(map[string][]byte)
	}
	m.metaMem[key] = append([]byte(nil), value...)
	return nil
}

// GetMeta reads a coordination record stored by PutMeta; ok is false
// when the key was never written.
func (m *Monitor) GetMeta(key string) ([]byte, bool, error) {
	if ms := m.metaStore(); ms != nil {
		return ms.GetMeta(key)
	}
	m.metaMu.Lock()
	defer m.metaMu.Unlock()
	v, ok := m.metaMem[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// HasUser reports whether an alive user with the given name is
// registered. Migration uses it for idempotent re-import: a user the
// destination already holds is skipped, not an error.
func (m *Monitor) HasUser(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.userIdx[name]
	return ok
}

// ExportUsers streams the named users' migratable state as replica
// frames: one head message carrying this monitor's object count (the
// stream-position watermark the importer must match), then one
// OpAddUser record per user holding their asserted preference tuples
// in assertion order. Unknown users fail before anything is written.
func (m *Monitor) ExportUsers(users []string, w io.Writer) error {
	m.mu.RLock()
	watermark := uint64(m.objectCount())
	recs := make([]storage.Record, 0, len(users))
	for _, u := range users {
		idx, ok := m.userIdx[u]
		if !ok {
			m.mu.RUnlock()
			return fmt.Errorf("%w: %q", ErrUnknownUser, u)
		}
		recs = append(recs, storage.Record{Op: storage.OpAddUser, Name: u, Prefs: m.assertedPrefsLocked(idx)})
	}
	m.mu.RUnlock()
	if err := replica.WriteHead(w, watermark); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := replica.WriteRecord(w, rec); err != nil {
			return err
		}
	}
	return nil
}

// assertedPrefsLocked stringifies a user's asserted tuples — the same
// retractable base a snapshot records, resolved back through the
// domain tables so they re-assert identically on any monitor over the
// same schema. Caller holds mu.
func (m *Monitor) assertedPrefsLocked(idx int) []storage.RecordPref {
	var out []storage.RecordPref
	for d, dom := range m.schema.doms {
		vals := dom.Values()
		attr := dom.Name()
		for _, t := range m.profiles[idx].Relation(d).Asserted() {
			out = append(out, storage.RecordPref{Attr: attr, Better: vals[t.Better], Worse: vals[t.Worse]})
		}
	}
	return out
}

// ImportUsers applies an ExportUsers stream through the write path of
// AddUser: each streamed record is checked, WAL-logged and applied, the
// frontier mended over the alive objects, exactly as a direct AddUser
// would. The stream's watermark must equal this monitor's object count
// (ErrMigrateMismatch otherwise) — the property that makes the imported
// frontier identical to the exported one. Users already alive here are
// skipped, so re-running an interrupted import converges. Returns how
// many users were added and how many skipped.
func (m *Monitor) ImportUsers(r io.Reader) (added, skipped int, err error) {
	fr := replica.NewFeedReader(r)
	msg, err := fr.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: reading migration head: %v", ErrMigrateMismatch, err)
	}
	if !msg.IsHead {
		return 0, 0, fmt.Errorf("%w: migration stream does not start with a watermark", ErrMigrateMismatch)
	}
	if have := uint64(m.ObjectCount()); msg.Head != have {
		return 0, 0, fmt.Errorf("%w: source exported at object %d, this monitor is at %d", ErrMigrateMismatch, msg.Head, have)
	}
	for {
		msg, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return added, skipped, nil
		}
		if err != nil {
			return added, skipped, fmt.Errorf("%w: reading migration stream: %v", ErrMigrateMismatch, err)
		}
		if msg.IsHead {
			continue
		}
		rec := msg.Rec
		if rec.Op != storage.OpAddUser {
			return added, skipped, fmt.Errorf("%w: unexpected op %d in user migration stream", ErrMigrateMismatch, rec.Op)
		}
		if m.HasUser(rec.Name) {
			skipped++
			continue
		}
		if err := m.mutate(rec); err != nil {
			return added, skipped, err
		}
		added++
	}
}

// ExportObjects streams the object registry as replica frames: two head
// messages — the registry length, then its base: the oldest id the
// monitor still holds (0 append-only, the window's oldest arrival under a
// window) — then per slot from the base on, in id order, one OpObject
// record and, for tombstoned slots, an immediately following
// OpRemoveObject. Replaying the stream through the live Add/RemoveObject
// paths reproduces ids, tombstones, name reuse and window positions
// exactly.
func (m *Monitor) ExportObjects(w io.Writer) error {
	recs, count, base := m.exportObjects()
	if err := replica.WriteHead(w, uint64(count)); err != nil {
		return err
	}
	if err := replica.WriteHead(w, uint64(base)); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := replica.WriteRecord(w, rec); err != nil {
			return err
		}
	}
	return nil
}

// exportObjects collects ExportObjects' records, the registry length and
// the base. The base skips leading placeholder slots (a fast-forwarded
// monitor's, reloaded from its snapshot): they stand for removed
// arrivals, which an importer's fast-forward reproduces.
func (m *Monitor) exportObjects() (recs []storage.Record, count, base int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	count, base = m.objectCount(), m.windowStart()
	for base < count && m.nameAt(base) == "" {
		base++
	}
	recs = make([]storage.Record, 0, count-base)
	vals := make([][]string, len(m.schema.doms))
	for d, dom := range m.schema.doms {
		vals[d] = dom.Values()
	}
	for id := base; id < count; id++ {
		name, attrs := m.nameAt(id), m.attrsAt(id)
		values := make([]string, len(attrs))
		for d, v := range attrs {
			values[d] = vals[d][v]
		}
		recs = append(recs, storage.Record{Op: storage.OpObject, Name: name, Values: values})
		if !m.aliveAt(id) {
			recs = append(recs, storage.Record{Op: storage.OpRemoveObject, Name: name})
		}
	}
	return recs, count, base
}

// windowStart is the oldest id the monitor still holds: 0 on an
// append-only monitor, the oldest arrival in the window otherwise — but
// never below the registry base, which a fast-forward puts past ids no
// slot stands for. Caller holds mu.
func (m *Monitor) windowStart() int {
	if m.cfg.Window == 0 {
		return 0
	}
	return max(m.objectCount()-m.cfg.Window, m.objBase)
}

// objectID resolves an alive object name to its registry slot.
func (m *Monitor) objectID(name string) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.names.find(name)
}

// slotName is the name registered at id, if the monitor still holds id.
func (m *Monitor) slotName(id int) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id < m.windowStart() || id >= m.objectCount() {
		return "", false
	}
	return m.nameAt(id), true
}

// ImportObjects applies an ExportObjects stream through the live
// Add/RemoveObject paths, from the source's base on. A monitor holding no
// object first fast-forwards to the base; one holding some, but fewer
// than the base, cannot join (ErrMigrateMismatch). The slot prefix this
// monitor already holds is skipped (a re-run after an interrupted sync
// resumes where it stopped). Skipped slots are verified by name against
// the local registry — a divergent prefix is ErrMigrateMismatch, never
// silently merged — and removals are applied even in the skipped region,
// so a takedown the source saw after the interruption still lands. The
// caller must guarantee no concurrent writers (the Router's freeze).
// Returns how many objects were newly applied.
func (m *Monitor) ImportObjects(r io.Reader) (applied int, err error) {
	fr := replica.NewFeedReader(r)
	var heads []uint64
	pos, have := -1, 0 // pos: the source slot id of the next OpObject record, once the heads are read
	for {
		msg, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return applied, nil
		}
		if err != nil {
			return applied, fmt.Errorf("%w: reading object sync stream: %v", ErrMigrateMismatch, err)
		}
		if msg.IsHead {
			heads = append(heads, msg.Head)
			continue
		}
		if pos < 0 {
			if pos, have, err = m.syncStart(heads); err != nil {
				return applied, err
			}
		}
		rec := msg.Rec
		switch rec.Op {
		case storage.OpObject:
			if pos < have {
				if name, _ := m.slotName(pos); name != rec.Name {
					return applied, fmt.Errorf("%w: local object %d is %q, source has %q", ErrMigrateMismatch, pos, name, rec.Name)
				}
			} else if _, err := m.Add(rec.Name, rec.Values...); err != nil {
				return applied, err
			} else {
				applied++
			}
			pos++
		case storage.OpRemoveObject:
			// Emitted right after its slot's OpObject, so it refers to slot
			// pos-1. A takedown name can be reused by a later slot, so the
			// removal applies only when the locally alive name IS that slot
			// — in the skipped prefix it may already be gone, or the name
			// may already belong to its reuser.
			if id, ok := m.objectID(rec.Name); ok && id == pos-1 {
				if err := m.RemoveObject(rec.Name); err != nil {
					return applied, err
				}
			}
		default:
			return applied, fmt.Errorf("%w: unexpected op %d in object sync stream", ErrMigrateMismatch, rec.Op)
		}
	}
}

// syncStart settles where an object sync stream joins this monitor: at
// the source's base, its second head (0 if absent). It returns the base
// and how many objects this monitor has ingested, after fast-forwarding
// an empty monitor to the base.
func (m *Monitor) syncStart(heads []uint64) (base, have int, err error) {
	if len(heads) > 1 {
		base = int(heads[1])
	}
	have = m.ObjectCount()
	switch {
	case have >= base:
		return base, have, nil
	case have > 0:
		return 0, 0, fmt.Errorf("%w: source holds objects from %d on, this monitor has only %d", ErrMigrateMismatch, base, have)
	}
	return base, base, m.fastForward(base)
}

// fastForward moves a monitor that has ingested nothing to stream
// position n, as if n objects had arrived and been removed: the registry
// starts at id n and every shard's C_o table there. Under a window these
// are all that n expired arrivals would have left behind. On a
// durable monitor a snapshot records the new position, since the log has
// no record for it.
func (m *Monitor) fastForward(n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Window == 0 {
		return fmt.Errorf("%w: the source is windowed and holds objects from %d on; this monitor is append-only", ErrMigrateMismatch, n)
	}
	if m.objectCount() != 0 {
		return fmt.Errorf("%w: fast-forward of a monitor that holds objects", ErrMigrateMismatch)
	}
	m.objBase = n
	m.eng.FastForward(n)
	if m.store == nil {
		return nil
	}
	return m.writeSnapshotLocked()
}
