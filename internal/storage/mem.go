package storage

import (
	"fmt"
	"sync"
)

// MemStore is an in-memory Store: the same contract as FileStore with
// no durability, for tests and for ephemeral monitors that still want
// the snapshot/restore machinery (e.g. state hand-off between monitor
// generations in one process).
type MemStore struct {
	mu    sync.Mutex
	recs  []Record
	snaps []memSnap
	meta  map[string][]byte

	appendedRecords uint64
	appendedBytes   uint64
	lastAppendedSeq uint64
}

type memSnap struct {
	seq  uint64
	body []byte
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore { return &MemStore{} }

// Append stores copies of the records (callers may reuse Values).
func (m *MemStore) Append(recs ...Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		if n := len(m.recs); n > 0 && rec.Seq != m.recs[n-1].Seq+1 {
			return fmt.Errorf("%w: WAL sequence gap: record %d follows record %d", ErrCorrupt, rec.Seq, m.recs[n-1].Seq)
		}
		rec.Values = append([]string(nil), rec.Values...)
		rec.Prefs = append([]RecordPref(nil), rec.Prefs...)
		m.recs = append(m.recs, rec)
		m.appendedRecords++
		m.appendedBytes += uint64(len(appendRecord(nil, rec)) + recFrameLen)
		m.lastAppendedSeq = rec.Seq
	}
	return nil
}

// Replay streams records with Seq > afterSeq in order.
func (m *MemStore) Replay(afterSeq uint64, fn func(rec Record) error) error {
	m.mu.Lock()
	recs := append([]Record(nil), m.recs...)
	m.mu.Unlock()
	for _, rec := range recs {
		if rec.Seq <= afterSeq {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot stores a copy of the body keyed by seq.
func (m *MemStore) WriteSnapshot(seq uint64, body []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := memSnap{seq: seq, body: append([]byte(nil), body...)}
	for i, s := range m.snaps {
		if s.seq == seq {
			m.snaps[i] = snap
			return nil
		}
	}
	m.snaps = append(m.snaps, snap)
	return nil
}

// LoadSnapshot returns the newest stored snapshot.
func (m *MemStore) LoadSnapshot() (uint64, []byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.snaps) == 0 {
		return 0, nil, false, nil
	}
	best := m.snaps[0]
	for _, s := range m.snaps[1:] {
		if s.seq > best.seq {
			best = s
		}
	}
	return best.seq, append([]byte(nil), best.body...), true, nil
}

// Prune keeps the newest keepSnapshots snapshots and drops records at
// or below the oldest retained one.
func (m *MemStore) Prune() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.snaps) == 0 {
		return nil
	}
	for len(m.snaps) > keepSnapshots {
		oldest := 0
		for i, s := range m.snaps {
			if s.seq < m.snaps[oldest].seq {
				oldest = i
			}
		}
		m.snaps = append(m.snaps[:oldest], m.snaps[oldest+1:]...)
	}
	floor := m.snaps[0].seq
	for _, s := range m.snaps[1:] {
		if s.seq < floor {
			floor = s.seq
		}
	}
	keep := m.recs[:0]
	for _, rec := range m.recs {
		if rec.Seq > floor {
			keep = append(keep, rec)
		}
	}
	m.recs = keep
	return nil
}

// Stats reports the in-memory footprint (encoded sizes, for parity
// with FileStore).
func (m *MemStore) Stats() (Stats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		AppendedRecords: m.appendedRecords,
		AppendedBytes:   m.appendedBytes,
		LastAppendedSeq: m.lastAppendedSeq,
	}
	if len(m.recs) > 0 {
		st.Segments = 1
	}
	for _, rec := range m.recs {
		st.WALBytes += int64(len(appendRecord(nil, rec)) + recFrameLen)
	}
	for _, s := range m.snaps {
		st.Snapshots++
		if s.seq >= st.LastSnapshotSeq {
			st.LastSnapshotSeq = s.seq
			st.SnapshotBytes = int64(len(s.body)) + snapHeaderLen
		}
	}
	return st, nil
}

// PutMeta replaces a coordination record (a copy of value is kept).
func (m *MemStore) PutMeta(key string, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.meta == nil {
		m.meta = make(map[string][]byte)
	}
	m.meta[key] = append([]byte(nil), value...)
	return nil
}

// GetMeta reads a coordination record; ok is false when never written.
func (m *MemStore) GetMeta(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.meta[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

var _ Store = (*MemStore)(nil)
var _ MetaStore = (*MemStore)(nil)
