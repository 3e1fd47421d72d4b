package storage

import (
	"errors"

	"repro/internal/core"
	"repro/internal/stats"
)

// FormatVersion is the on-disk format version written into every WAL
// segment header and snapshot header. Readers reject other versions with
// ErrVersion; see docs/PERSISTENCE.md for the version-bump policy.
//
// Version history:
//
//	1  PR 3: objects + online preference additions; snapshots pin a
//	   fixed community and carry object names only.
//	2  v3 lifecycle API: four new record types (user add/remove,
//	   preference retraction, object removal); snapshots become
//	   self-contained — full user table with asserted preference tuples
//	   and alive flags, full object table with attribute values and
//	   alive flags — so recovery can rebuild an evolved community.
//	3  interned-id engine state: the engine section's per-snapshot
//	   object dedup table is gone; frontier, buffer, and window entries
//	   are bare object ids resolved against the snapshot's object
//	   table (ids are dense indices into it).
//	4  exactly-once batches: each OpObject record of a batch appended
//	   under a batch id carries the id, and the snapshot body ends with
//	   each writer's last-batch memo. A v4 build reads v3 files (no
//	   tags, a body that ends before the memos).
const FormatVersion = 4

const oldestReadable = 3 // the oldest version this build reads

var (
	// ErrCorrupt reports on-disk state that cannot be trusted: a bad
	// magic number, a CRC mismatch outside the torn tail of the newest
	// WAL segment, a sequence gap between segments, or a snapshot whose
	// body does not decode. Recovery stops rather than guessing.
	ErrCorrupt = errors.New("storage: corrupt state")

	// ErrVersion reports a WAL segment or snapshot written by an
	// incompatible format version. Unlike corruption, the bytes are
	// intact — an older or newer build wrote them — so the operator must
	// migrate or roll back rather than discard.
	ErrVersion = errors.New("storage: unsupported format version")

	// ErrLocked reports a store directory already held by another live
	// process. The WAL is single-writer: a second writer would truncate
	// segments out from under the first, so OpenFile refuses instead.
	ErrLocked = errors.New("storage: data directory locked by another process")
)

// Op discriminates WAL record types.
type Op uint8

const (
	// OpObject logs one object ingestion (Monitor.Add, or one element of
	// Monitor.AddBatch).
	OpObject Op = 1
	// OpPreference logs one online preference-tuple addition
	// (Monitor.AddPreference).
	OpPreference Op = 2
	// OpAddUser logs a user joining the community with their initial
	// preference tuples (Monitor.AddUser).
	OpAddUser Op = 3
	// OpRemoveUser logs a user leaving the community
	// (Monitor.RemoveUser).
	OpRemoveUser Op = 4
	// OpRetractPreference logs an online preference-tuple retraction
	// (Monitor.RetractPreference).
	OpRetractPreference Op = 5
	// OpRemoveObject logs an object deletion (Monitor.RemoveObject).
	OpRemoveObject Op = 6
)

// RecordPref is one preference tuple inside an OpAddUser record.
type RecordPref struct {
	Attr   string
	Better string
	Worse  string
}

// Record is one write-ahead-log entry: the raw input of a single
// monitor mutation, sufficient to replay it through a fresh engine.
// Fields beyond Seq and Op are op-specific; unused ones stay zero.
type Record struct {
	// Seq is the record's position in the global log, starting at 1 and
	// increasing by exactly 1 per record with no gaps.
	Seq uint64
	// Op selects which of the field groups below is meaningful.
	Op Op
	// Writer and Batch tag each OpObject record of an AddBatchOnce
	// append with its batch id: writer Writer's batch Batch. Zero on
	// every other record.
	Writer string
	Batch  uint64

	// Name and Values describe an OpObject record: the object's unique
	// name and its attribute values in schema order. OpRemoveObject uses
	// Name alone.
	Name   string
	Values []string

	// User, Attr, Better and Worse describe an OpPreference or
	// OpRetractPreference record: the user now also / no longer prefers
	// value Better over value Worse on attribute Attr. OpRemoveUser uses
	// User alone.
	User   string
	Attr   string
	Better string
	Worse  string

	// Prefs lists an OpAddUser record's initial preference tuples (Name
	// carries the user name).
	Prefs []RecordPref
}

// Stats describes a store's footprint for observability endpoints
// (GET /storage/stats).
type Stats struct {
	// Dir is the backing directory ("" for the in-memory store).
	Dir string `json:"dir"`
	// Segments and WALBytes count the live WAL segments and their total
	// size; Snapshots and SnapshotBytes count the retained snapshot
	// files and the newest snapshot's size.
	Segments      int   `json:"segments"`
	WALBytes      int64 `json:"wal_bytes"`
	Snapshots     int   `json:"snapshots"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// LastSnapshotSeq is the newest snapshot's log position (0 if none).
	LastSnapshotSeq uint64 `json:"last_snapshot_seq"`
	// LastAppendedSeq is the newest log position appended by this
	// process (0 before the first append). Monitor.StorageStats
	// overrides it with the authoritative value, which also covers
	// records recovered from prior incarnations; replication dashboards
	// compare it against follower applied-seq watermarks.
	LastAppendedSeq uint64 `json:"last_appended_seq"`
	// AppendedRecords and AppendedBytes count WAL appends performed by
	// this process (not prior incarnations); over the raw bytes ingested
	// they give the write amplification.
	AppendedRecords uint64 `json:"appended_records"`
	AppendedBytes   uint64 `json:"appended_bytes"`
}

// Store is the narrow persistence interface the Monitor writes through.
// Implementations must serialize calls internally or document that the
// caller does (the Monitor holds its write lock around every call).
type Store interface {
	// Append adds records to the WAL in order. Seqs must continue the
	// log contiguously; records of one call are written as one unit, so
	// a crash can tear at most the call's tail, never interleave it.
	Append(recs ...Record) error
	// Replay streams every record with Seq > afterSeq in log order,
	// stopping early if fn returns an error (which it propagates). A
	// torn tail on the newest segment is silently treated as the end of
	// the log; damage anywhere else is ErrCorrupt.
	Replay(afterSeq uint64, fn func(rec Record) error) error
	// WriteSnapshot durably persists the encoded monitor state covering
	// the log through seq. The write is atomic: a crash leaves either
	// the complete snapshot or none, never a partial one.
	WriteSnapshot(seq uint64, body []byte) error
	// LoadSnapshot returns the newest readable snapshot. ok is false if
	// no snapshot exists; an unreadable newest snapshot falls back to
	// the next older one. All-corrupt is ErrCorrupt, a snapshot from an
	// incompatible format is ErrVersion.
	LoadSnapshot() (seq uint64, body []byte, ok bool, err error)
	// Prune drops WAL segments and snapshots no longer needed for
	// recovery, always retaining enough history to recover from the
	// previous snapshot should the newest one be lost.
	Prune() error
	// Stats reports the store's current footprint.
	Stats() (Stats, error)
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// MetaStore is the optional coordination-record extension of Store:
// small durable key/value blobs that live beside the WAL but outside
// it — the fleet ring a partition has accepted, the router write
// lease. Meta records are not monitor state (they never replay) and
// not covered by snapshots; each Put replaces the key's value
// atomically. Both shipped stores implement it; custom backends that
// do not are simply unable to host ring/lease state durably (the
// monitor falls back to process-local memory).
type MetaStore interface {
	// PutMeta durably replaces key's value. Keys must be short
	// filename-safe tokens ([a-z0-9_-]).
	PutMeta(key string, value []byte) error
	// GetMeta returns key's current value; ok is false if the key was
	// never written.
	GetMeta(key string) ([]byte, bool, error)
}

// UserState is one user slot of a snapshot's community table: slots are
// construction-order (removed users stay in place, tombstoned, so user
// indices baked into the engine state stay stable).
type UserState struct {
	Name string
	// Alive is false for removed users; their Prefs are empty and their
	// engine-state slots blank.
	Alive bool
	// Prefs[d] lists attribute d's asserted preference tuples as
	// (better, worse) value-id pairs into Domains[d], in assertion
	// order. Re-asserting them in order reproduces both the closure and
	// the retractable base.
	Prefs [][][2]int
}

// ObjectState is one object slot of a snapshot's object table, in id
// (arrival) order. Attribute values ride along so the alive objects can
// serve as mend candidates after future retractions and removals.
type ObjectState struct {
	Name  string
	Alive bool
	Attrs []int32
}

// Snapshot is the complete durable state of a Monitor at one log
// position, independent of the worker-shard layout. Since format
// version 2 it is self-contained: the community (users, preferences,
// clusters) and the object registry are stored in full, so recovery
// rebuilds an evolved monitor without replaying its lifecycle history.
// Marshal/Unmarshal define the byte encoding (see docs/PERSISTENCE.md).
type Snapshot struct {
	// Configuration fingerprint: restore refuses state written under a
	// semantically different engine configuration.
	Algorithm    uint8
	Window       int
	Measure      uint8
	BranchCut    float64
	ClusterCount int
	Theta1       int
	Theta2       float64

	// BaseUsers is how many leading user slots came from the
	// construction-time community; recovery pins the caller's community
	// against exactly those.
	BaseUsers int
	// Users is the full community table in construction order.
	Users []UserState
	// Clusters holds member user indices per cluster, in cluster order
	// (empty for Baseline; a memberless entry is a dormant cluster kept
	// as a placeholder so cluster indices stay stable).
	Clusters [][]int
	// Domains holds each attribute's interned values in id order, so
	// restored value ids match the ones baked into frontier objects.
	Domains [][]string
	// Objects is the full object registry in id order.
	Objects []ObjectState
	// Counters is the work accounting at the snapshot position.
	Counters stats.Counters
	// Engine is the engine-facing state: frontiers in scan order and
	// Pareto frontier buffers. Under a window the window itself is
	// Objects' tail, which the codec writes (see encodeEngine).
	Engine *core.EngineState
	// Batches holds each remembered writer's last-batch memo (v4).
	Batches []BatchMemo
}

// BatchMemo is what a monitor remembers of one writer's last batch: its
// seq, the stream position it started at, and each applied object's
// name and at-arrival delivery, in batch order.
type BatchMemo struct {
	Writer  string
	Seq     uint64
	Start   uint64
	Objects []string
	Users   [][]string
}
