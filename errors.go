package paretomon

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// The package's error taxonomy. Every error returned by the public API
// wraps exactly one of these sentinels, so callers dispatch with
// errors.Is and never parse message strings:
//
//	if errors.Is(err, paretomon.ErrUnknownUser) { ... 404 ... }
//
// Messages still carry full context (user name, attribute, values) for
// logs; the sentinel carries the category.
var (
	// ErrInvalidConfig reports a rejected option or configuration value
	// (negative window, θ out of range, unknown algorithm, ...).
	ErrInvalidConfig = errors.New("paretomon: invalid configuration")

	// ErrBadOption reports a With* option called with an out-of-range
	// value (negative window, worker count, snapshot interval, cluster
	// count below one, ...). It wraps ErrInvalidConfig, so existing
	// errors.Is(err, ErrInvalidConfig) dispatch keeps matching.
	ErrBadOption = fmt.Errorf("%w: bad option value", ErrInvalidConfig)

	// ErrEmptyCommunity reports a NewMonitor call over a community with
	// no users.
	ErrEmptyCommunity = errors.New("paretomon: community has no users")

	// ErrEmptyName reports an empty user or object name.
	ErrEmptyName = errors.New("paretomon: empty name")

	// ErrUnknownUser reports a user name the community has never seen.
	ErrUnknownUser = errors.New("paretomon: unknown user")

	// ErrUnknownAttribute reports an attribute name outside the schema.
	ErrUnknownAttribute = errors.New("paretomon: unknown attribute")

	// ErrUnknownObject reports an object name the monitor has never
	// ingested — or one RemoveObject has deleted.
	ErrUnknownObject = errors.New("paretomon: unknown object")

	// ErrUnknownPreference reports a RetractPreference of a tuple the
	// user never asserted: unknown values, a never-added pair, or a pair
	// only implied transitively by other assertions (retract an
	// asserting edge instead).
	ErrUnknownPreference = errors.New("paretomon: preference was never asserted")

	// ErrDuplicateUser reports a second AddUser with an existing name.
	ErrDuplicateUser = errors.New("paretomon: duplicate user")

	// ErrDuplicateObject reports a second Add of an existing object name.
	ErrDuplicateObject = errors.New("paretomon: duplicate object")

	// ErrSchemaMismatch reports an object whose value count differs from
	// the schema's attribute count.
	ErrSchemaMismatch = errors.New("paretomon: value count does not match schema")

	// ErrCycle reports a preference that would violate the strict
	// partial order (a cycle or a reflexive tuple).
	ErrCycle = errors.New("paretomon: preference would violate strict partial order")

	// ErrMonitorClosed reports a Subscribe on a monitor whose Close has
	// been called.
	ErrMonitorClosed = errors.New("paretomon: monitor closed")

	// ErrUnsupported reports a persistence call — Snapshot, StorageStats,
	// the changefeed — on a monitor built without a store.
	ErrUnsupported = errors.New("paretomon: operation not supported by engine")

	// ErrCorrupt reports durable state that cannot be trusted during
	// recovery: a damaged WAL record outside the torn tail of the newest
	// segment, a sequence gap, or a snapshot that fails its checksum or
	// does not decode. See docs/PERSISTENCE.md for the recovery policy.
	ErrCorrupt = storage.ErrCorrupt

	// ErrVersion reports durable state written by an incompatible
	// on-disk format version: the bytes are intact, but this build
	// cannot read them — migrate or roll back instead of discarding.
	ErrVersion = storage.ErrVersion

	// ErrStateMismatch reports recovered state that was written under a
	// different monitor setup: another algorithm or window, a changed
	// community (users, preferences) or clustering. Rebuild the store
	// (replay the source stream) when the configuration legitimately
	// changed.
	ErrStateMismatch = errors.New("paretomon: stored state does not match this monitor configuration")

	// ErrStore reports a persistence I/O failure on a durable monitor: a
	// WAL append or snapshot write failed (disk full, permissions, ...).
	// It is a server-side fault, not a caller input error; after a
	// failed append the monitor refuses further durable mutations until
	// a restart recovers from the log.
	ErrStore = errors.New("paretomon: storage failure")

	// ErrLocked reports an Open (or NewFileStore) on a data directory
	// already held by another live process; the WAL is single-writer.
	// The lock releases when the owner exits, kill -9 included.
	ErrLocked = storage.ErrLocked

	// ErrReadOnly reports a mutation — Add, AddBatch, AddPreference,
	// RetractPreference, AddUser, RemoveUser, RemoveObject — on a
	// follower monitor (OpenFollower). Followers replicate the primary's
	// log; writes go to the primary, whose changefeed delivers them back
	// to every follower.
	ErrReadOnly = errors.New("paretomon: monitor is a read-only follower; write to the primary")

	// ErrWALRetired reports a changefeed request (Monitor.WALAfter, the
	// server's GET /wal) for a log position the store has pruned away:
	// snapshots made the records unnecessary for recovery and Prune
	// removed them. A follower that far behind re-bootstraps from the
	// newest snapshot instead of replaying the gap.
	ErrWALRetired = errors.New("paretomon: requested WAL position is no longer retained")

	// ErrMigrateMismatch reports a migration stream that cannot apply
	// here: the source exported at a different object-stream position
	// than this monitor holds (watermarks disagree), or an object-sync
	// stream whose slots diverge from the local registry. The fleet
	// orchestrator aligns the destination (object sync under the write
	// freeze) and retries; applying anyway would build wrong frontiers.
	ErrMigrateMismatch = errors.New("paretomon: migration stream position does not match this monitor")

	// ErrBadBatchID reports a malformed BatchID.
	ErrBadBatchID = errors.New("paretomon: malformed batch id")

	// ErrBatchConflict reports an AddBatchOnce seq older than the
	// writer's last batch, or that batch re-sent with other names.
	ErrBatchConflict = errors.New("paretomon: batch conflicts with the writer's last batch")
)

// BatchError locates the first rejected object of an AddBatch call. The
// batch is validated before any object is ingested, so a BatchError means
// the monitor state is unchanged. It unwraps to the underlying sentinel:
//
//	var be *paretomon.BatchError
//	if errors.As(err, &be) && errors.Is(err, paretomon.ErrDuplicateObject) {
//	    log.Printf("object %d (%s) already ingested", be.Index, be.Object)
//	}
type BatchError struct {
	// Index is the offending object's position in the batch.
	Index int
	// Object is its name ("" when the name itself was empty).
	Object string
	// Err is the underlying error; it wraps one of the sentinels above.
	Err error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("batch object %d (%q): %v", e.Index, e.Object, e.Err)
}

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *BatchError) Unwrap() error { return e.Err }
