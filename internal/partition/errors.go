package partition

import (
	"errors"
	"fmt"
	"strings"
)

// ErrPartitionDown marks a partition that could not be reached — or
// would not become ready — within the caller's retry budget. Every
// *PartitionError produced by transport-level failure wraps it, so
// callers dispatch with errors.Is(err, ErrPartitionDown).
var ErrPartitionDown = errors.New("partition: partition down")

// ErrRingVersion marks a write the fleet rejected because the router's
// ring version disagrees with the partition's installed one. The
// Router handles it internally (refetch /ring, retry); it escapes only
// when the refetch loop cannot converge — a fleet actively rebalanced
// by someone else faster than this router can catch up.
var ErrRingVersion = errors.New("partition: ring version mismatch")

// ErrNotLeaseHolder marks a mutation refused because another router
// holds the fleet's write lease. The standby keeps renewing; it takes
// over the moment the holder releases or its TTL lapses.
var ErrNotLeaseHolder = errors.New("partition: write lease held by another router")

// ErrInvalidUTF8 marks a batch a Router refused, before any partition
// saw it, because an object's name or value is not valid UTF-8: the
// JSON API would carry it as U+FFFD. A caller's error, answered 400.
var ErrInvalidUTF8 = errors.New("partition: object name or value is not valid UTF-8")

// RingVersionError is the typed form of a ring-version 409: the
// partition's installed version rides along so the router knows
// whether to refetch (partition is ahead) or push (partition is
// behind). It unwraps to ErrRingVersion and is deliberately NOT
// retryable-as-is — retrying without refreshing the ring would 409
// forever.
type RingVersionError struct {
	// Have is the version the partition has installed.
	Have uint64
	// Msg is the server's error message.
	Msg string
}

func (e *RingVersionError) Error() string {
	return fmt.Sprintf("%v (partition has %d): %s", ErrRingVersion, e.Have, e.Msg)
}

func (e *RingVersionError) Unwrap() error { return ErrRingVersion }

// PartitionError locates one partition's failure inside a fleet call.
type PartitionError struct {
	// Partition is the plan index; URL the partition's base URL.
	Partition int
	URL       string
	// Err is the underlying failure: a *StatusError for an HTTP-level
	// rejection, or a transport error wrapping ErrPartitionDown.
	Err error
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("partition %d (%s): %v", e.Partition, e.URL, e.Err)
}

func (e *PartitionError) Unwrap() error { return e.Err }

// RouteError aggregates the per-partition failures of one fleet
// operation. A fan-out that partially succeeded still returns a
// RouteError: the fleet may now be inconsistent (some partitions hold
// the mutation, some do not) and the caller must retry the operation —
// partitions that already applied it answer the retry as a duplicate,
// which the Router resolves (see router.go) — or take the partition
// down for repair. See the failure playbook in docs/PARTITIONING.md.
type RouteError struct {
	// Op names the failed operation ("AddBatch", "RemoveObject", ...).
	Op string
	// Failures holds one entry per failed partition, in plan order.
	Failures []*PartitionError
}

func (e *RouteError) Error() string {
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = f.Error()
	}
	return fmt.Sprintf("partition: %s failed on %d partition(s): %s", e.Op, len(e.Failures), strings.Join(parts, "; "))
}

// Unwrap exposes every partition failure to errors.Is / errors.As.
func (e *RouteError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// StatusError is an HTTP-level rejection from a partition: the status
// code and the decoded error message. 4xx statuses are authoritative
// (the partition is healthy and said no); the Router retries only
// transport failures and 5xx/503 responses.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.Status, e.Msg)
}

// retryable reports whether an attempt error may succeed on a later
// attempt: transport failures (connection refused, reset, timeout) and
// 5xx responses (a partition mid-shutdown or mid-recovery) are
// retryable; 4xx responses are final.
func retryable(err error) bool {
	var rv *RingVersionError
	if errors.As(err, &rv) {
		return false // needs a ring refresh first, not a blind retry
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return true // transport-level: the partition may come back
}
