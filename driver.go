package paretomon

import (
	"errors"
	"fmt"
)

// Driver is the dissemination surface a cluster of cooperating processes
// exposes: everything a producer or consumer needs to ingest objects,
// evolve the community, and read frontiers — without caring whether one
// engine or a partitioned fleet answers.
//
// Two implementations ship with the repository:
//
//   - *Monitor: one in-process engine over the whole community.
//   - internal/partition.Router: a consistent-hash router fanning the
//     same calls across N primary processes, each owning a slice of the
//     users (see docs/PARTITIONING.md).
//
// Semantics are identical for every per-user read and for deliveries;
// the only contractual differences are ordering of aggregate listings
// (Users and Clusters are registration-ordered on a Monitor, merged
// and name-sorted on a Router) and Stats, whose counters a Router sums
// across partitions (Processed, the stream position, and Twins are the
// maximum: every partition sees the whole stream).
type Driver interface {
	// Ingestion. Deliveries carry the users for whom the object is
	// Pareto-optimal at arrival, across the whole community.
	Add(name string, values ...string) (Delivery, error)
	AddBatch(objs []Object) ([]Delivery, error)
	// AddBatchOnce is AddBatch under a writer's batch id: a re-sent batch
	// applies each object once and answers as at arrival.
	AddBatchOnce(id BatchID, objs []Object) ([]Delivery, error)

	// v3 lifecycle: evolve the community and the object set.
	AddUser(name string, prefs []Preference) error
	RemoveUser(name string) error
	AddPreference(user, attr, better, worse string) error
	RetractPreference(user, attr, better, worse string) error
	RemoveObject(name string) error

	// Reads.
	Frontier(user string) ([]string, error)
	TargetsOf(object string) ([]string, error)
	Users() []string
	Clusters() [][]string
	Stats() Stats

	Close() error
}

// Monitor is the single-process Driver.
var _ Driver = (*Monitor)(nil)

// Subset derives a new community holding exactly the users keep admits,
// with their full preference profiles deep-copied onto a fresh schema.
// The receiver is not modified. A partitioned deployment uses it to give
// each partition its owned slice of one logical community (see
// internal/partition.Plan and paretomon serve -partition); the subset can
// be empty, which NewMonitor will reject with ErrEmptyCommunity.
func (c *Community) Subset(keep func(name string) bool) *Community {
	s := c.schema.clone()
	nc := NewCommunity(s)
	for _, u := range c.users {
		if !keep(u.name) {
			continue
		}
		nu := &User{name: u.name, community: nc, profile: u.profile.Rehome(s.doms)}
		nc.users = append(nc.users, nu)
		nc.byName[u.name] = nu
	}
	return nc
}

// Ready reports whether the monitor is able to serve: nil when it is,
// an error describing why not otherwise. It is the substance behind
// GET /readyz — a partition router probes it before (re)sending work —
// and deliberately stricter than liveness:
//
//   - a closed monitor is not ready (ErrMonitorClosed);
//   - a durable monitor whose store is poisoned (a failed WAL append —
//     memory and log may disagree) is not ready until restarted;
//   - a follower is ready only while its changefeed is connected and
//     the apply loop has not stopped on a fatal error, so a load
//     balancer never routes reads to a replica that is silently
//     diverging.
func (m *Monitor) Ready() error {
	if m.subs.isClosed() {
		return ErrMonitorClosed
	}
	m.mu.RLock()
	serr := m.storeErr
	m.mu.RUnlock()
	if serr != nil {
		if errors.Is(serr, ErrMonitorClosed) {
			return serr
		}
		return fmt.Errorf("%w: store unusable: %w", ErrStore, serr)
	}
	if f := m.follower; f != nil {
		if err, _ := f.err.Load().(error); err != nil {
			return fmt.Errorf("paretomon: replication stopped: %w", err)
		}
		if !f.connected.Load() {
			return fmt.Errorf("paretomon: follower changefeed disconnected from %s", f.primary)
		}
	}
	return nil
}
