// Package paretomon is a library for continuous monitoring of Pareto
// frontiers on partially ordered attributes for many users — a Go
// implementation of Sultana & Li, "Continuous Monitoring of Pareto
// Frontiers on Partially Ordered Attributes for Many Users" (EDBT 2018).
//
// Objects (tuples of categorical attribute values) arrive on a stream;
// each user's preferences are strict partial orders, one per attribute; an
// arriving object is delivered to exactly the users for whom it is
// Pareto-optimal among the alive objects. Three engines are provided:
//
//   - AlgorithmBaseline — per-user frontier maintenance (the paper's Alg. 1).
//   - AlgorithmFilterThenVerify — users are clustered by preference
//     similarity and a shared frontier under each cluster's common
//     preferences filters objects before any per-user work (Alg. 2).
//     Results are identical to Baseline; work is not.
//   - AlgorithmFilterThenVerifyApprox — clusters use approximate common
//     preferences (tuples shared by most members, Alg. 3), trading a small,
//     measurable recall loss for larger clusters and fewer comparisons.
//
// WithWindow(n) switches all three engines to sliding-window semantics
// (Sec. 7): an object expires after n subsequent arrivals and frontiers
// are mended from Pareto frontier buffers. An expired object is
// forgotten, as a removed one is — its name is free again — so what a
// windowed monitor keeps per object is bounded by the window.
//
// WithWorkers(n) sets how many shards all of the above run on: users
// (Baseline) or whole clusters (filter-then-verify) are partitioned
// across n shards — each owning its slice of the frontiers, and of the
// buffers when a window is set; the window itself is the monitor's
// object registry, which every shard reads. Add runs the shards one after
// another; AddBatch runs them on goroutines of their own and joins them
// before it returns. Deliveries are identical for every n; Stats reports
// the per-shard work split. See docs/ARCHITECTURE.md for the sharding
// model.
//
// A minimal session:
//
//	s := paretomon.NewSchema("display", "brand", "CPU")
//	com := paretomon.NewCommunity(s)
//	alice, _ := com.AddUser("alice")
//	alice.PreferChain("brand", "Apple", "Lenovo", "Toshiba")
//	mon, _ := paretomon.NewMonitor(com,
//	    paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
//	    paretomon.WithBranchCut(0.55))
//	d, _ := mon.Add("laptop-1", "13-15.9", "Apple", "dual")
//	fmt.Println(d.Users) // users who should see laptop-1
//
// The community and the object set are mutable on a live monitor (the
// v3 lifecycle API): AddUser and RemoveUser evolve the membership,
// AddPreference and RetractPreference grow and shrink preference
// relations, and RemoveObject takes an object down — each mending the
// affected frontiers in place (objects a removed dominance source alone
// was shielding get promoted back, the mechanism the windowed engines
// use on expiry). Affected subscribers observe the changes as typed
// FrontierDelta events through SubscribeDeltas.
//
// WithStore (or Open, which bundles a file store) makes a monitor
// durable: mutations — ingestion and lifecycle alike — are written to a
// write-ahead log before they apply, WithSnapshotEvery(n) bounds
// recovery replay with periodic state snapshots, and reopening over the
// same store recovers state byte-for-byte equivalent to an
// uninterrupted run — an acknowledged mutation survives kill -9. See
// docs/PERSISTENCE.md.
//
// The same log scales reads: a durable primary ships its WAL as an
// HTTP changefeed (internal/server's GET /wal + GET /snapshot/latest),
// and OpenFollower builds a read-only replica that bootstraps from the
// newest snapshot, tails the feed, and serves the full read API from
// state byte-identical to the primary's — mutations on a follower
// return ErrReadOnly, Lag and Replication report the watermarks, and
// disconnects resume exactly-once from the applied position. See
// docs/REPLICATION.md.
//
// Monitors are safe for concurrent use: one mutator (Add / AddBatch /
// AddPreference / the lifecycle calls) runs at a time while any number
// of readers (Frontier, Stats, Clusters, Users, TargetsOf) proceed in
// parallel. Consumers can also receive deliveries push-style through
// Subscribe or SubscribeDeltas instead of polling. Every error returned
// by the package wraps one of the Err* sentinels in errors.go, so
// callers dispatch with errors.Is rather than string matching.
package paretomon

import (
	"errors"
	"fmt"

	"repro/internal/order"
	"repro/internal/pref"
)

// Schema declares the object attributes. Attribute order is the column
// order used by Monitor.Add.
type Schema struct {
	doms []*order.Domain
}

// NewSchema creates a schema from attribute names. Names must be unique
// and non-empty; it panics otherwise, since a malformed schema is a
// programming error, not an input condition.
func NewSchema(attrs ...string) *Schema {
	if len(attrs) == 0 {
		panic("paretomon: schema needs at least one attribute")
	}
	seen := map[string]bool{}
	s := &Schema{}
	for _, a := range attrs {
		if a == "" || seen[a] {
			panic(fmt.Sprintf("paretomon: invalid or duplicate attribute %q", a))
		}
		seen[a] = true
		s.doms = append(s.doms, order.NewDomain(a))
	}
	return s
}

// Attributes returns the attribute names in declaration order.
func (s *Schema) Attributes() []string {
	out := make([]string, len(s.doms))
	for i, d := range s.doms {
		out[i] = d.Name()
	}
	return out
}

// clone deep-copies the schema, including the domains' interning tables.
func (s *Schema) clone() *Schema {
	c := &Schema{doms: make([]*order.Domain, len(s.doms))}
	for i, d := range s.doms {
		c.doms[i] = d.Clone()
	}
	return c
}

func (s *Schema) attrIndex(name string) (int, bool) {
	for i, d := range s.doms {
		if d.Name() == name {
			return i, true
		}
	}
	return -1, false
}

// Community is the set of users whose preferences are being monitored.
type Community struct {
	schema *Schema
	users  []*User
	byName map[string]*User
}

// NewCommunity creates an empty community over a schema.
func NewCommunity(s *Schema) *Community {
	return &Community{schema: s, byName: make(map[string]*User)}
}

// Schema returns the community's schema.
func (c *Community) Schema() *Schema { return c.schema }

// Len returns the number of users.
func (c *Community) Len() int { return len(c.users) }

// AddUser registers a user. Names must be unique.
func (c *Community) AddUser(name string) (*User, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: user name", ErrEmptyName)
	}
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateUser, name)
	}
	u := &User{name: name, community: c, profile: pref.NewProfile(c.schema.doms)}
	c.users = append(c.users, u)
	c.byName[name] = u
	return u, nil
}

// Users returns all user names in registration order.
func (c *Community) Users() []string {
	out := make([]string, len(c.users))
	for i, u := range c.users {
		out[i] = u.name
	}
	return out
}

// User is one monitored user and their preference partial orders.
type User struct {
	name      string
	community *Community
	profile   *pref.Profile
}

// Name returns the user's name.
func (u *User) Name() string { return u.name }

// Prefer records that the user prefers value better to value worse on the
// named attribute, together with everything that follows transitively. It
// returns an error if the attribute is unknown or if the preference would
// create a cycle or a reflexive tuple (preferences must remain strict
// partial orders).
func (u *User) Prefer(attr, better, worse string) error {
	d, ok := u.community.schema.attrIndex(attr)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	if err := u.profile.Relation(d).AddValues(better, worse); err != nil {
		return fmt.Errorf("%w: user %q, attribute %q: cannot prefer %q over %q: %w",
			cycleOr(err), u.name, attr, better, worse, err)
	}
	return nil
}

// cycleOr classifies a preference-insertion failure: strict-partial-order
// violations become ErrCycle; anything else stays generic but typed.
func cycleOr(err error) error {
	if errors.Is(err, order.ErrNotStrictPartialOrder) {
		return ErrCycle
	}
	return ErrInvalidConfig
}

// PreferChain records a total preference chain values[0] ≻ values[1] ≻ …
// on the named attribute.
func (u *User) PreferChain(attr string, values ...string) error {
	if len(values) < 2 {
		return fmt.Errorf("%w: PreferChain needs at least two values", ErrInvalidConfig)
	}
	for i := 0; i+1 < len(values); i++ {
		if err := u.Prefer(attr, values[i], values[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// Prefers reports whether the user currently prefers better to worse on
// attr (directly or transitively).
func (u *User) Prefers(attr, better, worse string) bool {
	d, ok := u.community.schema.attrIndex(attr)
	if !ok {
		return false
	}
	return u.profile.Relation(d).HasValues(better, worse)
}
