package partition

import (
	"encoding/json"
	"fmt"
)

// RingHeader is the HTTP header routers stamp onto every partition
// call with the ring version they route by, and partitions stamp onto
// every ring-conflict 409 with the version they have installed. Its
// presence on a 409 is what distinguishes a ring-version conflict
// (refetch and retry) from any other conflict.
const RingHeader = "X-Paretomon-Ring"

// BatchHeader carries a POST /objects/batch's batch id,
// "<writer>/<seq>" (paretomon.BatchID): a partition applies each object
// of a re-sent batch at most once and answers with the deliveries of
// its arrival.
const BatchHeader = "X-Paretomon-Batch"

// Ring is a versioned user → partition assignment: one Plan generation
// plus the per-user overrides that exist while a rebalance is in
// flight. It is the unit of agreement between routers and partitions —
// every partition persists the newest ring it has been handed (under
// the store meta key "ring"), every router stamps the version it
// believes in onto each mutating call, and a mismatch is a typed 409
// (ErrRingVersion) that forces the slow side to refetch before the
// write lands. See docs/PARTITIONING.md "Live rebalancing".
//
// Ownership resolves in two steps: Moves[user] pins a user to an
// explicit partition index (the transitional state while their history
// is still at the old owner), and everyone else falls to the
// consistent-hash plan over Parts partitions. URLs may be longer than
// Parts during a scale-in — the retiring partitions keep their indices
// (and their pinned users) until migration drains them.
type Ring struct {
	// Version is the ring generation, starting at 1; 0 is reserved for
	// "no ring installed" (the pre-rebalance legacy mode where routers
	// send no version header).
	Version uint64 `json:"version"`
	// Parts and VNodes parameterize the consistent-hash plan that owns
	// every user without a Moves entry.
	Parts  int `json:"parts"`
	VNodes int `json:"vnodes"`
	// URLs are the fleet base URLs by partition index. len(URLs) >=
	// Parts; indices >= Parts are retiring partitions that still hold
	// pinned users.
	URLs []string `json:"urls"`
	// Moves pins users to explicit partition indices while their state
	// migrates; an empty map means the ring is clean (plan-only).
	Moves map[string]int `json:"moves,omitempty"`

	plan *Plan
}

// NewRing assembles and validates a ring, building its plan.
func NewRing(version uint64, parts, vnodes int, urls []string, moves map[string]int) (*Ring, error) {
	rg := &Ring{Version: version, Parts: parts, VNodes: vnodes, URLs: urls, Moves: moves}
	if err := rg.init(); err != nil {
		return nil, err
	}
	return rg, nil
}

// init validates the ring and builds the embedded plan; it is the
// shared tail of NewRing and DecodeRing.
func (rg *Ring) init() error {
	if rg.Version == 0 {
		return fmt.Errorf("partition: ring version 0 is reserved")
	}
	if rg.Parts <= 0 || rg.Parts > len(rg.URLs) {
		return fmt.Errorf("partition: ring has %d parts over %d urls", rg.Parts, len(rg.URLs))
	}
	for u, idx := range rg.Moves {
		if idx < 0 || idx >= len(rg.URLs) {
			return fmt.Errorf("partition: ring pins user %q to partition %d, fleet has %d", u, idx, len(rg.URLs))
		}
	}
	plan, err := NewPlan(rg.Parts, rg.VNodes)
	if err != nil {
		return err
	}
	rg.plan = plan
	return nil
}

// DecodeRing parses a ring payload (the /ring wire format).
func DecodeRing(data []byte) (*Ring, error) {
	var rg Ring
	if err := json.Unmarshal(data, &rg); err != nil {
		return nil, fmt.Errorf("partition: decoding ring: %w", err)
	}
	if err := rg.init(); err != nil {
		return nil, err
	}
	return &rg, nil
}

// Encode serializes the ring for /ring.
func (rg *Ring) Encode() []byte {
	data, err := json.Marshal(rg)
	if err != nil {
		panic(fmt.Sprintf("partition: encoding ring: %v", err)) // plain data, cannot fail
	}
	return data
}

// Owner resolves a user: the Moves pin when present, the plan
// otherwise.
func (rg *Ring) Owner(user string) int {
	if idx, ok := rg.Moves[user]; ok {
		return idx
	}
	return rg.plan.Owner(user)
}

// PlanOwner resolves a user against the plan alone, ignoring pins —
// where the user lands once migration completes.
func (rg *Ring) PlanOwner(user string) int { return rg.plan.Owner(user) }

// successor derives the next ring generation: same plan parameters
// unless overridden, version bumped by one, and a fresh Moves map the
// caller may edit before pushing.
func (rg *Ring) successor() *Ring {
	moves := make(map[string]int, len(rg.Moves))
	for u, idx := range rg.Moves {
		moves[u] = idx
	}
	next := &Ring{
		Version: rg.Version + 1,
		Parts:   rg.Parts,
		VNodes:  rg.VNodes,
		URLs:    append([]string(nil), rg.URLs...),
		Moves:   moves,
		plan:    rg.plan,
	}
	return next
}
