package partition

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per partition when a Plan is
// built with vnodes <= 0. 64 points per partition keeps the expected
// ownership imbalance under a few percent for community sizes in the
// thousands while the ring stays tiny (n*64 entries).
const DefaultVNodes = 64

// maxRingPoints bounds a plan's virtual nodes, partitions × vnodes: 1 024
// partitions at DefaultVNodes, far above any fleet this package routes.
// Rings arrive from outside (PUT /ring), and each point costs a hash and
// a slot, so an unbounded vnodes count would let one request allocate
// without limit.
const maxRingPoints = 1 << 16

// Plan is the deterministic user → partition assignment: a consistent-
// hash ring with vnodes virtual points per partition. Determinism is
// the whole contract — a router over n URLs and a partition process
// started with -partition i/n must compute identical owners from
// (n, vnodes) alone — so the hash (FNV-1a 64) and the point-label
// scheme ("p<partition>/v<vnode>") are fixed and versioned by this
// package; changing either is a rebalancing event (every user moves to
// a fresh partition whose WAL has no trace of it), not a tuning knob.
//
// Consistent hashing is used for the usual reason: growing n→n+1
// partitions moves only ~1/(n+1) of the users, so a future rebalance
// migrates a slice, not the world. Today rebalancing is offline (see
// docs/PARTITIONING.md); the ring keeps the door open.
type Plan struct {
	parts  int
	vnodes int
	ring   []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a partition.
type ringPoint struct {
	hash uint64
	part int
}

// NewPlan builds the assignment for parts partitions with vnodes
// virtual points each (vnodes <= 0 selects DefaultVNodes). It refuses a
// plan of more than maxRingPoints points.
func NewPlan(parts, vnodes int) (*Plan, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("partition: plan needs at least one partition, got %d", parts)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if vnodes > maxRingPoints || parts > maxRingPoints/vnodes {
		return nil, fmt.Errorf("partition: plan of %d partitions × %d vnodes exceeds %d ring points", parts, vnodes, maxRingPoints)
	}
	p := &Plan{parts: parts, vnodes: vnodes, ring: make([]ringPoint, 0, parts*vnodes)}
	for part := 0; part < parts; part++ {
		for v := 0; v < vnodes; v++ {
			p.ring = append(p.ring, ringPoint{hash: hash64(fmt.Sprintf("p%d/v%d", part, v)), part: part})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool {
		if p.ring[i].hash != p.ring[j].hash {
			return p.ring[i].hash < p.ring[j].hash
		}
		// A full 64-bit collision between two labels is effectively
		// impossible, but ordering must still be total and deterministic.
		return p.ring[i].part < p.ring[j].part
	})
	return p, nil
}

// Partitions returns the partition count n.
func (p *Plan) Partitions() int { return p.parts }

// VNodes returns the virtual-node count per partition.
func (p *Plan) VNodes() int { return p.vnodes }

// Owner returns the partition index owning the named user: the first
// ring point at or clockwise after the user's hash.
func (p *Plan) Owner(user string) int {
	h := hash64(user)
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0 // wrap: the circle's first point
	}
	return p.ring[i].part
}

// hash64 is FNV-1a 64 followed by a splitmix64-style finalizer. Raw
// FNV avalanches poorly on short sequential keys like "u17" — ring
// positions come out clustered and ownership badly skewed — so the
// output is mixed before use. Both stages are part of the plan's wire
// contract, never to be changed without a fleet-wide rebalance.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
