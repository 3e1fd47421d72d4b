// Package stats provides the comparison accounting used throughout the
// evaluation: Figs. 4b–11b of the paper plot the number of pairwise object
// comparisons each algorithm performs, so every dominance test in the
// engines is routed through a Counters instance.
package stats

import "fmt"

// Counters accumulates work metrics for one algorithm run. The zero value
// is ready to use. A nil *Counters is accepted by all methods and counts
// nothing, so hot paths can skip accounting without branching at call
// sites.
type Counters struct {
	// Comparisons is the number of pairwise object dominance comparisons
	// (the y-axis of the paper's "object comparisons" figures).
	Comparisons uint64
	// FilterComparisons counts the subset of Comparisons performed against
	// cluster-level (filter) frontiers; VerifyComparisons counts the
	// per-user verification comparisons. Comparisons == Filter + Verify
	// for the filter-then-verify engines; Baseline only increments Verify.
	FilterComparisons uint64
	VerifyComparisons uint64
	// Delivered is the total number of (object, user) deliveries, i.e.
	// Σ|C_o| over processed objects.
	Delivered uint64
	// Processed is the number of objects consumed from the stream.
	Processed uint64
	// Twins counts the processed objects whose attribute tuple was already
	// alive and that were answered from their tuple class's C_o without a
	// scan (exact append-only engines; see core.TupleClasses). Twins over
	// Processed is the stream's duplicate rate as the engine saw it. The
	// windowed engines count none: a twin walks its buffer there, and only
	// the member tier is skipped.
	Twins uint64
}

// AddFilter records n cluster-level comparisons.
func (c *Counters) AddFilter(n int) {
	if c == nil {
		return
	}
	c.Comparisons += uint64(n)
	c.FilterComparisons += uint64(n)
}

// AddVerify records n user-level comparisons.
func (c *Counters) AddVerify(n int) {
	if c == nil {
		return
	}
	c.Comparisons += uint64(n)
	c.VerifyComparisons += uint64(n)
}

// AddDelivered records n deliveries.
func (c *Counters) AddDelivered(n int) {
	if c == nil {
		return
	}
	c.Delivered += uint64(n)
}

// AddProcessed records one processed object.
func (c *Counters) AddProcessed() {
	if c == nil {
		return
	}
	c.Processed++
}

// AddTwin records one arrival answered without a scan.
func (c *Counters) AddTwin() {
	if c == nil {
		return
	}
	c.Twins++
}

// AddProcessedN records n processed objects at once (batch ingestion).
func (c *Counters) AddProcessedN(n int) {
	if c == nil {
		return
	}
	c.Processed += uint64(n)
}

// Merge folds a snapshot into c. The sharded engines use it to
// accumulate per-worker counters into cumulative per-shard totals.
func (c *Counters) Merge(s Counters) {
	if c == nil {
		return
	}
	c.Comparisons += s.Comparisons
	c.FilterComparisons += s.FilterComparisons
	c.VerifyComparisons += s.VerifyComparisons
	c.Delivered += s.Delivered
	c.Processed += s.Processed
	c.Twins += s.Twins
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	*c = Counters{}
}

// Snapshot returns a copy (nil-safe).
func (c *Counters) Snapshot() Counters {
	if c == nil {
		return Counters{}
	}
	return *c
}

// String renders the counters compactly for experiment logs.
func (c *Counters) String() string {
	s := c.Snapshot()
	return fmt.Sprintf("cmp=%d (filter=%d verify=%d) delivered=%d processed=%d",
		s.Comparisons, s.FilterComparisons, s.VerifyComparisons, s.Delivered, s.Processed)
}
