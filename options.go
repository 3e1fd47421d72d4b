package paretomon

import "fmt"

// Option configures a Monitor at construction time. Options are applied
// in order over the package defaults (exact FilterThenVerify,
// weighted-Jaccard clustering at h = 0.55, append-only); a later option
// overrides an earlier one. Out-of-range values are rejected by
// NewMonitor with an error wrapping ErrBadOption (and, through it,
// ErrInvalidConfig).
type Option func(*Config) error

// configure folds opts over DefaultConfig, in order: the Config of
// NewMonitor and OpenFollower alike.
func configure(opts []Option) (Config, error) {
	cfg := DefaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// WithAlgorithm selects the monitoring engine.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Config) error {
		switch a {
		case AlgorithmBaseline, AlgorithmFilterThenVerify, AlgorithmFilterThenVerifyApprox:
			c.Algorithm = a
			return nil
		default:
			return fmt.Errorf("%w: WithAlgorithm(%d): unknown algorithm", ErrBadOption, int(a))
		}
	}
}

// WithWindow enables sliding-window semantics: an object is alive for n
// subsequent arrivals (Sec. 7 of the paper). n = 0 restores append-only
// monitoring; negative n is invalid.
func WithWindow(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("%w: WithWindow(%d): window must be >= 0", ErrBadOption, n)
		}
		c.Window = n
		return nil
	}
}

// WithMeasure selects the preference-similarity measure driving user
// clustering for the filter-then-verify engines.
func WithMeasure(m Measure) Option {
	return func(c *Config) error {
		switch m {
		case MeasureIntersectionSize, MeasureJaccard, MeasureWeightedIntersection,
			MeasureWeightedJaccard, MeasureVectorJaccard, MeasureVectorWeightedJaccard:
			c.Measure = m
			return nil
		default:
			return fmt.Errorf("%w: WithMeasure(%d): unknown measure", ErrBadOption, int(m))
		}
	}
}

// WithBranchCut sets the dendrogram branch cut h: hierarchical
// agglomerative clustering merges clusters while their similarity is at
// least h. Mutually exclusive with WithClusterCount; the one given last
// wins. A NaN cut is refused: no similarity would reach it, and every
// user would silently become a singleton cluster.
func WithBranchCut(h float64) Option {
	return func(c *Config) error {
		if !(h >= 0) {
			return fmt.Errorf("%w: WithBranchCut(%v): branch cut must be >= 0", ErrBadOption, h)
		}
		c.BranchCut = h
		c.ClusterCount = 0
		return nil
	}
}

// WithClusterCount makes clustering merge until exactly k clusters remain
// (or fewer users than k exist), instead of cutting the dendrogram at a
// similarity threshold. Useful when the similarity scale of a workload is
// unknown but a target cluster budget is. Mutually exclusive with
// WithBranchCut; the one given last wins.
func WithClusterCount(k int) Option {
	return func(c *Config) error {
		if k < 1 {
			return fmt.Errorf("%w: WithClusterCount(%d): cluster count must be >= 1", ErrBadOption, k)
		}
		c.ClusterCount = k
		return nil
	}
}

// WithThetas sets the approximate engine's thresholds (Def. 6.1): theta1
// bounds each approximate common relation's size; theta2 is the minimum
// (exclusive) fraction of cluster members that must share a tuple for it
// to be admitted. Only AlgorithmFilterThenVerifyApprox consults them.
func WithThetas(theta1 int, theta2 float64) Option {
	return func(c *Config) error {
		if theta1 <= 0 {
			return fmt.Errorf("%w: WithThetas: theta1 must be > 0, got %d", ErrBadOption, theta1)
		}
		if !(theta2 >= 0 && theta2 < 1) {
			return fmt.Errorf("%w: WithThetas: theta2 must be in [0,1), got %v", ErrBadOption, theta2)
		}
		c.Theta1, c.Theta2 = theta1, theta2
		return nil
	}
}

// WithWorkers sets how many shards ingestion fans out to. Whole clusters
// (Baseline's of one user each, the filter-then-verify engines' shared
// ones) are partitioned across that many shards, each maintaining its
// slice of the frontiers independently; deliveries are identical for
// every n. n = 0
// (the default) means runtime.GOMAXPROCS(0); one shard is the paper's
// single-threaded algorithm. Add runs the shards one after another in
// the caller's goroutine; AddBatch runs every shard but the first on a
// goroutine of its own and returns once all have finished, so the
// monitor holds no goroutine between calls. The effective count is
// clamped to the number of shardable units, so WithWorkers(8) over 3
// clusters fans out 3 ways — Stats().Workers reports the resolved value.
func WithWorkers(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("%w: WithWorkers(%d): worker count must be >= 0", ErrBadOption, n)
		}
		c.Workers = n
		return nil
	}
}

// WithSubscriptionBuffer sets the per-subscriber delivery channel buffer
// (default 64). A subscriber that falls more than n deliveries behind
// starts losing the oldest pending ones; Stats.DroppedDeliveries counts
// the losses.
func WithSubscriptionBuffer(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("%w: WithSubscriptionBuffer(%d): buffer must be >= 1", ErrBadOption, n)
		}
		c.SubscriptionBuffer = n
		return nil
	}
}

// WithStore makes the monitor durable: every Add, AddBatch and
// AddPreference is appended to the store's write-ahead log before it is
// applied, and a monitor constructed over a non-empty store recovers
// its state — newest valid snapshot plus the WAL tail — during
// NewMonitor. The community and options must match the ones the stored
// state was written under (NewMonitor fails with ErrStateMismatch
// otherwise). Combine with WithSnapshotEvery to bound recovery replay,
// or use Open, which bundles a file store with ownership. The caller
// keeps ownership of the store and closes it after the monitor is done.
func WithStore(s Store) Option {
	return func(c *Config) error {
		if s == nil {
			return fmt.Errorf("%w: WithStore(nil)", ErrBadOption)
		}
		c.Store = s
		return nil
	}
}

// WithSnapshotEvery makes a durable monitor snapshot its full state
// after every n applied WAL records (objects and preference updates),
// then prune log segments recovery no longer needs. Smaller n bounds
// recovery replay and disk growth at the cost of more snapshot writes;
// see docs/PERSISTENCE.md for tuning guidance. n = 0 (the default)
// disables automatic snapshots — state is still fully recoverable from
// the WAL alone, and explicit Snapshot calls remain available. Requires
// WithStore.
func WithSnapshotEvery(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("%w: WithSnapshotEvery(%d): interval must be >= 0", ErrBadOption, n)
		}
		c.SnapshotEvery = n
		return nil
	}
}
