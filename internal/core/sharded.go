package core

import (
	"iter"
	"runtime"
	"sort"
	"sync"

	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// ShardEngine is what a shard must offer to be driven by Sharded: the
// full single-threaded monitor surface over its slice of the user set.
// Both the append-only engine here and the sliding-window engine in
// internal/window satisfy it.
type ShardEngine interface {
	Process(o object.Object) []int
	UserFrontier(c int) []int
	AppendTargets(dst []int, objID int) []int
	ApplyPreference(c, d, better, worse int) error
	// The shard's owned slots of a unit-keyed EngineState (state.go).
	StateEngine
	// Lifecycle mutations (see LifecycleEngine). RegisterUser and
	// RemoveObject apply to every shard (all shards index the full user
	// table, and an object may sit in any shard's frontiers and buffers);
	// the remaining calls go to the owning shard only.
	LifecycleEngine
	// SetClusterTotal tells a cluster-sharded instance the full cluster
	// list grew (its state capture is keyed by global cluster index).
	SetClusterTotal(n int)
	// SetCommonFn installs the cluster-relation recompute of every
	// lifecycle call and preference update; a cluster of its own keeps
	// its member's profile instead.
	SetCommonFn(fn CommonFn)
	// FastForward moves a windowed shard that holds no object yet to
	// stream position n, as if n arrivals had come and gone (an object
	// sync joining a source whose older arrivals expired): its C_o table
	// starts at id n. No-op on append-only engines.
	FastForward(n int)
	// Span is the shard's C_o table span (TargetTracker.Span).
	Span() int
	// EnableScratch lets Process reuse one internal result slice instead
	// of allocating a fresh C_o per object. Sharded enables it on every
	// shard — it always copies results into its own merged slice before
	// returning, so the aliasing is contained.
	EnableScratch()
}

// Sharded is the engine every Monitor runs on: user-disjoint shards, one
// single-threaded engine each. One shard is the paper's sequential
// algorithm; more shards are an engineering extension (the paper's
// experiments are single-threaded). Because shards own disjoint
// clusters, and so disjoint users, the only
// cross-shard state is the counters, so results are identical to a
// standalone engine's by construction; the property tests pin that
// equivalence.
//
// Counter discipline: each shard accumulates comparisons into its own
// private counter and is never drained on the hot path. The public
// counter holds only the true Processed count (an object is processed
// once, not once per shard) plus whatever base recovery folded in;
// Totals sums the two views on demand. The old harness drained every
// shard counter under a mutex after every object — measurably the
// single largest cost of stream-mode fan-out.
//
// Dispatch: Process runs the shards one after another in the caller's
// goroutine, with zero synchronization — a hand-off per shard per object
// cost more than the shards' work saved, at every worker count measured
// (docs/PERFORMANCE.md). ProcessBatch fork-joins: shard 0 walks the
// batch in the caller's goroutine and every other shard in a goroutine
// of its own, joined before the merge. Between calls the engine holds no
// goroutine and nothing that must be closed.
//
// Sharded itself is single-writer, like the engines it wraps: callers
// serialize Process / ProcessBatch / ApplyPreference externally (the
// public Monitor does so under its write lock).
type Sharded struct {
	shards []ShardEngine
	ctrs   []*stats.Counters // per-shard private counters; monotonic, folded on read
	owner  []int             // user index -> shard index

	// public counter: true Processed count + recovery-folded base
	// (may be nil)
	ctr *stats.Counters

	clusterCount int // full cluster-list length (0 over clusters of their own)

	wg      sync.WaitGroup // ProcessBatch's join, reused
	results [][]int        // per-shard result scratch for the merge
	arenas  []shardArena   // per-shard results of the batch in flight
	merged  [][]int        // ProcessBatch's result slice, grow-only
	block   []int          // what is left of the block ProcessBatch carves C_o from
}

// userBlockLen is how many target users a block of merged C_o holds:
// 16 KiB, a size class of its own (ints carry no malloc header).
const userBlockLen = 2048

// shardArena holds one shard's results for a batch. Each object's target
// users are copied out of the engine's scratch (which the next Process
// overwrites) into one flat slice reused across batches, so a B-object
// batch costs O(1) steady-state allocations instead of B.
type shardArena struct {
	flat []int
	offs []int // object j's users are flat[offs[j]:offs[j+1]]
}

// NewSharded builds the append-only engine for a community: Alg. 2 with
// whole clusters dealt round-robin over the shards — a cluster's filter
// frontier and its members' frontiers always land on the same shard — and
// Alg. 1 when clusters is nil, every user a cluster of its own (see
// ShardClusters). active marks the alive slots of the user table (nil:
// all of them): a removed user keeps its index but belongs to no shard and
// no cluster, and memberless (dormant) clusters ride along as placeholders
// so cluster indices stay stable; a fresh community is the case with
// every user alive. Cluster membership must partition exactly the alive
// users, and — the shards' frontier members being tuple classes — every
// cluster relation must be subsumed by its members' (see
// NewFilterThenVerify). alive yields every alive object in arrival order,
// on every call: the owner's registry, which the lifecycle calls and
// RestoreState read their candidates from (the engine never copies it).
// An engine that will see neither may take nil. workers <= 0 means
// GOMAXPROCS; the count is clamped to the users or non-dormant clusters
// there are to deal out.
func NewSharded(users []*pref.Profile, clusters []Cluster, active []bool, alive iter.Seq[object.Object], workers int, ctr *stats.Counters) (*Sharded, error) {
	s, err := ShardClusters(users, clusters, active, alive, workers, ctr,
		func(s ClusterShard) ShardEngine { return newFilterThenVerify(s) })
	if err != nil {
		return nil, err
	}
	if err := CheckSubsumed(users, clusters); err != nil {
		return nil, err
	}
	return s, nil
}

// NewShardedPerObject is NewSharded with every object its own frontier
// member: what clusters carrying approximate common relations need (see
// NewFilterThenVerifyPerObject), and the published Algs. 1–2 otherwise.
func NewShardedPerObject(users []*pref.Profile, clusters []Cluster, active []bool, alive iter.Seq[object.Object], workers int, ctr *stats.Counters) (*Sharded, error) {
	return ShardClusters(users, clusters, active, alive, workers, ctr,
		func(s ClusterShard) ShardEngine { return &FilterThenVerify{ClusterShard: s} })
}

// newSharded assembles the harness with one private counter per shard
// and empty shard slots for the caller to fill.
func newSharded(workers int, owner []int, ctr *stats.Counters) *Sharded {
	s := &Sharded{
		shards:  make([]ShardEngine, workers),
		ctrs:    make([]*stats.Counters, workers),
		owner:   owner,
		ctr:     ctr,
		results: make([][]int, workers),
		arenas:  make([]shardArena, workers),
	}
	for i := range s.ctrs {
		s.ctrs[i] = &stats.Counters{}
	}
	return s
}

// ShardClusters assembles a harness whose shards own round-robin
// partitions of the cluster list, each reading the alive objects from
// alive; build wraps each shard's bookkeeping into an engine. It fails
// unless membership partitions exactly the alive users (see
// ValidatePartition). A nil cluster list is Alg. 1's
// community: every user slot a cluster of its own, so the shards deal out
// users, and a user activated later founds one on the shard c mod
// workers.
func ShardClusters(users []*pref.Profile, clusters []Cluster, active []bool, alive iter.Seq[object.Object], workers int, ctr *stats.Counters, build func(ClusterShard) ShardEngine) (*Sharded, error) {
	clusters, gidx, total := layout(users, clusters, active)
	if err := ValidatePartition(len(users), clusters, active); err != nil {
		return nil, err
	}
	units := 0
	for _, cl := range clusters {
		if len(cl.Members) > 0 {
			units++
		}
	}
	workers = resolveWorkers(workers, units)
	owner := make([]int, len(users))
	own := make([][]Cluster, workers)
	idx := make([][]int, workers)
	for i, cl := range clusters {
		sh := i % workers
		own[sh] = append(own[sh], cl)
		idx[sh] = append(idx[sh], gidx[i])
		for _, c := range cl.Members {
			owner[c] = sh
		}
	}
	s := newSharded(workers, owner, ctr)
	s.clusterCount = total
	for i := range s.shards {
		s.shards[i] = build(newClusterShard(users, own[i], idx[i], total, alive, s.ctrs[i]))
		s.shards[i].EnableScratch()
	}
	return s, nil
}

// resolveWorkers normalizes a worker-count request: n <= 0 means
// GOMAXPROCS, and the count is clamped to the number of independent
// units (clusters or users) available to shard over.
func resolveWorkers(workers, units int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Process fans the object out to every shard, sequentially in the
// caller's goroutine, and merges the target users.
//
//paretomon:hotpath
func (s *Sharded) Process(o object.Object) []int {
	for i, sh := range s.shards {
		s.results[i] = sh.Process(o)
	}
	s.ctr.AddProcessedN(1)
	return mergeUsers(s.results)
}

// ProcessBatch runs a whole batch through every shard at once: shard 0
// walks it in the caller's goroutine, every other shard in a goroutine
// of its own, so synchronization happens once per batch rather than once
// per object. Results are per object, in batch order — identical to
// calling Process object by object. The returned outer slice is the
// harness's own, overwritten by the next ProcessBatch; the per-object
// slices are fresh and may be retained: capped pieces carved from a block
// carried across batches.
//
//paretomon:hotpath
func (s *Sharded) ProcessBatch(objs []object.Object) [][]int {
	if cap(s.merged) < len(objs) {
		s.merged = make([][]int, len(objs))
	}
	out := s.merged[:len(objs)]
	s.wg.Add(len(s.shards))
	for i := 1; i < len(s.shards); i++ {
		go s.walk(i, objs)
	}
	s.walk(0, objs)
	s.wg.Wait()
	for j := range objs {
		n := 0
		for i := range s.arenas {
			a := &s.arenas[i]
			s.results[i] = a.flat[a.offs[j]:a.offs[j+1]]
			n += len(s.results[i])
		}
		out[j] = nil
		if n > 0 {
			out[j] = mergeInto(s.carve(n), s.results)
		}
	}
	s.ctr.AddProcessedN(len(objs))
	return out
}

// carve returns n fresh ints, capped, from the block, opening a new block
// when what is left is too short; more than a quarter block gets an array
// of its own.
func (s *Sharded) carve(n int) []int {
	if n > userBlockLen/4 {
		return make([]int, n)
	}
	if n > len(s.block) {
		s.block = make([]int, userBlockLen)
	}
	out := s.block[:n:n]
	s.block = s.block[n:]
	return out
}

// walk runs shard i over the batch, copying each result into the
// shard's arena before the next Process overwrites it. Offsets, not
// subslices: growing flat moves it.
//
//paretomon:hotpath
func (s *Sharded) walk(i int, objs []object.Object) {
	a := &s.arenas[i]
	a.flat, a.offs = a.flat[:0], a.offs[:0]
	for _, o := range objs {
		a.offs = append(a.offs, len(a.flat))
		a.flat = append(a.flat, s.shards[i].Process(o)...)
	}
	a.offs = append(a.offs, len(a.flat))
	s.wg.Done()
}

// mergeUsers merges per-shard target-user lists into one fresh sorted
// C_o (nil when empty — the standalone engines' convention). Shards own
// disjoint users, so no deduplication is needed, and each shard's list
// is already sorted, so a single non-empty list just gets copied.
func mergeUsers(results [][]int) []int {
	total := 0
	for _, r := range results {
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	return mergeInto(make([]int, total), results)
}

// mergeInto copies the per-shard lists into co, as long as all of them
// together, and sorts it when more than one contributed.
func mergeInto(co []int, results [][]int) []int {
	at, nonEmpty := 0, 0
	for _, r := range results {
		if len(r) > 0 {
			at += copy(co[at:], r)
			nonEmpty++
		}
	}
	if nonEmpty > 1 {
		sort.Ints(co)
	}
	return co
}

// UserFrontier returns P_c from the shard that owns user c.
func (s *Sharded) UserFrontier(c int) []int {
	return s.shards[s.owner[c]].UserFrontier(c)
}

// Targets returns C_o merged across shards.
func (s *Sharded) Targets(objID int) []int {
	var out []int
	for _, sh := range s.shards {
		out = sh.AppendTargets(out, objID)
	}
	sort.Ints(out)
	return out
}

// ApplyPreference routes an online preference update to the shard that
// owns the user. The preference profiles are shared across shards, so
// the relation grows once; only the owning shard holds the user's (and
// its cluster's) frontiers, so only it needs to repair.
func (s *Sharded) ApplyPreference(c, d, better, worse int) error {
	return s.shards[s.owner[c]].ApplyPreference(c, d, better, worse)
}

// RegisterUser extends every shard's user table: shards index users
// globally, so the table grows everywhere while only the owner will
// activate the slot.
func (s *Sharded) RegisterUser(c int, p *pref.Profile) {
	for _, sh := range s.shards {
		sh.RegisterUser(c, p)
	}
}

// ActivateUser routes the activation to the owning shard: cluster i
// lives on shard i mod shards, as ShardClusters dealt them and as a
// founded cluster continues the deal, and a cluster of its own (cluster
// < 0) on shard c mod shards, as its user's slot would have been dealt.
func (s *Sharded) ActivateUser(c, cluster int) {
	sh := cluster % len(s.shards)
	if cluster < 0 {
		sh = c % len(s.shards)
	}
	if cluster >= s.clusterCount {
		s.clusterCount = cluster + 1
		for _, e := range s.shards {
			e.SetClusterTotal(s.clusterCount)
		}
	}
	for len(s.owner) <= c {
		s.owner = append(s.owner, 0)
	}
	s.owner[c] = sh
	s.shards[sh].ActivateUser(c, cluster)
}

// RemoveUser routes the removal (and its cluster resync) to the owner.
func (s *Sharded) RemoveUser(c int) {
	s.shards[s.owner[c]].RemoveUser(c)
}

// RetractPreference routes the retraction to the shard owning the user's
// frontier (and cluster): as for ApplyPreference, the shared profile
// shrinks once, there, and only that shard mends.
func (s *Sharded) RetractPreference(c, d, better, worse int) error {
	return s.shards[s.owner[c]].RetractPreference(c, d, better, worse)
}

// RemoveObject fans the deletion to every shard: each owns disjoint
// frontiers (and, for windowed engines, buffers) the object may occupy.
func (s *Sharded) RemoveObject(o object.Object) {
	for _, sh := range s.shards {
		sh.RemoveObject(o)
	}
}

// SetCommonFn forwards the cluster-relation recompute to every shard.
func (s *Sharded) SetCommonFn(fn CommonFn) {
	for _, sh := range s.shards {
		sh.SetCommonFn(fn)
	}
}

// TargetSpans reports each shard's C_o table span: under a window, at
// most twice the window however long the stream.
func (s *Sharded) TargetSpans() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Span()
	}
	return out
}

// FastForward moves every shard to stream position n (see ShardEngine).
func (s *Sharded) FastForward(n int) {
	for _, sh := range s.shards {
		sh.FastForward(n)
	}
}

// Shards reports how many workers the engine fans out to.
func (s *Sharded) Shards() int { return len(s.shards) }

// Totals returns the engine-wide work counters: the public counter (true
// Processed count plus any recovery-folded base) plus every shard's
// comparison, filter, verify and delivery counts. Shard Processed counts
// are intentionally excluded — every shard sees every object, so they
// would overcount by the shard factor; they remain visible per shard
// through ShardCounters. Twins is per arrival too, and every shard's class
// table answers the same arrivals, so the first shard's count is the
// engine's.
func (s *Sharded) Totals() stats.Counters {
	t := s.ctr.Snapshot()
	for i, c := range s.ctrs {
		t.Merge(perUserWork(c.Snapshot(), i))
	}
	return t
}

// perUserWork strips shard i's counters of what every shard counts once
// per arrival, leaving the work that adds up across shards (and, on the
// first shard, the twins).
func perUserWork(c stats.Counters, i int) stats.Counters {
	c.Processed = 0
	if i > 0 {
		c.Twins = 0
	}
	return c
}

// ResetShardCounters folds every shard's counters into the public base
// and zeroes the shards. Totals is unchanged by the fold. The Monitor
// calls it after recovery: the public counter was just restored to the
// snapshot's totals and the shard counters hold the replay work, so the
// fold lands the replay work in the public base while the per-shard
// load-skew view restarts from zero.
func (s *Sharded) ResetShardCounters() {
	for i, c := range s.ctrs {
		s.ctr.Merge(perUserWork(c.Snapshot(), i))
		c.Reset()
	}
}

// ShardCounters returns a snapshot of each shard's cumulative work
// counters, for per-shard observability (load skew across shards). The
// returned slice and its elements are copies — callers can hold them
// across later ingestion without racing the live counters.
func (s *Sharded) ShardCounters() []stats.Counters {
	out := make([]stats.Counters, len(s.ctrs))
	for i, c := range s.ctrs {
		out[i] = c.Snapshot()
	}
	return out
}
