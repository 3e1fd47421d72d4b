package paretomon

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/approx"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/window"
)

// Algorithm selects the monitoring engine.
type Algorithm int

const (
	// AlgorithmBaseline maintains every user's frontier independently
	// (Alg. 1 / Alg. 4 under a window). Exact.
	AlgorithmBaseline Algorithm = iota
	// AlgorithmFilterThenVerify shares a filter frontier per cluster of
	// similar users (Alg. 2 / Alg. 5). Exact, usually much cheaper.
	AlgorithmFilterThenVerify
	// AlgorithmFilterThenVerifyApprox filters under approximate common
	// preferences (Sec. 6). Approximate: near-perfect precision, recall
	// governed by Theta1/Theta2 and the branch cut.
	AlgorithmFilterThenVerifyApprox
)

func (a Algorithm) String() string {
	switch a {
	case AlgorithmBaseline:
		return "Baseline"
	case AlgorithmFilterThenVerify:
		return "FilterThenVerify"
	case AlgorithmFilterThenVerifyApprox:
		return "FilterThenVerifyApprox"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Measure selects the preference-similarity function used to cluster
// users (Sec. 5 for the exact measures, Sec. 6.3 for the vector ones).
type Measure int

const (
	// MeasureIntersectionSize counts common preference tuples (Eq. 2).
	MeasureIntersectionSize Measure = iota
	// MeasureJaccard normalizes the intersection by the union (Eq. 3).
	MeasureJaccard
	// MeasureWeightedIntersection weighs tuples by how close their better
	// value sits to the top of the order (Eq. 4).
	MeasureWeightedIntersection
	// MeasureWeightedJaccard combines both ideas (Eq. 5); the paper's
	// default for the exact engine.
	MeasureWeightedJaccard
	// MeasureVectorJaccard is the frequency-vector Jaccard (Eq. 9), for
	// the approximate engine.
	MeasureVectorJaccard
	// MeasureVectorWeightedJaccard is its weighted form (Eq. 10).
	MeasureVectorWeightedJaccard
)

func (m Measure) internal() cluster.Measure {
	switch m {
	case MeasureIntersectionSize:
		return cluster.IntersectionSize
	case MeasureJaccard:
		return cluster.Jaccard
	case MeasureWeightedIntersection:
		return cluster.WeightedIntersection
	case MeasureWeightedJaccard:
		return cluster.WeightedJaccard
	case MeasureVectorJaccard:
		return cluster.VectorJaccard
	case MeasureVectorWeightedJaccard:
		return cluster.VectorWeightedJaccard
	default:
		panic(fmt.Sprintf("paretomon: unknown measure %d", int(m)))
	}
}

// Config tunes the monitor. It is the state the functional options write
// into; assemble it through NewMonitor's With* options rather than by
// hand.
type Config struct {
	Algorithm Algorithm
	// Window > 0 enables sliding-window semantics: an object is alive for
	// Window arrivals (Sec. 7). 0 means append-only.
	Window int
	// Measure and BranchCut drive the hierarchical agglomerative
	// clustering for the filter-then-verify engines: clusters merge while
	// their similarity is at least BranchCut (the dendrogram branch cut h).
	Measure   Measure
	BranchCut float64
	// ClusterCount > 0 replaces the branch cut with a target cluster
	// count: merging continues until ClusterCount clusters remain.
	ClusterCount int
	// Theta1 bounds each approximate common relation's size; Theta2 is
	// the minimum (exclusive) fraction of cluster members that must share
	// a tuple for it to be admitted (Def. 6.1). Only used by
	// AlgorithmFilterThenVerifyApprox.
	Theta1 int
	Theta2 float64
	// SubscriptionBuffer is the per-subscriber channel capacity; 0 means
	// the default (64).
	SubscriptionBuffer int
	// Workers is the number of ingestion shards: whole clusters are
	// partitioned across this many shards, Baseline's clusters of one user
	// each as well as filter-then-verify's shared ones. 0 means
	// runtime.GOMAXPROCS(0). Single arrivals run the shards in the caller's
	// goroutine; a batch runs each shard on its own goroutine, joined
	// before AddBatch returns. Deliveries are identical either way.
	Workers int
	// Store, when non-nil, makes the monitor durable: mutations are
	// written to its WAL before being applied, and a monitor constructed
	// over a non-empty store recovers its state (snapshot + WAL tail)
	// during NewMonitor. nil disables persistence.
	Store Store
	// SnapshotEvery, when > 0, snapshots the full monitor state after
	// every n applied WAL records, bounding replay work at recovery.
	// 0 means snapshots happen only through explicit Snapshot calls.
	SnapshotEvery int
}

// DefaultConfig returns the paper's default setting: exact
// FilterThenVerify with weighted-Jaccard clustering at h = 0.55.
//
// Deprecated: new code should call NewMonitor with With* options and
// rely on the identical built-in defaults.
func DefaultConfig() Config {
	return Config{
		Algorithm:          AlgorithmFilterThenVerify,
		Measure:            MeasureWeightedJaccard,
		BranchCut:          0.55,
		Theta1:             500,
		Theta2:             0.5,
		SubscriptionBuffer: defaultSubscriptionBuffer,
	}
}

// Stats reports the work a monitor has done.
type Stats struct {
	// Comparisons is the number of pairwise object dominance comparisons,
	// split into the cluster-tier Filter part and per-user Verify part.
	Comparisons       uint64
	FilterComparisons uint64
	VerifyComparisons uint64
	// Delivered is Σ|C_o| over processed objects; Processed counts objects.
	Delivered uint64
	Processed uint64
	// Twins counts the processed objects that repeated an alive attribute
	// tuple and were answered from their twin's C_o without a comparison
	// (exact append-only engines; 0 under a window or the approximate
	// engine). Twins/Processed is the stream's duplicate rate. Under a
	// window a twin still walks its cluster's buffer, and only its member
	// tier is skipped, so it is not counted here. Not part of a snapshot:
	// it restarts with the process.
	Twins uint64
	// DroppedDeliveries counts deliveries lost because a subscriber's
	// channel was full (slow consumer).
	DroppedDeliveries uint64
	// Workers is the resolved shard count ingestion fans out to; Shards
	// holds each shard's cumulative counters when Workers > 1 (nil at one
	// shard), exposing load skew across the partition.
	Workers int
	Shards  []ShardStats
}

// ShardStats is one ingestion shard's share of the work counters.
type ShardStats struct {
	Comparisons       uint64
	FilterComparisons uint64
	VerifyComparisons uint64
	Delivered         uint64
	Processed         uint64
}

// Object is one item of the monitored stream, ready for AddBatch. Values
// must match the schema's attribute order and count.
type Object struct {
	Name   string
	Values []string
}

// Delivery is the result of ingesting one object.
type Delivery struct {
	// Object is the ingested object's name.
	Object string
	// Users lists (sorted) the users for whom the object is Pareto-optimal
	// at arrival time.
	Users []string
}

// Monitor is a running dissemination engine over a community. Since v3
// the community and the object set are mutable: AddUser, RemoveUser,
// RetractPreference and RemoveObject evolve a live monitor — no rebuild,
// no replay — by mending the affected frontiers in place (the windowed
// engines' expiry mechanism, exposed as a first-class operation).
//
// A Monitor is safe for concurrent use: mutations (Add, AddBatch,
// AddPreference, and the lifecycle calls) serialize as writers, while
// Frontier, Stats, Clusters, Users and TargetsOf run concurrently as
// readers.
type Monitor struct {
	// state is guarded by mu: the engines mutate frontiers in place on
	// every Process, so they are single-writer by construction; the
	// RWMutex recovers concurrent reads.
	state
	mu  sync.RWMutex
	cfg Config

	subs subscriptions

	// Persistence (see persist.go). store/snapEvery mirror the config;
	// sinceSnap counts records toward the next automatic snapshot (under
	// mu). replaying suppresses WAL appends and subscriber publication
	// while recovery re-ingests history. storeErr, once set (failed
	// append, or Close on an owned store), permanently fails durable
	// mutations and snapshots: the log can no longer be trusted to match
	// memory, so restart-and-recover is the only way forward.
	store     Store
	ownsStore bool
	snapEvery int
	sinceSnap int
	replaying bool
	storeErr  error

	// Coordination records (see migrate.go). PutMeta/GetMeta pass
	// through to the store when it implements storage.MetaStore;
	// metaMem is the process-local fallback for storeless monitors.
	metaMu  sync.Mutex
	metaMem map[string][]byte

	// Replication (see feed.go and follower.go). walCh is made by the
	// first WALNotify after an append and closed and cleared under mu by
	// the next one, waking long-polling changefeed streams; an append
	// nobody waits on finds it nil. readOnly marks a follower
	// monitor, whose only writer is the feed apply loop; follower holds
	// the tail goroutine's state and watermarks.
	walCh    chan struct{}
	readOnly bool
	follower *followerState
}

// state is what the log determines: the same community, options and
// records build the same state, whether by live calls, recovery or the
// follower feed (AddBatch's scratch rides along; it carries nothing
// between calls). A follower's re-bootstrap replaces it whole.
type state struct {
	schema *Schema

	// The community table. Slots are append-only — a removed user keeps
	// its index (userAlive false) so indices baked into engine state and
	// snapshots stay stable; re-adding the same name claims a fresh
	// slot. userIdx maps alive names only. baseUsers counts the leading
	// slots that came from the construction-time Community: recovery
	// pins the caller's community against exactly those.
	userIdx   map[string]int
	userNames []string
	userAlive []bool
	baseUsers int
	// rank[slot] is the slot's position in name order (equal names, a
	// removed user and its re-added namesake, by slot) and byRank its
	// inverse: sortedNames orders a delivery by them without comparing a
	// string. rankUsers and rankNewUser keep them in step with userNames.
	rank   []int32
	byRank []int32
	// profiles aliases the engine's (shared, mutable) preference
	// profiles, letting check validate a tuple without applying it so
	// the update can be WAL-logged first.
	profiles []*pref.Profile

	// commonFn computes a cluster's common relation: pref.Common for the
	// exact engines, approx.Profile for the approximate one. The monitor
	// uses it only to build the engine's clusters (from the community or a
	// snapshot) and hands it to the engine, which recomputes every
	// relation a lifecycle call changes.
	commonFn core.CommonFn

	eng *core.Sharded
	ctr *stats.Counters

	// interned is AddBatch's batch of interned objects, reused across
	// calls (the engine retains none of it past ProcessBatch).
	interned []object.Object
	// walRecs is the object ingest path's WAL record scratch (see
	// objectRecords), empty between calls.
	walRecs []WALRecord
	// rankBits (one word per 64 user slots, all zero between calls) is
	// rankNames's scratch.
	rankBits []uint64
	// nameBlock is what is left of the block AddBatch carves its
	// deliveries' name lists from (userList).
	nameBlock []string

	clusters       [][]string // member names per cluster (nil for Baseline)
	clusterMembers [][]int    // raw member indices per cluster, in cluster order

	// The object registry; see registry.
	*registry

	// walSeq is the last appended-or-applied log position.
	walSeq uint64

	// batches is each remembered writer's last batch (batch.go).
	batches map[string]*batchMemo
}

// NewMonitor builds a monitor for the community. With no options it runs
// the paper's default: exact FilterThenVerify with weighted-Jaccard
// clustering at h = 0.55.
//
//	mon, err := paretomon.NewMonitor(com,
//	    paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
//	    paretomon.WithBranchCut(0.55),
//	    paretomon.WithWindow(1000),
//	)
func NewMonitor(c *Community, opts ...Option) (*Monitor, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	return newMonitor(c, cfg)
}

// monitorShell validates the configuration and assembles a Monitor with
// everything but engine state: schema, counters, subscription fan-out,
// persistence wiring. bootstrap fills it: from the local store's or the
// primary's snapshot, else from the community.
func monitorShell(c *Community, cfg Config) (*Monitor, error) {
	if err := validateConfig(c, cfg); err != nil {
		return nil, err
	}
	if cfg.SubscriptionBuffer == 0 {
		cfg.SubscriptionBuffer = defaultSubscriptionBuffer
	}
	m := &Monitor{
		state: state{
			schema:   c.schema.clone(),
			ctr:      &stats.Counters{},
			userIdx:  make(map[string]int, c.Len()),
			registry: newRegistry(cfg.Window, len(c.schema.doms)),
			batches:  make(map[string]*batchMemo),
		},
		cfg: cfg,
	}
	if cfg.Algorithm == AlgorithmFilterThenVerifyApprox {
		t1, t2 := cfg.Theta1, cfg.Theta2
		m.commonFn = func(members []*pref.Profile) *pref.Profile {
			return approx.Profile(members, t1, t2)
		}
	} else {
		m.commonFn = pref.Common
	}
	m.subs.init(cfg.SubscriptionBuffer)
	m.store = cfg.Store
	m.snapEvery = cfg.SnapshotEvery
	return m, nil
}

func newMonitor(c *Community, cfg Config) (*Monitor, error) {
	m, err := monitorShell(c, cfg)
	if err != nil {
		return nil, err
	}
	var seq uint64
	var body []byte
	var ok bool
	if m.store != nil {
		if seq, body, ok, err = m.store.LoadSnapshot(); err != nil {
			return nil, fmt.Errorf("paretomon: loading snapshot: %w", err)
		}
	}
	if err := m.bootstrap(c, seq, body, ok); err != nil {
		return nil, err
	}
	return m, nil
}

// bootstrap fills a fresh shell: from a snapshot's bytes taken at log
// position seq (ok true), else from the community, and then replays the
// store's WAL tail behind it, if there is a store. The snapshot is
// authoritative for the evolved community (users may have joined or left
// since construction), with the caller's community pinned against the
// snapshot's construction-time base. Without a snapshot the tail — which
// may itself contain lifecycle records — replays from the start through
// the normal write paths. A follower has no store: its tail comes over
// the feed.
func (m *Monitor) bootstrap(c *Community, seq uint64, body []byte, ok bool) error {
	if ok {
		snap, err := storage.UnmarshalSnapshot(body)
		if err != nil {
			return fmt.Errorf("paretomon: decoding snapshot: %w", err)
		}
		if err := m.buildFromSnapshot(c, snap); err != nil {
			return err
		}
		m.walSeq = seq
	} else if err := m.buildFromCommunity(c); err != nil {
		return err
	}
	if m.store != nil {
		m.replaying = true
		err := m.store.Replay(m.walSeq, m.replayRecord)
		m.replaying = false
		if err != nil {
			return err
		}
	}
	// Per-shard cumulative counters exist to show live load skew; the
	// work of getting here (state restore, log replay) would skew that
	// picture, so they restart at zero while the public totals are
	// restored exactly.
	m.eng.ResetShardCounters()
	return nil
}

// validateConfig rejects, before any state is built, what no single
// option can: an empty community, and snapshots without a store. Every
// field is in range already: a Config is DefaultConfig with options
// folded over it (configure), and each option refuses a value out of its
// own range.
func validateConfig(c *Community, cfg Config) error {
	if c.Len() == 0 {
		return ErrEmptyCommunity
	}
	if cfg.SnapshotEvery > 0 && cfg.Store == nil {
		return fmt.Errorf("%w: SnapshotEvery without a Store", ErrInvalidConfig)
	}
	return nil
}

// buildFromCommunity assembles the monitor's state and engine from the
// construction-time community: profiles are cloned, the filter-then-
// verify engines cluster the users, and the engine starts empty.
func (m *Monitor) buildFromCommunity(c *Community) error {
	cfg := m.cfg
	profiles := make([]*pref.Profile, c.Len())
	m.userNames = make([]string, c.Len())
	m.userAlive = make([]bool, c.Len())
	m.baseUsers = c.Len()
	for i, u := range c.users {
		// Rehome, not Clone: the monitor's schema is a deep copy, and
		// profiles built later (AddUser) live on the copy's domains —
		// relation algebra (Common, Intersect) requires one domain set.
		profiles[i] = u.profile.Rehome(m.schema.doms)
		m.userIdx[u.name] = i
		m.userNames[i] = u.name
		m.userAlive[i] = true
	}
	m.profiles = profiles
	m.rankUsers()

	var clusters []core.Cluster
	switch cfg.Algorithm {
	case AlgorithmBaseline:
		// no clustering
	default:
		var res *cluster.Result
		if cfg.ClusterCount > 0 {
			res = cluster.AgglomerativeK(profiles, cfg.Measure.internal(), cfg.ClusterCount)
		} else {
			res = cluster.Agglomerative(profiles, cfg.Measure.internal(), cfg.BranchCut)
		}
		for _, ci := range res.Clusters {
			common := ci.Common
			if cfg.Algorithm == AlgorithmFilterThenVerifyApprox {
				common = m.commonFn(m.memberProfiles(ci.Members))
			}
			clusters = append(clusters, core.Cluster{Members: ci.Members, Common: common})
			m.clusters = append(m.clusters, m.sortedNames(ci.Members))
			m.clusterMembers = append(m.clusterMembers, append([]int(nil), ci.Members...))
		}
	}

	return m.buildEngine(clusters)
}

// buildEngine constructs the engine — the one place that does — over the
// monitor's community table, empty, for ingestion or RestoreState to
// fill: append-only or windowed, over own clusters (one user each) when
// clusters is nil (Baseline) and the given clusters otherwise, each shard
// owning whole clusters. A fresh community is the
// recovered case with every user alive: removed users own no frontier,
// dormant clusters ride along as placeholders. Every engine reads the
// registry's alive objects — under a window, the window — and copies
// none. It fails unless the clusters partition exactly the alive users.
func (m *Monitor) buildEngine(clusters []core.Cluster) (err error) {
	switch {
	case m.cfg.Window > 0:
		exact := m.cfg.Algorithm != AlgorithmFilterThenVerifyApprox
		m.eng, err = window.NewSharded(m.profiles, clusters, m.userAlive, m.registry.alive, m.cfg.Window, m.cfg.Workers, exact, m.ctr)
	case m.cfg.Algorithm == AlgorithmFilterThenVerifyApprox:
		m.eng, err = core.NewShardedPerObject(m.profiles, clusters, m.userAlive, m.registry.alive, m.cfg.Workers, m.ctr)
	default:
		m.eng, err = core.NewSharded(m.profiles, clusters, m.userAlive, m.registry.alive, m.cfg.Workers, m.ctr)
	}
	if err == nil {
		m.eng.SetCommonFn(m.commonFn)
	}
	return err
}

// scratchKeep is the largest batch whose WAL record scratch (walRecs) is
// kept for the next call: one boot-time AddBatch of a whole catalogue
// must not pin an array of its size for good, so a bigger batch gets an
// array of its own.
const scratchKeep = 1024

// claimObject checks one object against the monitor state and claims its
// name for id, the id it is to be interned under, whose name must be
// staged (nameIndex.stage): from here on names maps the name, so a later
// object of the same batch that repeats it is a duplicate, and intern
// leaves names alone. A batch that validation or the WAL append refuses
// drops its claims again (unclaim). Caller holds mu. A claim is tentative
// until the WAL append succeeds.
//
//paretomon:tentative names — the caller deletes the claim on a refusal.
func (m *Monitor) claimObject(o Object, id int) error {
	if o.Name == "" {
		return fmt.Errorf("%w: object name", ErrEmptyName)
	}
	if !m.names.claim(o.Name, id) {
		return fmt.Errorf("%w: %q", ErrDuplicateObject, o.Name)
	}
	if got, want := len(o.Values), len(m.schema.doms); got != want {
		m.names.drop(o.Name, id)
		return fmt.Errorf("%w: object %q has %d values, schema has %d attributes",
			ErrSchemaMismatch, o.Name, got, want)
	}
	return nil
}

// claimAdd stages Add's object and claims its name for the next id; on a
// refusal nothing stays claimed or staged. Caller holds mu.
//
//paretomon:tentative names — Add deletes the claim if the append fails.
func (m *Monitor) claimAdd(o Object) error {
	id := m.objectCount()
	m.names.stage(id, []Object{o})
	err := m.claimObject(o, id)
	if err != nil {
		m.names.unstage()
	}
	return err
}

// unclaim drops the claims claimObject made for objs, the staged names of
// ids first, first+1, …. Caller holds mu.
//
//paretomon:tentative names — it takes claims back.
func (m *Monitor) unclaim(objs []Object, first int) {
	for i, o := range objs {
		m.names.drop(o.Name, first+i)
	}
}

// intern registers a claimed object: it takes the next id, the one its
// name was claimed for, and its values are interned against the schema
// domains into its registry slot. Under a window it first retires the id
// the arrival pushes out. Caller holds mu; settle once the engine is done.
func (m *Monitor) intern(o Object) object.Object {
	id := m.objectCount()
	if w := m.cfg.Window; w > 0 && id-w >= m.objBase {
		m.retire(id - w)
	}
	attrs := m.registry.push(o.Name, true)
	for d, v := range o.Values {
		attrs[d] = int32(m.schema.doms[d].Intern(v))
	}
	return object.Object{ID: id, Attrs: attrs}
}

// retire forgets id, which has just left the window: its name is free
// again (unless a removal already freed it and another object took it),
// and its slot is blanked; the chunk it ends, if it ends one, is dropped.
// Caller holds mu.
func (m *Monitor) retire(id int) {
	c, i := m.slot(id)
	m.names.drop(c.names[i], id)
	c.names[i] = ""
	m.kill(id)
	m.registry.retired(id)
}

// ingest processes one object claimed by claimAdd; the registry holds its
// name from here on, so it is unstaged. Caller holds mu. During recovery
// replay the delivery is computed but not published: replayed history
// must never reach subscribers, who only observe post-recovery arrivals.
func (m *Monitor) ingest(o Object) Delivery {
	obj := m.intern(o)
	m.names.unstage()
	users := m.eng.Process(obj)
	m.settle()
	d := Delivery{Object: o.Name, Users: m.sortedNames(users)}
	if !m.replaying {
		m.subs.publish(d, users)
	}
	return d
}

// Add ingests the next object and returns who it should be delivered to.
// values must match the schema's attribute order and count. Object names
// must be unique. On a durable monitor (WithStore) the object is logged
// to the WAL before it is applied, so an acknowledged Add survives a
// crash.
func (m *Monitor) Add(name string, values ...string) (Delivery, error) {
	if m.readOnly {
		return Delivery{}, fmt.Errorf("%w: Add(%q)", ErrReadOnly, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	o := Object{Name: name, Values: values}
	if err := m.claimAdd(o); err != nil {
		return Delivery{}, err
	}
	recs := m.objectRecords(BatchID{}, []Object{o})
	err := m.appendWAL(recs)
	m.keepRecords(recs)
	if err != nil {
		m.names.drop(name, m.objectCount())
		m.names.unstage()
		return Delivery{}, err
	}
	d := m.ingest(o)
	m.maybeSnapshotLocked(1)
	return d, nil
}

// AddBatch ingests a sequence of objects under a single writer critical
// section, amortizing per-arrival locking and allocation across the
// engines. The whole batch is validated before any object is ingested:
// on error, a *BatchError locating the first bad object is returned and
// the monitor is unchanged. Deliveries are returned in batch order. On
// a durable monitor the batch is logged as one contiguous WAL append
// before any object is applied. It is AddBatchOnce with no id.
func (m *Monitor) AddBatch(objs []Object) ([]Delivery, error) {
	return m.AddBatchOnce(BatchID{}, objs)
}

// AddBatchOnce is AddBatch for a writer that may re-send a batch whose
// reply it lost. The monitor remembers each writer's last batch: re-sent
// under that id, the prefix it applied is answered with its saved
// at-arrival deliveries and only the rest is applied. A newer seq starts
// a new batch; an older one, or other names, is ErrBatchConflict. The id
// is logged with the batch, so the memo survives restarts and reaches
// followers. The returned slice is the memo's; do not modify it.
func (m *Monitor) AddBatchOnce(id BatchID, objs []Object) ([]Delivery, error) {
	if m.readOnly {
		return nil, fmt.Errorf("%w: AddBatch of %d objects", ErrReadOnly, len(objs))
	}
	if id != (BatchID{}) && !id.valid() {
		return nil, fmt.Errorf("%w: %q", ErrBadBatchID, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	done, err := m.appliedPrefix(id, objs)
	if err != nil {
		return nil, err
	}
	if done != nil && len(done) == len(objs) {
		return done, nil
	}
	rest := objs[len(done):]
	if err := m.claimBatch(done, rest); err != nil {
		return nil, err
	}
	start := m.objectCount()
	recs := m.objectRecords(id, rest)
	err = m.appendWAL(recs)
	m.keepRecords(recs)
	if err != nil {
		m.unclaim(rest, start)
		m.names.unstage()
		return nil, err
	}
	// Intern the whole batch up front, then let every shard walk it (in
	// its own goroutine when there are several). Deliveries are published
	// in batch order after the fan-in, exactly as object-by-object Adds
	// would. The deliveries' name lists are carved from a block carried
	// across batches.
	m.interned = m.interned[:0]
	for _, o := range rest {
		m.interned = append(m.interned, m.intern(o))
	}
	m.names.unstage()
	out := make([]Delivery, len(rest))
	processed := m.eng.ProcessBatch(m.interned)
	m.settle()
	for i, users := range processed {
		d := Delivery{Object: rest[i].Name, Users: m.rankNames(m.userList(len(users)), users)}
		if !m.replaying {
			m.subs.publish(d, users)
		}
		out[i] = d
	}
	if id.Writer != "" && len(rest) > 0 {
		if done != nil {
			out = append(done, out...)
		}
		m.openBatch(id, start).ds = out
	}
	m.maybeSnapshotLocked(len(rest))
	return out, nil
}

// claimBatch stages rest, the part of a batch still to be applied, and
// claims its names for the ids they are to take; done is the batch's
// applied prefix. A name of the prefix stays taken for the rest even where
// a removal or expiry has freed it since: it is held, staged behind rest,
// while rest is checked. On a refusal nothing stays claimed or staged, and
// the error is a *BatchError locating the first bad object. Caller holds
// mu.
//
//paretomon:tentative names — AddBatchOnce deletes the claims if the append fails.
func (m *Monitor) claimBatch(done []Delivery, rest []Object) error {
	first := m.objectCount()
	m.names.stage(first, rest)
	for _, d := range done {
		m.names.hold(d.Object)
	}
	var err error
	for i, o := range rest {
		if e := m.claimObject(o, first+i); e != nil {
			m.unclaim(rest[:i], first)
			err = &BatchError{Index: len(done) + i, Object: o.Name, Err: e}
			break
		}
	}
	m.names.release(len(rest))
	if err != nil {
		m.names.unstage()
	}
	return err
}

// Frontier returns the named user's current Pareto frontier as sorted
// object names.
func (m *Monitor) Frontier(user string) ([]string, error) {
	m.mu.RLock()
	idx, err := m.user(user)
	if err != nil {
		m.mu.RUnlock()
		return nil, err
	}
	ids := m.eng.UserFrontier(idx)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = m.nameAt(id)
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// user resolves a user name against the monitor's live community table:
// construction-time users plus AddUser arrivals, minus RemoveUser
// departures. Caller holds mu (read or write).
func (m *Monitor) user(name string) (int, error) {
	idx, ok := m.userIdx[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	return idx, nil
}

// Users returns the alive community members in registration order.
func (m *Monitor) Users() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.userNames))
	for i, name := range m.userNames {
		if m.userAlive[i] {
			out = append(out, name)
		}
	}
	return out
}

// rankUsers orders every user slot by name into rank and byRank, and
// sizes rankBits to the community.
func (s *state) rankUsers() {
	n := len(s.userNames)
	s.byRank = make([]int32, n)
	for i := range s.byRank {
		s.byRank[i] = int32(i)
	}
	slices.SortFunc(s.byRank, func(a, b int32) int {
		return cmp.Or(strings.Compare(s.userNames[a], s.userNames[b]), cmp.Compare(a, b))
	})
	s.rank = make([]int32, n)
	for r, c := range s.byRank {
		s.rank[c] = int32(r)
	}
	s.rankBits = make([]uint64, (n+63)/64)
}

// rankNewUser places the newest user slot into the name order: after
// every slot whose name sorts before or equals its own, the slots behind
// it moving up one rank.
func (s *state) rankNewUser() {
	c := len(s.userNames) - 1
	name := s.userNames[c]
	at := sort.Search(len(s.byRank), func(r int) bool { return s.userNames[s.byRank[r]] > name })
	s.byRank = slices.Insert(s.byRank, at, int32(c))
	s.rank = append(s.rank, 0)
	for r := at; r < len(s.byRank); r++ {
		s.rank[s.byRank[r]] = int32(r)
	}
	if len(s.rankBits) < (c+64)/64 {
		s.rankBits = append(s.rankBits, 0)
	}
}

// sortedNames maps user slots to their names in name order, in a slice
// of its own. Caller holds mu (write): it uses the state's scratch.
func (s *state) sortedNames(idx []int) []string {
	return s.rankNames(make([]string, len(idx)), idx)
}

// rankNames writes the names of the user slots idx into out, of the same
// length, in name order, comparing no string: each slot sets its rank's
// bit in rankBits, read back in bit order and left all zero. The slots
// must be distinct: a repeated one appears once. Caller holds mu (write):
// it uses the state's scratch.
func (s *state) rankNames(out []string, idx []int) []string {
	words := s.rankBits
	for _, c := range idx {
		r := s.rank[c]
		words[r>>6] |= 1 << (r & 63)
	}
	i := 0
	for w := 0; i < len(out) && w < len(words); w++ {
		word := words[w]
		words[w] = 0
		for ; word != 0; word &= word - 1 {
			out[i] = s.userNames[s.byRank[w<<6|bits.TrailingZeros64(word)]]
			i++
		}
	}
	return out[:i]
}

// nameBlockLen is how many user names a block of deliveries' name lists
// holds: 1 023 strings and the 8 B malloc header of an object with
// pointers fill a 16 KiB size class exactly.
const nameBlockLen = 1023

// userList returns n fresh name slots for one delivery of a batch, capped,
// carved from a block carried across batches: a block is abandoned only
// when a list does not fit in what is left of it. A list longer than a
// quarter block gets an array of its own. It is never nil, so an empty
// delivery list is not either. Caller holds mu (write).
func (s *state) userList(n int) []string {
	if n > nameBlockLen/4 {
		return make([]string, n)
	}
	if s.nameBlock == nil || n > len(s.nameBlock) {
		s.nameBlock = make([]string, nameBlockLen)
	}
	out := s.nameBlock[:n:n]
	s.nameBlock = s.nameBlock[n:]
	return out
}

// Clusters returns the user names per cluster, or nil for Baseline.
// Lifecycle operations evolve the clustering (AddUser joins or founds a
// cluster, RemoveUser can leave one dormant and empty), so the result is
// a point-in-time copy.
func (m *Monitor) Clusters() [][]string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.clusters == nil {
		return nil
	}
	out := make([][]string, len(m.clusters))
	for i, names := range m.clusters {
		out[i] = append([]string(nil), names...)
	}
	return out
}

// Stats returns a snapshot of the monitor's work counters. For sharded
// monitors (WithWorkers > 1) it also breaks the totals down per shard.
// Everything returned is a copy taken under the read lock — callers can
// hold a Stats across later ingestion without racing live shard state.
func (m *Monitor) Stats() Stats {
	m.mu.RLock()
	s := m.eng.Totals()
	st := Stats{
		Comparisons:       s.Comparisons,
		FilterComparisons: s.FilterComparisons,
		VerifyComparisons: s.VerifyComparisons,
		Delivered:         s.Delivered,
		Processed:         s.Processed,
		Twins:             s.Twins,
		Workers:           m.eng.Shards(),
	}
	if st.Workers > 1 {
		st.Shards = make([]ShardStats, st.Workers)
		for i, c := range m.eng.ShardCounters() {
			st.Shards[i] = ShardStats{
				Comparisons:       c.Comparisons,
				FilterComparisons: c.FilterComparisons,
				VerifyComparisons: c.VerifyComparisons,
				Delivered:         c.Delivered,
				Processed:         c.Processed,
			}
		}
	}
	m.mu.RUnlock()
	st.DroppedDeliveries = m.subs.droppedCount()
	return st
}

// Config returns the configuration the monitor was built with.
func (m *Monitor) Config() Config { return m.cfg }

// HasObject reports whether an alive object with the given name is
// registered, including recovered objects. RemoveObject unregisters a
// name, and so does window expiry: an expired object is forgotten, and
// its name is free for re-use.
func (m *Monitor) HasObject(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.names.find(name)
	return ok
}

// TargetsOf returns the current C_o of a previously added object: the
// (sorted) users for whom it is still Pareto-optimal. An object that has
// been dominated since arrival has no targets. An object that was removed
// or has expired from the window is unknown (ErrUnknownObject).
func (m *Monitor) TargetsOf(objectName string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.names.find(objectName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownObject, objectName)
	}
	// A cold read path under the read lock, where sortedNames's scratch
	// is off limits: a plain string sort.
	ids := m.eng.Targets(id)
	out := make([]string, len(ids))
	for i, c := range ids {
		out[i] = m.userNames[c]
	}
	sort.Strings(out)
	return out, nil
}
