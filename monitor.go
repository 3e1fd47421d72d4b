package paretomon

import (
	"fmt"
	"sort"
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
	// Workers is the number of ingestion shards: users (Baseline) or whole
	// clusters (filter-then-verify) are partitioned across this many
	// shards. 0 means runtime.GOMAXPROCS(0). Single arrivals run the
	// shards in the caller's goroutine; a batch runs each shard on its
	// own goroutine, joined before AddBatch returns. Deliveries are
	// identical either way.
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
	// engine). Twins/Processed is the stream's duplicate rate. Not part of
	// a snapshot: it restarts with the process.
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
	// inBatch is AddBatch's validation scratch — the names claimed earlier
	// in the batch being checked — cleared and reused across calls, for
	// batches of up to inBatchKeep objects.
	inBatch map[string]bool

	clusters       [][]string // member names per cluster (nil for Baseline)
	clusterMembers [][]int    // raw member indices per cluster, in cluster order

	// The object registry; see registry.
	*registry

	// walSeq is the last appended-or-applied log position.
	walSeq uint64

	// batches is each remembered writer's last batch (batch.go).
	batches map[string]*batchMemo
}

// registry is the object registry. Slots are in arrival order:
// objects[i] holds engine object id objBase+i. RemoveObject tombstones a
// slot and frees its name; names maps alive names only. The interned
// objects ride along: the append-only engines read them, through alive,
// as the candidates of every mend and restore. An append-only registry
// only grows (objBase stays 0). Under a window W, id N's arrival retires
// slot N-W, which every shard's ring evicts on the same arrival: its name
// is freed for re-use, and the slot is blanked and dropped once the
// blanked prefix is W long, so at most 2W slots are held however long the
// stream. It sits behind a pointer so that the engine's view of it
// survives a follower's transplant of the state it belongs to.
type registry struct {
	names   map[string]int // alive name -> id
	objBase int            // id of objects[0]
	objects []objEntry
}

// alive yields the alive objects in arrival order: the append-only
// engines' candidate source, fixed when the engine is built. The engine
// calls it under the monitor's write lock.
func (r *registry) alive(yield func(object.Object) bool) {
	for _, e := range r.objects {
		if e.alive && !yield(e.obj) {
			return
		}
	}
}

// objEntry is one object registry slot.
type objEntry struct {
	name  string
	obj   object.Object
	alive bool
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
	cfg := DefaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
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
			registry: &registry{names: make(map[string]int)},
			inBatch:  make(map[string]bool),
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

// validateConfig rejects malformed configurations before any state is
// built.
func validateConfig(c *Community, cfg Config) error {
	if c.Len() == 0 {
		return ErrEmptyCommunity
	}
	if cfg.Window < 0 {
		return fmt.Errorf("%w: negative window %d", ErrInvalidConfig, cfg.Window)
	}
	if cfg.ClusterCount < 0 {
		return fmt.Errorf("%w: negative cluster count %d", ErrInvalidConfig, cfg.ClusterCount)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("%w: negative worker count %d", ErrInvalidConfig, cfg.Workers)
	}
	if cfg.SnapshotEvery < 0 {
		return fmt.Errorf("%w: negative snapshot interval %d", ErrInvalidConfig, cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery > 0 && cfg.Store == nil {
		return fmt.Errorf("%w: SnapshotEvery without a Store", ErrInvalidConfig)
	}
	if cfg.SubscriptionBuffer < 0 {
		return fmt.Errorf("%w: negative subscription buffer %d", ErrInvalidConfig, cfg.SubscriptionBuffer)
	}
	switch cfg.Measure {
	case MeasureIntersectionSize, MeasureJaccard, MeasureWeightedIntersection,
		MeasureWeightedJaccard, MeasureVectorJaccard, MeasureVectorWeightedJaccard:
	default:
		return fmt.Errorf("%w: unknown measure %d", ErrInvalidConfig, int(cfg.Measure))
	}
	switch cfg.Algorithm {
	case AlgorithmBaseline, AlgorithmFilterThenVerify, AlgorithmFilterThenVerifyApprox:
	default:
		return fmt.Errorf("%w: unknown algorithm %v", ErrInvalidConfig, cfg.Algorithm)
	}
	if cfg.Algorithm == AlgorithmFilterThenVerifyApprox {
		if cfg.Theta1 <= 0 || cfg.Theta2 < 0 || cfg.Theta2 >= 1 {
			return fmt.Errorf("%w: approx engine needs Theta1 > 0 and Theta2 in [0,1), got θ1=%d θ2=%v",
				ErrInvalidConfig, cfg.Theta1, cfg.Theta2)
		}
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
// dormant clusters ride along as placeholders. The append-only engines
// read the registry's alive objects; the windowed ones keep their own
// ring. It fails unless the clusters partition exactly the alive users.
func (m *Monitor) buildEngine(clusters []core.Cluster) (err error) {
	switch {
	case m.cfg.Window > 0:
		m.eng, err = window.NewSharded(m.profiles, clusters, m.userAlive, m.cfg.Window, m.cfg.Workers, m.ctr)
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

// inBatchKeep is the largest batch Monitor.inBatch serves. clear costs the
// map's high-water size, not its length, so one boot-time AddBatch of a
// whole catalogue must not be what every later batch clears: a bigger
// batch gets a map of its own.
const inBatchKeep = 1024

// validateObject checks one object against the monitor state and the
// names already claimed earlier in the same batch. Caller holds mu.
func (m *Monitor) validateObject(o Object, inBatch map[string]bool) error {
	if o.Name == "" {
		return fmt.Errorf("%w: object name", ErrEmptyName)
	}
	if _, dup := m.names[o.Name]; dup || inBatch[o.Name] {
		return fmt.Errorf("%w: %q", ErrDuplicateObject, o.Name)
	}
	if got, want := len(o.Values), len(m.schema.doms); got != want {
		return fmt.Errorf("%w: object %q has %d values, schema has %d attributes",
			ErrSchemaMismatch, o.Name, got, want)
	}
	return nil
}

// intern registers a pre-validated object: values are interned against
// the schema domains into attrs (one per attribute; the object keeps it)
// and the object claims the next id. Caller holds mu.
func (m *Monitor) intern(o Object, attrs []int32) object.Object {
	doms := m.schema.doms
	for d, v := range o.Values {
		attrs[d] = int32(doms[d].Intern(v))
	}
	id := m.objectCount()
	obj := object.Object{ID: id, Attrs: attrs}
	m.names[o.Name] = id
	m.objects = append(m.objects, objEntry{name: o.Name, obj: obj, alive: true})
	if w := m.cfg.Window; w > 0 && id-w >= m.objBase {
		m.retire(id - w)
	}
	return obj
}

// objectCount is the number of ids ever handed out. Caller holds mu.
func (m *Monitor) objectCount() int { return m.objBase + len(m.objects) }

// entry is id's registry slot; id must not be older than objBase. Caller
// holds mu.
func (m *Monitor) entry(id int) *objEntry { return &m.objects[id-m.objBase] }

// retire forgets id, which has just left the window: its name is free
// again (unless a removal already freed it and another object took it),
// and its slot is blanked. Once the blanked prefix is a window long it is
// dropped, moving the live slots down in place. Caller holds mu.
func (m *Monitor) retire(id int) {
	e := m.entry(id)
	if cur, ok := m.names[e.name]; ok && cur == id {
		delete(m.names, e.name)
	}
	*e = objEntry{}
	if dead := id + 1 - m.objBase; dead >= m.cfg.Window {
		n := copy(m.objects, m.objects[dead:])
		clear(m.objects[n:])
		m.objects = m.objects[:n]
		m.objBase += dead
	}
}

// ingest processes one pre-validated object. Caller holds mu. During
// recovery replay the delivery is computed but not published: replayed
// history must never reach subscribers, who only observe post-recovery
// arrivals.
func (m *Monitor) ingest(o Object) Delivery {
	users := m.eng.Process(m.intern(o, make([]int32, len(o.Values))))
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
	if err := m.validateObject(o, nil); err != nil {
		return Delivery{}, err
	}
	recs := m.objectRecords(BatchID{}, []Object{o})
	err := m.appendWAL(recs)
	m.keepRecords(recs)
	if err != nil {
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
	inBatch := m.inBatch
	if len(objs) > inBatchKeep {
		inBatch = make(map[string]bool, len(objs))
	} else {
		clear(inBatch)
	}
	for _, d := range done {
		inBatch[d.Object] = true
	}
	for i, o := range rest {
		if err := m.validateObject(o, inBatch); err != nil {
			return nil, &BatchError{Index: len(done) + i, Object: o.Name, Err: err}
		}
		inBatch[o.Name] = true
	}
	recs := m.objectRecords(id, rest)
	err = m.appendWAL(recs)
	m.keepRecords(recs)
	if err != nil {
		return nil, err
	}
	start := m.objectCount()
	// Intern the whole batch up front, then let every shard walk it (in
	// its own goroutine when there are several). Deliveries are published
	// in batch order after the fan-in, exactly as object-by-object Adds
	// would. The batch's attributes share one slab, each object's capped
	// sub-slice in arrival order.
	dims := len(m.schema.doms)
	slab := make([]int32, len(rest)*dims)
	m.interned = m.interned[:0]
	for i, o := range rest {
		attrs := slab[i*dims : (i+1)*dims : (i+1)*dims]
		m.interned = append(m.interned, m.intern(o, attrs))
	}
	out := make([]Delivery, len(rest))
	for i, users := range m.eng.ProcessBatch(m.interned) {
		d := Delivery{Object: rest[i].Name, Users: m.sortedNames(users)}
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
		out[i] = m.entry(id).name
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

// sortedNames maps snapshot user indices to sorted names.
func (m *Monitor) sortedNames(idx []int) []string {
	out := make([]string, len(idx))
	for i, id := range idx {
		out[i] = m.userNames[id]
	}
	sort.Strings(out)
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
	_, ok := m.names[name]
	return ok
}

// TargetsOf returns the current C_o of a previously added object: the
// (sorted) users for whom it is still Pareto-optimal. An object that has
// been dominated since arrival has no targets. An object that was removed
// or has expired from the window is unknown (ErrUnknownObject).
func (m *Monitor) TargetsOf(objectName string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.names[objectName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownObject, objectName)
	}
	return m.sortedNames(m.eng.Targets(id)), nil
}
