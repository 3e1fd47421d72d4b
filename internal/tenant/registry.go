package tenant

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// specsFile is the registry's durable record under the root directory:
// the tenant spec list, written atomically (temp file + rename) and
// always before the in-memory registry changes — the tenant-level
// write-ahead discipline. A crash can leave an orphaned data directory
// (created but never recorded, or recorded-deleted but not yet
// removed), never a recorded tenant without the decision that created
// it.
const specsFile = "tenants.json"

// specsDoc is the serialized form of the registry record.
type specsDoc struct {
	Version int    `json:"version"`
	Tenants []Spec `json:"tenants"`
}

// specsVersion is bumped when the record's schema changes shape.
const specsVersion = 1

// Registry hosts the tenant set: creation, lookup, deletion, token
// rotation, and the durable spec record. All methods are safe for
// concurrent use.
type Registry struct {
	root string
	tel  *telemetry.Registry
	now  func() time.Time

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []string
	closed  bool
}

// Option configures Open.
type Option func(*Registry)

// WithTelemetry wires a telemetry registry: per-tenant serving-edge
// counters (ingest admissions, quota rejections, open subscriptions)
// plus a scrape-time collector folding every tenant's engine and
// storage counters into labeled series. Nothing on the ingest path
// records telemetry directly — the collector reads the monitors'
// already-maintained shard-local counters only when scraped.
func WithTelemetry(tel *telemetry.Registry) Option {
	return func(r *Registry) { r.tel = tel }
}

// WithClock replaces the rate limiters' clock (tests).
func WithClock(now func() time.Time) Option {
	return func(r *Registry) { r.now = now }
}

// Open loads (or initializes) a tenant registry rooted at dir: the
// spec record is read and every recorded tenant is booted — durable
// tenants recover their exact state from <root>/tenants/<name>/
// before the call returns.
func Open(root string, opts ...Option) (*Registry, error) {
	if root == "" {
		return nil, fmt.Errorf("%w: registry root is required", ErrBadConfig)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: creating root: %w", err)
	}
	r := &Registry{root: root, now: time.Now, tenants: make(map[string]*Tenant)}
	for _, o := range opts {
		o(r)
	}
	doc, err := readSpecs(filepath.Join(root, specsFile))
	if err != nil {
		return nil, err
	}
	for i := range doc.Tenants {
		s := doc.Tenants[i]
		if err := s.Validate(); err != nil {
			r.closeAllLocked()
			return nil, fmt.Errorf("tenant: stored spec %q: %w", s.Name, err)
		}
		t, err := r.newTenant(s)
		if err != nil {
			r.closeAllLocked()
			return nil, fmt.Errorf("tenant: booting %q: %w", s.Name, err)
		}
		r.tenants[s.Name] = t
		r.order = append(r.order, s.Name)
	}
	if r.tel != nil {
		r.tel.RegisterCollector(r.collect)
	}
	return r, nil
}

func readSpecs(path string) (*specsDoc, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &specsDoc{Version: specsVersion}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tenant: reading registry record: %w", err)
	}
	var doc specsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: registry record %s: %v", ErrBadConfig, path, err)
	}
	if doc.Version != specsVersion {
		return nil, fmt.Errorf("%w: registry record version %d (this build speaks %d)",
			ErrBadConfig, doc.Version, specsVersion)
	}
	return &doc, nil
}

// persistLocked writes the current spec list atomically. Caller holds
// r.mu and has NOT yet applied the change the list reflects — the
// record leads the registry, never the other way around.
func (r *Registry) persistLocked(specs []Spec) error {
	doc := specsDoc{Version: specsVersion, Tenants: specs}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("tenant: encoding registry record: %w", err)
	}
	path := filepath.Join(r.root, specsFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o600); err != nil {
		return fmt.Errorf("tenant: writing registry record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("tenant: committing registry record: %w", err)
	}
	return nil
}

// specsLocked snapshots every tenant's current spec in creation order.
func (r *Registry) specsLocked() []Spec {
	out := make([]Spec, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.tenants[name].Spec())
	}
	return out
}

// newTenant builds one tenant from its spec: community, driver,
// data directory, boot dataset, usage counts.
func (r *Registry) newTenant(s Spec) (*Tenant, error) {
	t := &Tenant{
		name:  s.Name,
		spec:  s,
		token: s.Token,
		now:   r.now,
	}
	t.rateLast = r.now()
	t.fillRateLocked()
	t.sessCtx, t.sessCancel = context.WithCancel(context.Background())
	t.tel = newHooks(r.tel, s.Name)

	if s.Role == RoleRouter {
		rt, err := partition.New(partition.Config{URLs: s.Fleet})
		if err != nil {
			return nil, err
		}
		t.rt = rt
		return t, nil
	}

	com, rows, err := buildCommunity(&s)
	if err != nil {
		return nil, err
	}
	opts := monitorOptions(&s)
	switch {
	case s.Role == RoleFollower:
		t.mon, err = paretomon.OpenFollower(com, s.PrimaryURL, opts...)
	case s.Persist:
		t.dir = r.TenantDir(s.Name)
		if err = os.MkdirAll(t.dir, 0o755); err == nil {
			t.mon, err = paretomon.Open(com, t.dir, opts...)
		}
	default:
		t.mon, err = paretomon.NewMonitor(com, opts...)
	}
	if err != nil {
		return nil, err
	}
	if s.Role == RolePrimary && len(rows) > 0 {
		if _, err := BootIngest(t.mon, rows); err != nil {
			_ = t.mon.Close()
			return nil, err
		}
	}
	t.users = len(t.mon.Users())
	return t, nil
}

// TenantDir returns the data directory a persistent tenant of that
// name owns (whether or not the tenant exists).
func (r *Registry) TenantDir(name string) string {
	return filepath.Join(r.root, "tenants", name)
}

// Create stands up a new tenant from spec and records it durably. The
// spec is validated; the name must be free. On success the tenant is
// live and serving-ready.
func (r *Registry) Create(spec Spec) (*Tenant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	if _, dup := r.tenants[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateTenant, spec.Name)
	}
	t, err := r.newTenant(spec)
	if err != nil {
		return nil, err
	}
	specs := append(r.specsLocked(), t.Spec())
	if err := r.persistLocked(specs); err != nil {
		_ = t.close()
		return nil, err
	}
	r.tenants[spec.Name] = t
	r.order = append(r.order, spec.Name)
	return t, nil
}

// Ensure reconciles one declarative spec against the registry: a
// missing tenant is created; an existing one keeps its recovered state
// but adopts the spec's token and quotas (the credentials and limits
// are the config's to declare; the data is the tenant's own). It
// reports whether a tenant was created.
func (r *Registry) Ensure(spec Spec) (created bool, err error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	r.mu.Lock()
	t, ok := r.tenants[spec.Name]
	r.mu.Unlock()
	if !ok {
		_, err := r.Create(spec)
		return err == nil, err
	}
	t.mu.Lock()
	if t.spec.Quotas != spec.Quotas {
		t.spec.Quotas = spec.Quotas
		t.fillRateLocked()
	}
	if t.token != spec.Token {
		t.rotateLocked(spec.Token)
	}
	t.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, ErrRegistryClosed
	}
	return false, r.persistLocked(r.specsLocked())
}

// Get resolves a tenant by name.
func (r *Registry) Get(name string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t, nil
}

// List returns every tenant's spec (tokens included — callers exposing
// the list over the wire redact them) in creation order.
func (r *Registry) List() []Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.specsLocked()
}

// Names returns the tenant names in creation order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Delete removes a tenant: the durable record first, then the live
// tenant — its session context is cancelled (ending in-flight requests
// and SSE streams), its driver closed, and its data directory removed.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	var specs []Spec
	for _, n := range r.order {
		if n != name {
			specs = append(specs, r.tenants[n].Spec())
		}
	}
	if err := r.persistLocked(specs); err != nil {
		r.mu.Unlock()
		return err
	}
	delete(r.tenants, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()

	err := t.close()
	if t.dir != "" {
		if rmErr := os.RemoveAll(t.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// RotateToken installs a new bearer token for the tenant — the given
// one, or a freshly generated 128-bit hex token when token is empty —
// records it durably, and cancels the tenant's session context so
// requests and streams still riding the old credential end now. It
// returns the new token.
func (r *Registry) RotateToken(name, token string) (string, error) {
	if token == "" {
		var buf [16]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return "", fmt.Errorf("tenant: generating token: %w", err)
		}
		token = hex.EncodeToString(buf[:])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", ErrRegistryClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if err := r.rotateDurably(t, name, token); err != nil {
		return "", err
	}
	return token, nil
}

// rotateDurably persists the record with the new token before applying
// it, holding the tenant lock across both so no request observes the
// new token before it is durable. Caller holds r.mu.
func (r *Registry) rotateDurably(t *Tenant, name, token string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	specs := make([]Spec, 0, len(r.order))
	for _, n := range r.order {
		s := r.tenants[n].spec
		if n == name {
			s.Token = token
		} else {
			s.Token = r.tenants[n].token
		}
		specs = append(specs, s)
	}
	if err := r.persistLocked(specs); err != nil {
		return err
	}
	t.rotateLocked(token)
	return nil
}

// Close shuts every tenant down (drivers closed, session contexts
// cancelled). The registry record and data directories stay on disk
// for the next Open.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.closeAllLocked()
}

func (r *Registry) closeAllLocked() error {
	var first error
	for _, name := range r.order {
		if err := r.tenants[name].close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// collect is the scrape-time telemetry collector: it folds every
// tenant's engine, storage and replication counters into per-tenant
// series. Gauges carry point-in-time state; *_total series are
// counters maintained elsewhere (the monitors' shard-local counters,
// folded by Stats() on this read).
func (r *Registry) collect(e *telemetry.Emitter) {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.order))
	for _, n := range r.order {
		tenants = append(tenants, r.tenants[n])
	}
	r.mu.RUnlock()

	for _, t := range tenants {
		users, objects, subs := t.Usage()
		e.Emit("paretomon_tenant_users", "Alive community members.", telemetry.KindGauge, float64(users), "tenant", t.name)
		e.Emit("paretomon_tenant_objects", "Alive objects (ingested, neither removed nor expired) plus reservations in flight.", telemetry.KindGauge, float64(objects), "tenant", t.name)
		e.Emit("paretomon_tenant_subscriptions", "Open subscription streams (quota view).", telemetry.KindGauge, float64(subs), "tenant", t.name)
		if t.mon != nil {
			CollectMonitor(e, t.name, t.mon)
		}
	}
}

// CollectMonitor folds one monitor's engine, storage and replication
// counters into per-tenant series on e. The registry's collector calls
// it for every tenant; cmd/paretomon's single-tenant serve calls it
// directly with a fixed label. Counters here are maintained shard-local
// inside the monitor and folded only on this read — nothing on the
// ingest hot path records telemetry.
func CollectMonitor(e *telemetry.Emitter, label string, mon *paretomon.Monitor) {
	st := mon.Stats()
	e.Emit("paretomon_comparisons_total", "Pairwise dominance comparisons, by phase.", telemetry.KindCounter, float64(st.FilterComparisons), "tenant", label, "phase", "filter")
	e.Emit("paretomon_comparisons_total", "Pairwise dominance comparisons, by phase.", telemetry.KindCounter, float64(st.VerifyComparisons), "tenant", label, "phase", "verify")
	e.Emit("paretomon_objects_processed_total", "Objects processed by the engine (stream position).", telemetry.KindCounter, float64(st.Processed), "tenant", label)
	e.Emit("paretomon_twin_arrivals_total", "Processed objects that repeated an alive attribute tuple and were answered without a comparison.", telemetry.KindCounter, float64(st.Twins), "tenant", label)
	e.Emit("paretomon_deliveries_total", "Frontier deliveries (sum of |C_o| over processed objects).", telemetry.KindCounter, float64(st.Delivered), "tenant", label)
	e.Emit("paretomon_dropped_deliveries_total", "Deliveries lost to slow subscribers.", telemetry.KindCounter, float64(st.DroppedDeliveries), "tenant", label)
	e.Emit("paretomon_ingest_shards", "Resolved ingestion shard count.", telemetry.KindGauge, float64(st.Workers), "tenant", label)
	if ss, err := mon.StorageStats(); err == nil {
		e.Emit("paretomon_wal_appended_records_total", "WAL records appended by this process.", telemetry.KindCounter, float64(ss.AppendedRecords), "tenant", label)
		e.Emit("paretomon_wal_appended_bytes_total", "WAL bytes appended by this process.", telemetry.KindCounter, float64(ss.AppendedBytes), "tenant", label)
		e.Emit("paretomon_wal_segments", "Live WAL segments.", telemetry.KindGauge, float64(ss.Segments), "tenant", label)
		e.Emit("paretomon_wal_bytes", "Live WAL bytes.", telemetry.KindGauge, float64(ss.WALBytes), "tenant", label)
		e.Emit("paretomon_wal_last_appended_seq", "Newest log position.", telemetry.KindGauge, float64(ss.LastAppendedSeq), "tenant", label)
		e.Emit("paretomon_snapshots_retained", "Retained snapshot files.", telemetry.KindGauge, float64(ss.Snapshots), "tenant", label)
		e.Emit("paretomon_snapshot_bytes", "Newest snapshot size.", telemetry.KindGauge, float64(ss.SnapshotBytes), "tenant", label)
	}
	if rs := mon.Replication(); rs.Follower {
		e.Emit("paretomon_replication_applied_seq", "Follower applied-seq watermark.", telemetry.KindGauge, float64(rs.AppliedSeq), "tenant", label)
		e.Emit("paretomon_replication_lag", "Follower lag behind the primary head (records).", telemetry.KindGauge, float64(rs.Lag), "tenant", label)
	}
}
