// Package server exposes a running paretomon Monitor over HTTP, turning
// the library into a dissemination service: producers POST objects (one
// at a time or in batches), consumers poll their frontier or hold a
// server-sent-events stream open on /subscribe/{user} and receive each
// delivery as it happens. The Monitor synchronizes itself (one writer,
// many readers), so handlers call it directly; errors are classified with
// errors.Is against the package's typed sentinels and mapped to proper
// HTTP status codes.
//
// Server (one Monitor) and RouterServer (a partitioned fleet behind a
// partition.Router) answer the same API: the routes whose answer is the
// paretomon.Driver's alone are written once, as one route table both
// facades embed, and each facade adds only the routes that are its own.
//
// A durable monitor (paretomon.Open / WithStore) additionally serves the
// replication changefeed — GET /snapshot/latest and GET /wal — from
// which read-only followers (paretomon.OpenFollower, paretomon follow)
// replicate the full read API; a follower's server rejects writes with
// 403 and reports its lag under GET /storage/stats. See
// docs/REPLICATION.md.
//
// The worker knob is the Monitor's: build it with paretomon.WithWorkers
// (paretomon serve wires its -workers flag through) and ingestion —
// including POST /objects/batch — fans out across that many shards.
// GET /stats then reports the resolved worker count and each shard's
// cumulative counters, so operators can watch load skew across the
// partition.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/replica"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// Gate is the serving-edge quota surface a multi-tenant host puts in
// front of one monitor's handlers (tenant.Tenant implements it). Every
// admission happens here, before the monitor is touched, so the engines
// never see quota logic. A nil gate admits everything — the
// single-tenant server.
type Gate interface {
	// ReserveObjects admits the named objects or refuses them all
	// atomically, and returns how many it reserved: names the monitor
	// already holds (a re-sent batch's applied prefix) are not charged.
	// On a refused multi-object batch the error is a
	// *paretomon.BatchError locating the first object over the limit.
	ReserveObjects(names []string) (int, error)
	// ReleaseObjects ends a reservation of n objects once its monitor
	// call has returned, whatever the outcome: from then on the
	// monitor's alive count meters what the call added, and removal or
	// window expiry lowers it.
	ReleaseObjects(n int)
	ReserveUser() error
	UnreserveUser()
	UserRemoved()
	// ReserveSubscription admits one SSE stream; the returned release is
	// idempotent and must run when the stream ends.
	ReserveSubscription() (func(), error)
}

// Server is an http.Handler serving one Monitor. Routing uses Go 1.22
// method+wildcard patterns, so a request with a known path but wrong
// method is answered 405 by the mux itself.
//
// The shared route table, served by RouterServer too, from the same
// handlers:
//
//	POST   /objects           {"name": "o1", "values": ["13-15.9", "Apple", "dual"]}
//	  → 200 {"object": "o1", "users": ["c2"]}
//	POST   /objects/batch     {"objects": [{"name": "o1", "values": [...]}, ...]}
//	  → 200 {"deliveries": [{"object": "o1", "users": [...]}, ...]}
//	  with X-Paretomon-Batch: <writer>/<seq>, a re-sent batch applies once
//	  and is answered as at arrival (paretomon.Monitor.AddBatchOnce)
//	GET    /objects/stream    Connection: Upgrade, Upgrade: paretomon-batch/2
//	  → 101, then POST /objects/batch as binary frames on the same
//	  connection (see handleStream and internal/wire); 501 when it cannot
//	  switch, 426 for any other token
//	DELETE /objects/{object}  → 200 {"status": "ok"}          (v3 lifecycle)
//	POST   /users             {"name": "c9", "preferences": [{"attribute": "brand",
//	                           "better": "Apple", "worse": "Sony"}, ...]}
//	  → 200 {"status": "ok"}                                  (v3 lifecycle)
//	DELETE /users/{user}      → 200 {"status": "ok"}          (v3 lifecycle)
//	GET    /users             → 200 ["c1", "c2", ...]
//	GET    /frontier/{user}   → 200 {"user": "c2", "frontier": ["o2", "o3"]}
//	GET    /targets/{object}  → 200 {"object": "o2", "users": ["c1", "c2"]}
//	POST   /preferences       {"user": "c1", "attribute": "brand",
//	                           "better": "Apple", "worse": "Sony"}
//	DELETE /preferences       same body: retract the asserted tuple
//	GET    /clusters          → 200 [["c1","c2"], ...]
//	GET    /healthz           → 200 {"status": "ok"}          (liveness)
//
// Server's own routes — the stream, storage and replication endpoints
// of one monitor, and the partition side of ring agreement, migration
// and the router lease (ring.go, lease.go):
//
//	GET    /subscribe/{user}  → SSE stream, one "delivery" event per push
//	                            (v2 enter-only payload; deprecated)
//	GET    /deltas/{user}     → SSE stream, one "delta" event per frontier
//	                            change: {"object": ..., "entered": [...],
//	                            "left": [...]}                (v3 payload)
//	GET    /stats             → 200 {"Comparisons": ..., "Workers": ...,
//	                                 "Shards": [...], ...}
//	GET    /readyz            → 200, or 503 with the reason  (readiness)
//	POST   /snapshot          → 200 {"status": "ok", "storage": {...}}
//	GET    /storage/stats     → 200 {"dir": ..., "segments": ...,
//	                                 "last_appended_seq": ..., "feeds": [...],
//	                                 "replication": {...}, ...}
//	GET    /snapshot/latest   → 200 snapshot body (codec v2),
//	                            X-Paretomon-Seq: log position  (replication)
//	GET    /wal?after=N       → 200 changefeed stream: every WAL record
//	                            with Seq > N, long-polling at the tail;
//	                            410 when N is pruned away      (replication)
//	GET|PUT /ring, POST /migrate/{export,import}, GET|POST /migrate/objects,
//	GET    /objects/count, POST|GET|DELETE /lease          (partitioning)
//
// Unknown users, objects and never-asserted preferences yield 404;
// malformed bodies, duplicate names and invalid preferences yield 400;
// writes on a follower yield 403; the storage and feed endpoints yield
// 501 on a monitor built without a store (no -data-dir).
type Server struct {
	facade
	mon *paretomon.Monitor

	// Active changefeed streams, for GET /storage/stats observability.
	feedMu sync.Mutex
	feedID int64
	feeds  map[int64]*feedConn

	// Installed ring version (0 = none), cached from the monitor's meta
	// record so every mutating request checks it without a store read.
	// See checkRing and docs/PARTITIONING.md "Live rebalancing".
	ringMu  sync.Mutex
	ringVer uint64

	// Router lease state; see lease.go.
	leaseMu sync.Mutex

	// observeSnapshot, when set, receives each POST /snapshot duration
	// in seconds.
	observeSnapshot func(seconds float64)
}

// Option configures New.
type Option func(*Server)

// WithGate installs a serving-edge quota gate (multi-tenant hosting).
func WithGate(g Gate) Option {
	return func(s *Server) { s.gate = g }
}

// WithSnapshotObserver wires snapshot-duration observability: fn
// receives the wall-clock seconds of every operator-triggered
// POST /snapshot.
func WithSnapshotObserver(fn func(seconds float64)) Option {
	return func(s *Server) { s.observeSnapshot = fn }
}

// feedConn is one active /wal stream's observable state.
type feedConn struct {
	id     int64
	cursor atomic.Uint64
}

// New wraps an existing monitor.
func New(mon *paretomon.Monitor, opts ...Option) *Server {
	s := &Server{mon: mon, feeds: make(map[int64]*feedConn)}
	s.init(mon, s.checkRing)
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /subscribe/{user}", s.handleSubscribe)
	s.mux.HandleFunc("GET /deltas/{user}", s.handleDeltas)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /storage/stats", s.handleStorageStats)
	s.mux.HandleFunc("GET /snapshot/latest", s.handleSnapshotLatest)
	s.mux.HandleFunc("GET /wal", s.handleWAL)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /ring", s.handleRingGet)
	s.mux.HandleFunc("PUT /ring", s.handleRingPut)
	s.mux.HandleFunc("POST /migrate/export", s.handleMigrateExport)
	s.mux.HandleFunc("POST /migrate/import", s.handleMigrateImport)
	s.mux.HandleFunc("GET /migrate/objects", s.handleObjectsExport)
	s.mux.HandleFunc("POST /migrate/objects", s.handleObjectsImport)
	s.mux.HandleFunc("GET /objects/count", s.handleObjectCount)
	s.mux.HandleFunc("POST /lease", s.handleLeaseAcquire)
	s.mux.HandleFunc("GET /lease", s.handleLeaseGet)
	s.mux.HandleFunc("DELETE /lease", s.handleLeaseRelease)
	// Adopt the ring this partition last accepted, surviving restarts on
	// durable monitors. A load failure leaves version 0 (legacy mode) —
	// the first router push reinstalls it — but say so: a partition that
	// silently drops back to version 0 accepts writes the ring fencing
	// would have refused.
	if data, ok, err := mon.GetMeta(ringMetaKey); err != nil {
		log.Printf("server: reading stored ring meta: %v; starting at ring version 0 until the router pushes a ring", err)
	} else if ok {
		if rg, err := partition.DecodeRing(data); err != nil {
			log.Printf("server: decoding stored ring: %v; starting at ring version 0 until the router pushes a ring", err)
		} else {
			s.ringVer = rg.Version
		}
	}
	return s
}

// handleReadyz is the readiness probe: 200 only while the monitor can
// actually serve — not closed, store healthy, and (on a follower) the
// changefeed connected with the apply loop running. Partition routers
// probe it before re-sending work to a restarting partition; load
// balancers use it to keep traffic off replicas that are silently
// diverging. 503 carries the reason in the error body.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	writeReady(w, s.done, s.mon.Ready)
}

// writeReady answers a readiness probe on either facade: 503 with the
// reason while the facade is shutting down (done closed) or ready
// reports an error, 200 otherwise.
func writeReady(w http.ResponseWriter, done <-chan struct{}, ready func() error) {
	select {
	case <-done:
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	if err := ready(); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeOK(w)
}

// statusOf maps a paretomon error to its HTTP status: missing entities
// are 404, everything else the client sent wrong is 400.
func statusOf(err error) int {
	switch {
	case errors.Is(err, paretomon.ErrUnknownUser),
		errors.Is(err, paretomon.ErrUnknownObject),
		errors.Is(err, paretomon.ErrUnknownPreference):
		return http.StatusNotFound
	case errors.Is(err, tenant.ErrQuotaExceeded):
		// A tenant quota refused the request; retry after freeing
		// capacity (or after the rate bucket refills).
		return http.StatusTooManyRequests
	case errors.Is(err, tenant.ErrUnauthorized):
		return http.StatusUnauthorized
	case errors.Is(err, tenant.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, tenant.ErrDuplicateTenant):
		return http.StatusConflict
	case errors.Is(err, tenant.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, paretomon.ErrReadOnly):
		// Followers replicate; writes go to the primary.
		return http.StatusForbidden
	case errors.Is(err, paretomon.ErrWALRetired):
		// The feed position was pruned away: re-bootstrap via
		// GET /snapshot/latest.
		return http.StatusGone
	case errors.Is(err, paretomon.ErrMigrateMismatch), errors.Is(err, paretomon.ErrBatchConflict):
		// Stream positions disagree (the orchestrator aligns, object sync
		// under the write freeze, and retries), or a batch id contradicts
		// the writer's last batch.
		return http.StatusConflict
	case errors.Is(err, paretomon.ErrMonitorClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, paretomon.ErrUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, paretomon.ErrStore),
		errors.Is(err, paretomon.ErrCorrupt),
		errors.Is(err, paretomon.ErrVersion):
		// Persistence faults are the server's problem, not the caller's.
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeError answers a Driver error, on either facade, as answer says.
func writeError(w http.ResponseWriter, err error) {
	status, ring, msg := answer(err)
	if ring != "" {
		w.Header().Set(partition.RingHeader, ring)
	}
	httpError(w, status, "%s", msg)
}

// answer is the status, RingHeader value ("" for none) and message an
// error is answered with. A handler's own refusal carries all three. The
// partition errors come next: a partition's own HTTP rejection passes
// through with its status and message, a write lease held by another
// router is 409 (retry against the holder, or wait for the lease to
// lapse), and a fleet routing failure (partition down, partial fan-out)
// is 502 Bad Gateway. Everything else is statusOf's. A *Monitor never
// returns a partition error — the root package does not import
// partition — so a Server's answers are statusOf's alone.
func answer(err error) (status int, ring, msg string) {
	var rf *refusal
	var se *partition.StatusError
	var re *partition.RouteError
	switch {
	case errors.As(err, &rf):
		return rf.status, rf.ring, rf.msg
	case errors.As(err, &se):
		return se.Status, "", se.Msg
	case errors.Is(err, partition.ErrNotLeaseHolder):
		return http.StatusConflict, "", err.Error()
	case errors.As(err, &re) || errors.Is(err, partition.ErrPartitionDown):
		return http.StatusBadGateway, "", err.Error()
	}
	return statusOf(err), "", err.Error()
}

// refusal is an answer a handler decides for itself, before or instead
// of the Driver's: a ring-version conflict, a body that does not decode.
type refusal struct {
	status    int
	ring, msg string
}

func (e *refusal) Error() string { return e.msg }

// maxBodyBytes bounds every request body a handler reads or decodes: a
// longer one is answered 413 and changes nothing. PUT /ring reads at
// most this much; the streaming /migrate/import* bodies are applied
// frame by frame and are not bounded here.
const maxBodyBytes = 32 << 20

// readBody reads the request body into a pooled buffer and decodes it
// with one of internal/wire's decoders (whose results never alias the
// buffer's bytes). A failure is answered as bodyError says.
func readBody[T any](r *http.Request, decode func(*wire.Buffer) (T, error)) (v T, err error) {
	buf := wire.GetBuffer()
	defer buf.Free()
	if err = buf.ReadAll(r.Body, maxBodyBytes); err != nil {
		return v, err
	}
	return decode(buf)
}

// decodeJSON decodes the request body into v with encoding/json, reading
// at most maxBodyBytes of it. It answers a body that does not decode
// itself (see bodyError) and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		writeError(w, bodyError(err))
		return false
	}
	return true
}

// bodyError is the refusal of a request body that could not be read or
// decoded: 413 past maxBodyBytes, otherwise 400 in encoding/json's words
// (or, for an ingest stream's batch, internal/wire's).
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, wire.ErrTooLarge) || errors.As(err, &tooLarge):
		return &refusal{http.StatusRequestEntityTooLarge, "", fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	case errors.Is(err, wire.ErrBadPayload):
		return &refusal{http.StatusBadRequest, "", err.Error()}
	}
	return &refusal{http.StatusBadRequest, "", "bad JSON: " + err.Error()}
}

// writeBody answers 200 with v as one of internal/wire's encoders
// appends it, newline-terminated like json.Encoder's output, in one
// Write.
func writeBody[T any](w http.ResponseWriter, v T, encode func([]byte, T) []byte) {
	buf := wire.GetBuffer()
	defer buf.Free()
	buf.B = append(encode(buf.B, v), '\n')
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.B)
}

// facade is what Server and RouterServer share: one mux carrying the
// shared route table — every route whose answer is the
// paretomon.Driver's alone — and the cancellation of in-flight streams.
// Each facade embeds it and registers only its own routes beside the
// shared ones. What differs between the two is carried by fields, not
// by a second copy: a Server sets fence (the ring-version check of a
// partition, see checkRing) and may set gate (quotas, see WithGate); a
// RouterServer sets neither, so a routed request never meets either.
type facade struct {
	drv paretomon.Driver
	mux *http.ServeMux
	// gate, when set, is consulted before every quota-metered mutation;
	// see the Gate interface.
	gate Gate
	// fence vets every mutating request by its RingHeader value,
	// returning the refusal to answer it with; init makes an unset one
	// pass everything.
	fence func(ring string) error

	// done is closed by Close, cancelling in-flight streams.
	done      chan struct{}
	closeOnce sync.Once
	// shut ends ingest streams on Shutdown; see handleStream.
	shut shutdowns
}

// init builds the mux and registers the shared route table over drv.
func (f *facade) init(drv paretomon.Driver, fence func(ring string) error) {
	if fence == nil {
		fence = func(string) error { return nil }
	}
	f.drv, f.fence = drv, fence
	f.mux, f.done = http.NewServeMux(), make(chan struct{})
	f.mux.HandleFunc("POST /objects", f.handleObjects)
	f.mux.HandleFunc("POST /objects/batch", f.handleBatch)
	f.mux.HandleFunc("GET /objects/stream", f.handleStream)
	f.mux.HandleFunc("DELETE /objects/{object}", f.handleObjectDelete)
	f.mux.HandleFunc("GET /users", f.handleUsersList)
	f.mux.HandleFunc("POST /users", f.handleUserAdd)
	f.mux.HandleFunc("DELETE /users/{user}", f.handleUserDelete)
	f.mux.HandleFunc("GET /frontier/{user}", f.handleFrontier)
	f.mux.HandleFunc("GET /targets/{object}", f.handleTargets)
	f.mux.HandleFunc("POST /preferences", f.handlePreferenceAdd)
	f.mux.HandleFunc("DELETE /preferences", f.handlePreferenceRetract)
	f.mux.HandleFunc("GET /clusters", f.handleClusters)
	f.mux.HandleFunc("GET /healthz", handleHealthz)
}

// ServeHTTP implements http.Handler.
func (f *facade) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Close cancels every in-flight stream — SSE subscriptions and
// changefeed tails on a Server, proxied subscriptions on a
// RouterServer — so a shutting-down process does not hang on open
// connections. Subsequent requests still route (pair Close with
// http.Server.Shutdown to stop accepting); followers tailing a Server
// reconnect with backoff and resume where they left off, and the
// partitions behind a RouterServer keep running.
func (f *facade) Close() error {
	f.closeOnce.Do(func() { close(f.done) })
	return nil
}

// admit reports whether a mutating request may proceed past the fence.
func (f *facade) admit(w http.ResponseWriter, r *http.Request) bool {
	err := f.fence(r.Header.Get(partition.RingHeader))
	if err != nil {
		writeError(w, err)
	}
	return err == nil
}

func (f *facade) handleObjects(w http.ResponseWriter, r *http.Request) {
	if !f.admit(w, r) {
		return
	}
	o, err := readBody(r, wire.DecodeObject)
	if err != nil {
		writeError(w, bodyError(err))
		return
	}
	if f.gate != nil {
		n, err := f.gate.ReserveObjects([]string{o.Name})
		if err != nil {
			writeError(w, err)
			return
		}
		defer f.gate.ReleaseObjects(n)
	}
	d, err := f.drv.Add(o.Name, o.Values...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, d, wire.AppendDelivery)
}

func (f *facade) handleBatch(w http.ResponseWriter, r *http.Request) {
	ds, err := f.applyBatch(r.Header.Get(partition.RingHeader), r.Header.Get(partition.BatchHeader), func() ([]paretomon.Object, error) {
		return readBody(r, wire.DecodeBatch)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, ds, wire.AppendDeliveries)
}

// applyBatch is POST /objects/batch past the transport, for the request
// and for the ingest stream's frames alike: the ring fence on ring (the
// RingHeader value), the batch id batch (the BatchHeader value), the
// batch decode yields (a failure is bodyError's refusal), the quota gate
// and the batch-id memo of AddBatchOnce. The caller answers: deliveries
// as JSON or as the stream's reply payload, an error as answer maps it.
func (f *facade) applyBatch(ring, batch string, decode func() ([]paretomon.Object, error)) ([]paretomon.Delivery, error) {
	if err := f.fence(ring); err != nil {
		return nil, err
	}
	var id paretomon.BatchID
	if batch != "" {
		var err error
		if id, err = paretomon.ParseBatchID(batch); err != nil {
			return nil, err
		}
	}
	objs, err := decode()
	if err != nil {
		return nil, bodyError(err)
	}
	if f.gate != nil {
		names := make([]string, len(objs))
		for i, o := range objs {
			names[i] = o.Name
		}
		// The gate refuses the whole batch atomically, matching
		// AddBatch's own all-or-nothing contract: a mid-batch quota hit
		// ingests nothing.
		n, err := f.gate.ReserveObjects(names)
		if err != nil {
			return nil, err
		}
		defer f.gate.ReleaseObjects(n)
	}
	return f.drv.AddBatchOnce(id, objs)
}

func (f *facade) handleFrontier(w http.ResponseWriter, r *http.Request) {
	writeNamedList(w, r, "user", "frontier", f.drv.Frontier)
}

func (f *facade) handleTargets(w http.ResponseWriter, r *http.Request) {
	writeNamedList(w, r, "object", "users", f.drv.TargetsOf)
}

// writeNamedList answers GET /frontier/{user} and GET /targets/{object}:
// {key: the path's name, field: the list read for it}, an empty list
// spelled [] rather than null.
func writeNamedList(w http.ResponseWriter, r *http.Request, key, field string, read func(string) ([]string, error)) {
	name := r.PathValue(key)
	list, err := read(name)
	if err != nil {
		writeError(w, err)
		return
	}
	if list == nil {
		list = []string{}
	}
	writeJSON(w, map[string]any{key: name, field: list})
}

// handleObjectDelete serves DELETE /objects/{object}: the v3 lifecycle
// takedown. The object leaves every frontier it occupies and the users
// it was shielding regain their promoted objects; /deltas subscribers
// observe both sides of the change. ("POST /objects/batch" is a more
// specific pattern than "DELETE /objects/{object}" only within its own
// method, so an object literally named "batch" is deletable — the mux
// resolves method before specificity.)
func (f *facade) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	if !f.admit(w, r) {
		return
	}
	if err := f.drv.RemoveObject(r.PathValue("object")); err != nil {
		writeError(w, err)
		return
	}
	writeOK(w)
}

type addUserRequest struct {
	Name        string              `json:"name"`
	Preferences []preferenceRequest `json:"preferences"`
}

// handleUsersList serves GET /users: the alive community members.
func (f *facade) handleUsersList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, f.drv.Users())
}

// handleUserAdd serves POST /users: join the community with initial
// preferences.
func (f *facade) handleUserAdd(w http.ResponseWriter, r *http.Request) {
	if !f.admit(w, r) {
		return
	}
	var req addUserRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	prefs := make([]paretomon.Preference, len(req.Preferences))
	for i, p := range req.Preferences {
		prefs[i] = paretomon.Preference{Attr: p.Attribute, Better: p.Better, Worse: p.Worse}
	}
	if f.gate != nil {
		if err := f.gate.ReserveUser(); err != nil {
			writeError(w, err)
			return
		}
	}
	if err := f.drv.AddUser(req.Name, prefs); err != nil {
		if f.gate != nil {
			f.gate.UnreserveUser()
		}
		writeError(w, err)
		return
	}
	writeOK(w)
}

// handleUserDelete serves DELETE /users/{user}: the user's frontier
// disappears, their subscription streams end, and their cluster resyncs
// without them.
func (f *facade) handleUserDelete(w http.ResponseWriter, r *http.Request) {
	if !f.admit(w, r) {
		return
	}
	if err := f.drv.RemoveUser(r.PathValue("user")); err != nil {
		writeError(w, err)
		return
	}
	if f.gate != nil {
		f.gate.UserRemoved()
	}
	writeOK(w)
}

type preferenceRequest struct {
	User      string `json:"user"`
	Attribute string `json:"attribute"`
	Better    string `json:"better"`
	Worse     string `json:"worse"`
}

// handlePreferenceAdd serves POST /preferences: assert a tuple.
func (f *facade) handlePreferenceAdd(w http.ResponseWriter, r *http.Request) {
	f.handlePreference(w, r, f.drv.AddPreference)
}

// handlePreferenceRetract serves DELETE /preferences: retract an
// asserted tuple (the same body as POST). Retracting a tuple the user
// never asserted yields 404.
func (f *facade) handlePreferenceRetract(w http.ResponseWriter, r *http.Request) {
	f.handlePreference(w, r, f.drv.RetractPreference)
}

func (f *facade) handlePreference(w http.ResponseWriter, r *http.Request, apply func(user, attr, better, worse string) error) {
	if !f.admit(w, r) {
		return
	}
	var req preferenceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := apply(req.User, req.Attribute, req.Better, req.Worse); err != nil {
		writeError(w, err)
		return
	}
	writeOK(w)
}

func (f *facade) handleClusters(w http.ResponseWriter, r *http.Request) {
	cl := f.drv.Clusters()
	if cl == nil {
		cl = [][]string{}
	}
	writeJSON(w, cl)
}

// handleHealthz is the liveness probe: the process is up and routing
// requests. It says nothing about whether the driver can serve — a
// poisoned store, a diverged follower or a partition down is alive but
// not ready (see each facade's /readyz).
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeOK(w)
}

// reserveStream charges the subscription quota for one SSE stream; it
// answers the request itself (429) and reports false on refusal. The
// returned release is a no-op when no gate is installed.
func (s *Server) reserveStream(w http.ResponseWriter) (release func(), ok bool) {
	if s.gate == nil {
		return func() {}, true
	}
	release, err := s.gate.ReserveSubscription()
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return release, true
}

// sseStart writes the SSE preamble; it reports false when the
// ResponseWriter cannot stream.
func sseStart(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// handleSubscribe streams the user's deliveries as server-sent events:
// one "delivery" event per object delivered to the user. Slow consumers
// lose oldest deliveries rather than stalling ingestion (see
// Monitor.Subscribe).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	serveStream(s, w, r, s.mon.Subscribe, appendDeliveryEvent)
}

// handleDeltas streams the user's frontier changes as server-sent
// events: one "delta" event per observed mutation, carrying the v3
// payload {"object": ..., "entered": [...], "left": [...]} — unlike the
// deprecated /subscribe stream, removals and retractions are visible.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	serveStream(s, w, r, s.mon.SubscribeDeltas, appendDeltaEvent)
}

// serveStream is the SSE loop behind /subscribe and /deltas: it charges
// the subscription quota, subscribes the path's user, and writes one
// frame per event until the client disconnects, the channel closes
// (monitor closed or user removed), or Server.Close cancels the stream.
func serveStream[T any](s *Server, w http.ResponseWriter, r *http.Request,
	subscribe func(user string) (<-chan T, paretomon.CancelFunc, error), frame func([]byte, T) []byte) {
	release, ok := s.reserveStream(w)
	if !ok {
		return
	}
	defer release()
	ch, cancel, err := subscribe(r.PathValue("user"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	fl, ok := sseStart(w)
	if !ok {
		return
	}
	ctx := r.Context()
	var buf []byte // reused for every event of this stream
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.done:
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			buf = frame(buf[:0], ev)
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// appendDeliveryEvent appends d's whole /subscribe SSE frame.
func appendDeliveryEvent(dst []byte, d paretomon.Delivery) []byte {
	dst = append(dst, "event: delivery\ndata: "...)
	dst = wire.AppendDelivery(dst, d)
	return append(dst, "\n\n"...)
}

// appendDeltaEvent appends d's whole /deltas SSE frame.
func appendDeltaEvent(dst []byte, d paretomon.FrontierDelta) []byte {
	dst = append(dst, "event: delta\ndata: "...)
	dst = wire.AppendDelta(dst, d)
	return append(dst, "\n\n"...)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.mon.Stats())
}

// handleSnapshot forces a checked snapshot + prune on a durable
// monitor: operators hit it before planned restarts or after bulk loads
// to bound the next recovery's WAL replay. The response carries the
// post-snapshot storage footprint.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.mon.Snapshot(); err != nil {
		writeError(w, err)
		return
	}
	if s.observeSnapshot != nil {
		s.observeSnapshot(time.Since(start).Seconds())
	}
	st, err := s.mon.StorageStats()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "ok", "storage": st})
}

// feedStatus is one active changefeed stream in the storage stats.
type feedStatus struct {
	// ID distinguishes concurrent streams; Cursor is the last seq the
	// stream has shipped, compared against last_appended_seq to spot a
	// straggling follower.
	ID     int64  `json:"id"`
	Cursor uint64 `json:"cursor"`
}

// storageStatsResponse extends the store footprint with replication
// observability: the log head, each active feed stream's cursor, and —
// on followers — the applied-seq watermark and lag.
type storageStatsResponse struct {
	paretomon.StoreStats
	Feeds       []feedStatus                `json:"feeds"`
	Replication *paretomon.ReplicationStats `json:"replication,omitempty"`
}

// handleStorageStats reports the store's footprint (WAL segments and
// bytes, retained snapshots, appends) plus replication state for
// dashboards and capacity planning. A follower has no store of its own
// and reports its replication watermarks only.
func (s *Server) handleStorageStats(w http.ResponseWriter, r *http.Request) {
	resp := storageStatsResponse{Feeds: s.feedStatuses()}
	st, err := s.mon.StorageStats()
	switch {
	case err == nil:
		resp.StoreStats = st
	case errors.Is(err, paretomon.ErrUnsupported) && s.mon.IsFollower():
		// No local store, but the replication section below carries the
		// interesting numbers.
	default:
		writeError(w, err)
		return
	}
	if rs := s.mon.Replication(); rs.Follower {
		resp.Replication = &rs
	}
	writeJSON(w, resp)
}

// ActiveFeeds returns the IDs of the /wal streams currently open — the
// accounting behind GET /storage/stats' feeds array, exported so
// shutdown tests can assert every stream unregistered.
func (s *Server) ActiveFeeds() []int64 {
	var out []int64
	for _, f := range s.feedStatuses() {
		out = append(out, f.ID)
	}
	return out
}

func (s *Server) feedStatuses() []feedStatus {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	out := make([]feedStatus, 0, len(s.feeds))
	for _, f := range s.feeds {
		out = append(out, feedStatus{ID: f.id, Cursor: f.cursor.Load()})
	}
	return out
}

func (s *Server) registerFeed(cursor uint64) *feedConn {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	s.feedID++
	f := &feedConn{id: s.feedID}
	f.cursor.Store(cursor)
	s.feeds[f.id] = f
	return f
}

func (s *Server) unregisterFeed(f *feedConn) {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	delete(s.feeds, f.id)
}

// handleSnapshotLatest serves GET /snapshot/latest: the newest snapshot
// body with its log position in the X-Paretomon-Seq header — the
// follower bootstrap image. 404 means no snapshot exists yet (tail the
// feed from 0); 501 means this monitor has no store.
func (s *Server) handleSnapshotLatest(w http.ResponseWriter, r *http.Request) {
	seq, body, ok, err := s.mon.LatestSnapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no snapshot taken yet; tail /wal from 0")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replica.SeqHeader, strconv.FormatUint(seq, 10))
	_, _ = w.Write(body)
}

// feedBatchLimit bounds one WALAfter page; a catching-up follower
// receives the backlog as a sequence of flushed bursts. Each page
// re-reads its containing WAL segment from the OS cache (WALAfter has
// no positioned cursor), so the page is kept large to amortize that —
// see the I/O note in docs/REPLICATION.md.
const feedBatchLimit = 4096

// handleWAL serves GET /wal?after=N: the replication changefeed. The
// response streams every WAL record with Seq > N as CRC-guarded frames
// (see internal/replica), interleaved with head-watermark messages, and
// long-polls at the tail until the client disconnects or Server.Close.
// A position below the prune floor is 410 Gone: the follower must
// re-bootstrap from /snapshot/latest.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	after := uint64(0)
	if q := r.URL.Query().Get("after"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad after=%q: %v", q, err)
			return
		}
		after = v
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// Fetch the first page before committing to a 200, so retention and
	// configuration problems surface as proper statuses.
	recs, head, err := s.mon.WALAfter(after, feedBatchLimit)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(replica.SeqHeader, strconv.FormatUint(head, 10))
	w.WriteHeader(http.StatusOK)

	feed := s.registerFeed(after)
	defer s.unregisterFeed(feed)
	cursor := after
	ctx := r.Context()
	for {
		// Re-check cancellation at the top of every iteration, not only
		// in the long-poll select below: a stream busy shipping backlog
		// from a continuously-appending primary may never reach the
		// caught-up branch, and Server.Close must still end it — at a
		// frame boundary, so the follower sees a clean EOF rather than a
		// torn frame.
		select {
		case <-ctx.Done():
			return
		case <-s.done:
			return
		default:
		}
		if len(recs) > 0 {
			if err := replica.WriteHead(w, head); err != nil {
				return
			}
			for _, rec := range recs {
				if err := replica.WriteRecord(w, rec); err != nil {
					return
				}
			}
			fl.Flush()
			cursor = recs[len(recs)-1].Seq
			feed.cursor.Store(cursor)
		} else {
			// Caught up: tell the follower where the head is, then
			// long-poll. Grab the notify channel before the final
			// re-check below, so an append between the two closes the
			// channel we wait on — no wakeup is ever missed.
			if err := replica.WriteHead(w, head); err != nil {
				return
			}
			fl.Flush()
			notify := s.mon.WALNotify()
			if recs, head, err = s.mon.WALAfter(cursor, feedBatchLimit); err != nil {
				return
			}
			if len(recs) == 0 {
				select {
				case <-ctx.Done():
					return
				case <-s.done:
					return
				case <-notify:
				}
			}
			continue
		}
		if recs, head, err = s.mon.WALAfter(cursor, feedBatchLimit); err != nil {
			return
		}
	}
}

// writeOK answers {"status": "ok"}.
func writeOK(w http.ResponseWriter) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
