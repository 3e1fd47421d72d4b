package server

import (
	"context"
	"crypto/subtle"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// TenantServer namespaces the whole single-monitor HTTP API under
// /t/{tenant}/... for every tenant in a registry, and adds the
// operator surface on top:
//
//	<any Server route>  under /t/{name}/...   per-tenant API, bearer-
//	                                          authenticated, quota-gated
//	GET    /admin/tenants                     list specs (tokens redacted)
//	POST   /admin/tenants                     create a tenant from a Spec
//	DELETE /admin/tenants/{name}              delete tenant + data dir
//	POST   /admin/tenants/{name}/rotate-token rotate (or generate) token
//	GET    /metrics                           Prometheus text exposition
//	GET    /healthz, /readyz                  process probes
//	<any Server route>  at /                  back-compat alias for the
//	                                          default tenant (optional)
//
// Tenant resolution failures are 404, bad credentials 401, quota
// refusals 429 — the same taxonomy the tenant package's sentinels
// document. The admin endpoints are guarded by a fleet-level admin
// token, separate from every tenant token.
type TenantServer struct {
	reg        *tenant.Registry
	adminToken string
	defTenant  string
	tel        *telemetry.Registry
	mux        *http.ServeMux

	// Per-tenant delegate handlers, built lazily and dropped on delete.
	mu        sync.Mutex
	delegates map[string]delegate

	reqTotal telemetry.CounterVec   // labels: tenant, route, code
	reqDur   telemetry.HistogramVec // labels: tenant, route
	snapDur  telemetry.HistogramVec // labels: tenant
}

// delegate is one tenant's wrapped handler: a Server or a RouterServer.
type delegate interface {
	http.Handler
	Close() error
}

// TenantOption configures NewTenantServer.
type TenantOption func(*TenantServer)

// WithAdminToken guards the /admin endpoints (empty leaves them open).
func WithAdminToken(token string) TenantOption {
	return func(s *TenantServer) { s.adminToken = token }
}

// WithDefaultTenant aliases the un-namespaced routes to one tenant, so
// single-tenant clients keep working against a fleet. Auth and quotas
// still apply.
func WithDefaultTenant(name string) TenantOption {
	return func(s *TenantServer) { s.defTenant = name }
}

// WithMetrics serves the telemetry registry at GET /metrics and
// records per-request series (requests by route and status, latency
// histograms, snapshot durations). Pass the same registry the tenant
// registry was opened with so engine-level series land in the same
// scrape.
func WithMetrics(tel *telemetry.Registry) TenantOption {
	return func(s *TenantServer) { s.tel = tel }
}

// NewTenantServer builds the multi-tenant front door over a registry.
func NewTenantServer(reg *tenant.Registry, opts ...TenantOption) *TenantServer {
	s := &TenantServer{
		reg:       reg,
		mux:       http.NewServeMux(),
		delegates: make(map[string]delegate),
	}
	for _, o := range opts {
		o(s)
	}
	if s.tel != nil {
		s.reqTotal = s.tel.NewCounter("paretomon_http_requests_total",
			"HTTP requests served, by tenant, route and status code.",
			"tenant", "route", "code")
		s.reqDur = s.tel.NewHistogram("paretomon_http_request_duration_seconds",
			"HTTP request latency, by tenant and route.", nil,
			"tenant", "route")
		s.snapDur = s.tel.NewHistogram("paretomon_snapshot_duration_seconds",
			"Operator-triggered snapshot wall-clock duration.", nil, "tenant")
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	s.mux.HandleFunc("/t/{tenant}/{rest...}", s.handleTenant)
	s.mux.HandleFunc("GET /admin/tenants", s.admin(s.handleAdminList))
	s.mux.HandleFunc("POST /admin/tenants", s.admin(s.handleAdminCreate))
	s.mux.HandleFunc("DELETE /admin/tenants/{name}", s.admin(s.handleAdminDelete))
	s.mux.HandleFunc("POST /admin/tenants/{name}/rotate-token", s.admin(s.handleAdminRotate))
	s.mux.HandleFunc("GET /healthz", handleHealthz)
	s.mux.HandleFunc("GET /readyz", handleHealthz)
	if s.defTenant != "" {
		// Everything not claimed above falls through to the default
		// tenant's API — the pre-multi-tenant route surface.
		s.mux.HandleFunc("/", s.handleDefaultTenant)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *TenantServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close shuts down every delegate handler (ending their SSE and
// changefeed streams). The registry itself is the caller's to close.
func (s *TenantServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, d := range s.delegates {
		_ = d.Close()
		delete(s.delegates, name)
	}
	return nil
}

func (s *TenantServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.WritePrometheus(w)
}

// bearerToken extracts the request's credential: the Authorization
// bearer header, or the access_token query parameter (SSE clients
// cannot set headers).
func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if strings.HasPrefix(h, "Bearer ") {
		return strings.TrimPrefix(h, "Bearer ")
	}
	return r.URL.Query().Get("access_token")
}

// handleTenant serves /t/{tenant}/{rest...}: resolve, authenticate,
// rate-admit, then hand the request — rewritten to the un-namespaced
// path, its context bound to the tenant's session — to the tenant's
// delegate handler.
func (s *TenantServer) handleTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	t, err := s.reg.Get(name)
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	s.serveTenant(w, r, t, "/"+r.PathValue("rest"))
}

// handleDefaultTenant serves the back-compat alias: the un-namespaced
// API routed to the configured default tenant, same auth, same quotas.
func (s *TenantServer) handleDefaultTenant(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.Get(s.defTenant)
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	s.serveTenant(w, r, t, r.URL.Path)
}

func (s *TenantServer) serveTenant(w http.ResponseWriter, r *http.Request, t *tenant.Tenant, path string) {
	if err := t.Authorize(bearerToken(r)); err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	if err := t.Admit(); err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	d := s.delegateFor(t)

	// Bind the request to the tenant's session: token rotation and
	// tenant deletion cancel the session context, which cancels this
	// request context, which unwinds handlers — SSE loops included.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(t.SessionContext(), cancel)
	defer stop()
	if path == "/objects/stream" {
		// An ingest stream carries one batch per frame, each charged to
		// the request rate as the POST it replaces would be.
		ctx = context.WithValue(ctx, admitKey{}, t.Admit)
	}

	r2 := r.Clone(ctx)
	r2.URL.Path = path
	r2.URL.RawPath = ""

	if s.tel == nil {
		d.ServeHTTP(w, r2)
		return
	}
	route := routeLabel(path)
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	d.ServeHTTP(rec, r2)
	s.reqDur.With(t.Name(), route).Observe(time.Since(start).Seconds())
	s.reqTotal.With(t.Name(), route, strconv.Itoa(rec.code)).Inc()
}

// delegateFor returns (building if needed) the tenant's handler.
func (s *TenantServer) delegateFor(t *tenant.Tenant) delegate {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.delegates[t.Name()]; ok {
		return d
	}
	var d delegate
	if rt := t.Router(); rt != nil {
		d = NewRouter(rt)
	} else {
		opts := []Option{WithGate(t)}
		if s.tel != nil {
			name := t.Name()
			opts = append(opts, WithSnapshotObserver(func(sec float64) {
				s.snapDur.With(name).Observe(sec)
			}))
		}
		d = New(t.Monitor(), opts...)
	}
	s.delegates[t.Name()] = d
	return d
}

// dropDelegate closes and forgets a deleted tenant's handler.
func (s *TenantServer) dropDelegate(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.delegates[name]; ok {
		_ = d.Close()
		delete(s.delegates, name)
	}
}

// admin guards an /admin handler with the fleet-level admin credential.
func (s *TenantServer) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adminToken != "" && subtle.ConstantTimeCompare([]byte(bearerToken(r)), []byte(s.adminToken)) != 1 {
			httpError(w, http.StatusUnauthorized, "admin token required")
			return
		}
		h(w, r)
	}
}

// handleAdminList serves GET /admin/tenants: every spec with the
// tokens redacted — credentials travel only on rotate responses.
func (s *TenantServer) handleAdminList(w http.ResponseWriter, r *http.Request) {
	specs := s.reg.List()
	for i := range specs {
		specs[i].Token = ""
	}
	writeJSON(w, specs)
}

// handleAdminCreate serves POST /admin/tenants: a tenant.Spec body.
func (s *TenantServer) handleAdminCreate(w http.ResponseWriter, r *http.Request) {
	var spec tenant.Spec
	if !decodeJSON(w, r, &spec) {
		return
	}
	if _, err := s.reg.Create(spec); err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]string{"status": "ok", "name": spec.Name})
}

// handleAdminDelete serves DELETE /admin/tenants/{name}: record first,
// then teardown — live SSE streams end via the session context.
func (s *TenantServer) handleAdminDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	s.dropDelegate(name)
	writeOK(w)
}

// handleAdminRotate serves POST /admin/tenants/{name}/rotate-token:
// body {"token": "..."} (empty to have the registry generate one); the
// response carries the now-active token.
func (s *TenantServer) handleAdminRotate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Token string `json:"token"`
	}
	if r.Body != nil && r.ContentLength != 0 {
		if !decodeJSON(w, r, &req) {
			return
		}
	}
	token, err := s.reg.RotateToken(r.PathValue("name"), req.Token)
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, map[string]string{"token": token})
}

// routeLabel buckets a request path into a bounded metric label: its
// first segment ("/objects", "/frontier", ...). Deeper components are
// per-entity (user and object names) and would blow up cardinality.
func routeLabel(path string) string {
	p := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	if p == "" {
		return "/"
	}
	return "/" + p
}

// statusRecorder captures the response status for the request metrics
// while preserving the Flusher the SSE handlers require.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// Flush forwards to the underlying Flusher so delegates can stream.
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}
