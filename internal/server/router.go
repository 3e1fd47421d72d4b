package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"sync"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/wire"
)

// RouterServer is an http.Handler serving a partitioned fleet through a
// partition.Router: the same API surface as Server — producers and
// consumers cannot tell a router from a single monitor — with the
// aggregate endpoints merged across partitions:
//
//   - POST /objects[/batch] fans out to every partition; deliveries are
//     the community-wide union.
//   - User-scoped endpoints (frontier, lifecycle, preferences, and the
//     /subscribe and /deltas SSE streams, which are proxied verbatim)
//     route to the user's owning partition.
//   - GET /stats reports the merged counters plus a "partitions" array
//     with each partition's own view (workers and shards per partition).
//   - GET /storage/stats reports each partition's footprint and totals.
//   - GET /healthz and /readyz probe the router itself; /readyz is 200
//     only when every partition's own /readyz is.
//
// The per-partition replication endpoints (/wal, /snapshot/latest) are
// 501 on the router: followers replicate from their partition's primary
// directly — the replication tree hangs off partitions, not the router
// (see docs/PARTITIONING.md).
type RouterServer struct {
	router *partition.Router
	mux    *http.ServeMux

	// done cancels in-flight proxied SSE streams on Close.
	done      chan struct{}
	closeOnce sync.Once
}

// NewRouter wraps a partition.Router in the HTTP surface.
func NewRouter(rt *partition.Router) *RouterServer {
	s := &RouterServer{
		router: rt,
		mux:    http.NewServeMux(),
		done:   make(chan struct{}),
	}
	s.mux.HandleFunc("POST /objects", s.handleObjects)
	s.mux.HandleFunc("POST /objects/batch", s.handleBatch)
	s.mux.HandleFunc("DELETE /objects/{object}", s.handleObjectDelete)
	s.mux.HandleFunc("GET /users", s.handleUsersList)
	s.mux.HandleFunc("POST /users", s.handleUserAdd)
	s.mux.HandleFunc("DELETE /users/{user}", s.handleUserDelete)
	s.mux.HandleFunc("GET /frontier/{user}", s.handleFrontier)
	s.mux.HandleFunc("GET /targets/{object}", s.handleTargets)
	s.mux.HandleFunc("GET /subscribe/{user}", s.handleSubscribe)
	s.mux.HandleFunc("GET /deltas/{user}", s.handleDeltas)
	s.mux.HandleFunc("POST /preferences", s.handlePreferenceAdd)
	s.mux.HandleFunc("DELETE /preferences", s.handlePreferenceRetract)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /clusters", s.handleClusters)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /storage/stats", s.handleStorageStats)
	s.mux.HandleFunc("GET /snapshot/latest", s.handleUnsupported)
	s.mux.HandleFunc("GET /wal", s.handleUnsupported)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /rebalance", s.handleRebalance)
	s.mux.HandleFunc("POST /reconcile", s.handleReconcile)
	s.mux.HandleFunc("GET /ring", s.handleRing)
	return s
}

// rebalanceRequest is the POST /rebalance body: the target fleet.
type rebalanceRequest struct {
	URLs      []string `json:"urls"`
	BatchSize int      `json:"batch_size"`
}

// handleRebalance drives an online scale-out/scale-in of the fleet this
// router fronts, synchronously; the response is the completed report.
// The running router must drive it — it owns the write freeze that
// keeps migration batches atomic against live traffic — which is why
// the CLI posts here instead of building a second router.
func (s *RouterServer) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req rebalanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	rep, err := s.router.Rebalance(r.Context(), req.URLs, partition.RebalanceOptions{BatchSize: req.BatchSize})
	if err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, rep)
}

// handleReconcile runs a Reconcile pass: crash repair for interrupted
// migrations (see partition.Router.Reconcile).
func (s *RouterServer) handleReconcile(w http.ResponseWriter, r *http.Request) {
	rep, err := s.router.Reconcile(r.Context())
	if err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, rep)
}

// handleRing reports the ring the router currently routes by; 404 in
// legacy mode (no rebalance has ever installed one).
func (s *RouterServer) handleRing(w http.ResponseWriter, r *http.Request) {
	rg := s.router.Ring()
	if rg == nil {
		httpError(w, http.StatusNotFound, "no ring installed; routing by the static plan")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rg.Encode())
}

// ServeHTTP implements http.Handler.
func (s *RouterServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels in-flight proxied subscription streams. The partitions
// are independent processes and keep running.
func (s *RouterServer) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	return nil
}

// routerError maps a Router error to HTTP: a partition's own HTTP-level
// rejection passes through with its status and message; a fleet
// routing failure (partition down, partial fan-out) is 502 Bad
// Gateway; everything else falls back to the sentinel mapping shared
// with Server.
func (s *RouterServer) routerError(w http.ResponseWriter, err error) {
	var se *partition.StatusError
	if errors.As(err, &se) {
		httpError(w, se.Status, "%s", se.Msg)
		return
	}
	if errors.Is(err, partition.ErrNotLeaseHolder) {
		// Another router holds the write lease; the client should retry
		// against the holder (or just wait — this router takes over when
		// the lease lapses).
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	var re *partition.RouteError
	if errors.As(err, &re) || errors.Is(err, partition.ErrPartitionDown) {
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	}
	httpError(w, statusOf(err), "%v", err)
}

func (s *RouterServer) handleObjects(w http.ResponseWriter, r *http.Request) {
	o, ok := readBody(w, r, wire.DecodeObject)
	if !ok {
		return
	}
	d, err := s.router.Add(o.Name, o.Values...)
	if err != nil {
		s.routerError(w, err)
		return
	}
	writeBody(w, d, wire.AppendDelivery)
}

func (s *RouterServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	objs, ok := readBody(w, r, wire.DecodeBatch)
	if !ok {
		return
	}
	ds, err := s.router.AddBatch(objs)
	if err != nil {
		s.routerError(w, err)
		return
	}
	writeBody(w, ds, wire.AppendDeliveries)
}

func (s *RouterServer) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.router.RemoveObject(r.PathValue("object")); err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *RouterServer) handleUsersList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.router.Users())
}

func (s *RouterServer) handleUserAdd(w http.ResponseWriter, r *http.Request) {
	var req addUserRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	prefs := make([]paretomon.Preference, len(req.Preferences))
	for i, p := range req.Preferences {
		prefs[i] = paretomon.Preference{Attr: p.Attribute, Better: p.Better, Worse: p.Worse}
	}
	if err := s.router.AddUser(req.Name, prefs); err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *RouterServer) handleUserDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.router.RemoveUser(r.PathValue("user")); err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *RouterServer) handleFrontier(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	f, err := s.router.Frontier(user)
	if err != nil {
		s.routerError(w, err)
		return
	}
	if f == nil {
		f = []string{}
	}
	writeJSON(w, map[string]any{"user": user, "frontier": f})
}

func (s *RouterServer) handleTargets(w http.ResponseWriter, r *http.Request) {
	object := r.PathValue("object")
	users, err := s.router.TargetsOf(object)
	if err != nil {
		s.routerError(w, err)
		return
	}
	if users == nil {
		users = []string{}
	}
	writeJSON(w, map[string]any{"object": object, "users": users})
}

// handleSubscribe and handleDeltas proxy the SSE stream from the
// user's owning partition verbatim: the owner evaluates the user's
// frontier, so its stream IS the user's stream — byte-identical to
// what a single monitor would send.
func (s *RouterServer) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.proxySSE(w, r, "/subscribe/"+url.PathEscape(r.PathValue("user")))
}

func (s *RouterServer) handleDeltas(w http.ResponseWriter, r *http.Request) {
	s.proxySSE(w, r, "/deltas/"+url.PathEscape(r.PathValue("user")))
}

// proxySSE streams the owner partition's response through, flushing
// every read so events propagate immediately. The stream ends when the
// client disconnects, the partition closes it, or RouterServer.Close.
func (s *RouterServer) proxySSE(w http.ResponseWriter, r *http.Request, path string) {
	owner := s.router.Owner(r.PathValue("user"))
	base := s.router.PartitionURL(owner)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.done:
			cancel()
		case <-stop:
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp, err := s.router.HTTPClient().Do(req)
	if err != nil {
		httpError(w, http.StatusBadGateway, "partition %d (%s): %v", owner, base, err)
		return
	}
	defer resp.Body.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(resp.StatusCode)
	fl.Flush()
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush()
		}
		if err != nil {
			return // io.EOF on clean close; anything else ends the proxy too
		}
	}
}

func (s *RouterServer) handlePreferenceAdd(w http.ResponseWriter, r *http.Request) {
	s.handlePreference(w, r, s.router.AddPreference)
}

func (s *RouterServer) handlePreferenceRetract(w http.ResponseWriter, r *http.Request) {
	s.handlePreference(w, r, s.router.RetractPreference)
}

func (s *RouterServer) handlePreference(w http.ResponseWriter, r *http.Request, apply func(user, attr, better, worse string) error) {
	var req preferenceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if err := apply(req.User, req.Attribute, req.Better, req.Worse); err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *RouterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.router.FleetStats())
}

func (s *RouterServer) handleClusters(w http.ResponseWriter, r *http.Request) {
	cl := s.router.Clusters()
	if cl == nil {
		cl = [][]string{}
	}
	writeJSON(w, cl)
}

func (s *RouterServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.router.Snapshot(); err != nil {
		s.routerError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "ok", "storage": s.router.StorageStats()})
}

func (s *RouterServer) handleStorageStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.router.StorageStats())
}

func (s *RouterServer) handleUnsupported(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotImplemented,
		"%s is a per-partition endpoint: followers replicate from their partition's primary, not the router", r.URL.Path)
}

func (s *RouterServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is 200 only when every partition's own /readyz answers:
// the fleet can accept writes (which fan to all partitions) and serve
// any user. The aggregated per-partition failures ride in the error
// body.
func (s *RouterServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.done:
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	if err := s.router.Ready(r.Context()); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}
