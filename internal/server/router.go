package server

import (
	"context"
	"net/http"
	"net/url"

	"repro/internal/partition"
)

// RouterServer is an http.Handler serving a partitioned fleet through a
// partition.Router. It serves the shared route table (see Server) over
// the Router from the same handlers as a Server over one monitor —
// producers and consumers cannot tell a router from a single monitor —
// with neither a quota gate nor a ring-version fence in front of it. Its
// own routes merge or proxy across the partitions:
//
//   - GET /subscribe/{user} and /deltas/{user} proxy the SSE stream of
//     the user's owning partition verbatim.
//   - GET /stats reports the merged counters plus a "partitions" array
//     with each partition's own view (workers and shards per partition).
//   - POST /snapshot snapshots every partition; GET /storage/stats
//     reports each partition's footprint and totals.
//   - GET /readyz is 200 only when every partition's own /readyz is.
//   - POST /rebalance and POST /reconcile drive the fleet's ring;
//     GET /ring reports it.
//
// The per-partition replication endpoints (/wal, /snapshot/latest) are
// 501 on the router: followers replicate from their partition's primary
// directly — the replication tree hangs off partitions, not the router
// (see docs/PARTITIONING.md).
type RouterServer struct {
	facade
	router *partition.Router
}

// NewRouter wraps a partition.Router in the HTTP surface.
func NewRouter(rt *partition.Router) *RouterServer {
	s := &RouterServer{router: rt}
	s.init(rt, nil)
	s.mux.HandleFunc("GET /subscribe/{user}", s.proxySSE("/subscribe/"))
	s.mux.HandleFunc("GET /deltas/{user}", s.proxySSE("/deltas/"))
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /storage/stats", s.handleStorageStats)
	s.mux.HandleFunc("GET /snapshot/latest", s.handleUnsupported)
	s.mux.HandleFunc("GET /wal", s.handleUnsupported)
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
	if !decodeJSON(w, r, &req) {
		return
	}
	rep, err := s.router.Rebalance(r.Context(), req.URLs, partition.RebalanceOptions{BatchSize: req.BatchSize})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, rep)
}

// handleReconcile runs a Reconcile pass: crash repair for interrupted
// migrations (see partition.Router.Reconcile).
func (s *RouterServer) handleReconcile(w http.ResponseWriter, r *http.Request) {
	rep, err := s.router.Reconcile(r.Context())
	if err != nil {
		writeError(w, err)
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

// proxySSE returns the handler of prefix+{user}: it proxies that SSE
// stream from the user's owning partition verbatim — the owner
// evaluates the user's frontier, so its stream IS the user's stream,
// byte-identical to what a single monitor would send — flushing every
// read so events propagate immediately. The stream ends when the client
// disconnects, the partition closes it, or RouterServer.Close.
func (s *RouterServer) proxySSE(prefix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user := r.PathValue("user")
		owner := s.router.Owner(user)
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
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+prefix+url.PathEscape(user), nil)
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
}

func (s *RouterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.router.FleetStats())
}

func (s *RouterServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.router.Snapshot(); err != nil {
		writeError(w, err)
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

// handleReadyz is 200 only when every partition's own /readyz answers:
// the fleet can accept writes (which fan to all partitions) and serve
// any user. The aggregated per-partition failures ride in the error
// body.
func (s *RouterServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	writeReady(w, s.done, func() error { return s.router.Ready(r.Context()) })
}
