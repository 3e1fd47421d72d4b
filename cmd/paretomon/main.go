// Command paretomon is the operator CLI for continuous Pareto-frontier
// dissemination. It is organized as subcommands:
//
//	paretomon serve     -objects o.csv -prefs p.json -addr :8080 [...]
//	paretomon serve     -config fleet.yaml [-addr :8080] [-ops-addr :7171]
//	paretomon follow    -primary http://primary:8080 -objects o.csv -prefs p.json -addr :8081
//	paretomon route     -fleet http://p0:8080,http://p1:8080 -addr :9090 [-router-id r1]
//	paretomon rebalance -router http://router:9090 -fleet url1,...,urlM
//	paretomon reconcile -router http://router:9090
//	paretomon snapshot  -url http://server:8080
//	paretomon replay    -objects o.csv -prefs p.json [-algorithm ftv] [...]
//	paretomon bench     -objects o.csv -prefs p.json [-algorithm ftv] [...]
//
// serve runs one monitor as a REST + SSE service (durable with
// -data-dir, partitioned with -partition), or — with -config — a whole
// multi-tenant fleet from a declarative YAML/JSON file: many isolated
// communities in one process, each namespaced under /t/{tenant}/...,
// bearer-authenticated and quota-enforced, with tenant CRUD on
// /admin/tenants. follow runs a read-only replica, route the
// consistent-hash front door over a partition fleet, rebalance and
// reconcile drive live fleet reshapes through a running router,
// snapshot forces a checked snapshot on a durable server, replay runs
// the offline dataset replay, and bench times it.
//
// -ops-addr (serve, follow, route) opens the operator listener on a
// second address: GET /metrics (Prometheus text format), /healthz, and
// the Go pprof surface under /debug/pprof/. Keeping it off the main
// listener keeps profiling and scrape traffic away from tenant auth.
//
// Run `paretomon help` for the full flag reference of each subcommand.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its entry point. A subcommand exits
// the process itself on a usage or runtime error.
var commands = map[string]func(args []string){
	"serve":     cmdServe,
	"follow":    cmdFollow,
	"route":     cmdRoute,
	"rebalance": cmdRebalance,
	"reconcile": cmdReconcile,
	"snapshot":  cmdSnapshot,
	"replay":    cmdReplay,
	"bench":     cmdBench,
}

// run dispatches args to a subcommand and returns the exit status: 2
// with the overview on stderr when there is no command or an unknown
// one — a flag where the command belongs included.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	if cmd == "help" || cmd == "--help" {
		usage(stdout)
		return 0
	}
	f, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "paretomon: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	f(rest)
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `paretomon — continuous Pareto-frontier dissemination

Commands:
  serve      run a monitor (or, with -config, a multi-tenant fleet) as an HTTP service
  follow     run a read-only follower replicating a primary
  route      run the consistent-hash router over a partition fleet
  rebalance  reshape a running fleet onto a new partition list (via its router)
  reconcile  repair a running fleet's ring after a crashed migration
  snapshot   force a checked snapshot on a durable server
  replay     replay a dataset offline and print deliveries
  bench      replay a dataset offline and report throughput
  help       print this overview

Run 'paretomon <command> -h' for the command's flags.
`)
}

// failf prints a one-line usage error and exits 2 — contradictory or
// missing flags are caller mistakes, not runtime failures.
func failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paretomon: "+format+"\n", args...)
	os.Exit(2)
}

// closableHandler is what runServer serves: a mux whose Close cancels
// in-flight streams (server.Server, RouterServer, TenantServer).
type closableHandler interface {
	http.Handler
	Close() error
}

// runServer serves until SIGINT/SIGTERM, then shuts down gracefully:
// in-flight SSE and changefeed streams are cancelled (srv.Close) so
// clients and downstream followers disconnect cleanly, the listener
// drains, and cleanup runs (closing the monitor or registry —
// releasing store locks and, on a follower, stopping the feed tail).
// ops, when non-nil, is the operator listener, shut down alongside.
func runServer(addr string, srv closableHandler, cleanup func() error, ops *http.Server) {
	httpSrv := &http.Server{Addr: addr, Handler: srv}
	if ops != nil {
		go func() {
			if err := ops.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "paretomon: ops listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ops listener (metrics, pprof) on %s\n", ops.Addr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "paretomon: shutting down")
		_ = srv.Close() // cancel in-flight streams first, or Shutdown hangs on them
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		if ops != nil {
			_ = ops.Shutdown(ctx)
		}
	}()
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		check(err)
	}
	<-done
	check(cleanup())
}

// opsServer builds the operator listener: Prometheus scrape, health
// probe, and the pprof surface. pprof handlers are registered on this
// private mux explicitly — never on http.DefaultServeMux — so the main
// API listener exposes nothing of the sort.
func opsServer(addr string, tel *telemetry.Registry) *http.Server {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
	})
	if tel != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = tel.WritePrometheus(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux}
}

// splitURLs parses a comma-separated URL list, dropping empties.
func splitURLs(s string) []string {
	var list []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			list = append(list, u)
		}
	}
	return list
}

// parsePartition parses "i/n" with 0 <= i < n.
func parsePartition(spec string) (idx, n int) {
	i := strings.IndexByte(spec, '/')
	if i > 0 {
		idx, err1 := strconv.Atoi(spec[:i])
		n, err2 := strconv.Atoi(spec[i+1:])
		if err1 == nil && err2 == nil && n > 0 && idx >= 0 && idx < n {
			return idx, n
		}
	}
	failf("bad -partition %q (want i/n with 0 <= i < n)", spec)
	return 0, 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paretomon:", err)
		os.Exit(1)
	}
}

// postRelay POSTs a JSON body to url and prints the reply (at most
// 1 MiB) on 200; any other status prints "<who> replied <status>: <msg>"
// and exits 1.
func postRelay(ctx context.Context, who, url, body string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	check(err)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	check(err)
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	check(err)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "paretomon: %s replied %s: %s\n", who, resp.Status, strings.TrimSpace(string(out)))
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(out)))
}
