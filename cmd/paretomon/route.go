package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/partition"
	"repro/internal/server"
)

// routeValues is the route subcommand's parsed input.
type routeValues struct {
	addr      string
	opsAddr   string
	fleet     string
	routerID  string
	leaseTTL  time.Duration
	migrateTO time.Duration
}

// validateRoute is route's contradiction table (pure, unit-tested).
func validateRoute(v *routeValues) error {
	if v.fleet == "" {
		return fmt.Errorf("route requires -fleet (comma-separated partition URLs)")
	}
	return nil
}

// cmdRoute runs the consistent-hash front door over a partition fleet:
// every request is forwarded to the partition that owns its user (or
// fanned out, for frontier-wide reads), and the router is the
// coordinator for live rebalances. A second router with the same
// -router-id set is a hot standby behind the lease.
func cmdRoute(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	v := routeValues{}
	fs.StringVar(&v.addr, "addr", ":9090", "HTTP listen address")
	fs.StringVar(&v.opsAddr, "ops-addr", "", "operator listener address (health, pprof); empty = off")
	fs.StringVar(&v.fleet, "fleet", "", "comma-separated partition base URLs (required)")
	fs.StringVar(&v.routerID, "router-id", "", "router identity for HA lease fencing (empty = single router)")
	fs.DurationVar(&v.leaseTTL, "lease-ttl", partition.DefaultLeaseTTL, "router lease TTL for HA fencing")
	fs.DurationVar(&v.migrateTO, "migrate-timeout", partition.DefaultMigrateTimeout, "per-user migration timeout during rebalance")
	_ = fs.Parse(args)
	if err := validateRoute(&v); err != nil {
		failf("%v", err)
	}
	urls := splitURLs(v.fleet)
	if len(urls) == 0 {
		failf("route requires -fleet (comma-separated partition URLs)")
	}
	rt, err := partition.New(partition.Config{
		URLs:           urls,
		RouterID:       v.routerID,
		LeaseTTL:       v.leaseTTL,
		MigrateTimeout: v.migrateTO,
	})
	check(err)
	// Adopt whatever ring the fleet already agrees on (a prior
	// incarnation may have rebalanced); failure is not fatal — the
	// static URL list stands until the first stale-version conflict.
	if rg, err := rt.RefreshRing(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "paretomon: ring fetch: %v (continuing; will adopt on first conflict)\n", err)
	} else if rg != nil {
		fmt.Fprintf(os.Stderr, "adopted ring version %d (%d partitions)\n", rg.Version, rg.Parts)
	}
	if v.routerID != "" {
		fmt.Fprintf(os.Stderr, "router %q: fleet write lease ttl %s\n", v.routerID, v.leaseTTL)
	}
	fmt.Fprintf(os.Stderr, "routing %d partition(s); serving on %s\n", len(urls), v.addr)
	runServer(v.addr, server.NewRouter(rt), rt.Close, opsServer(v.opsAddr, nil))
}

// rebalanceValues is the rebalance/reconcile pair's parsed input.
type rebalanceValues struct {
	router    string
	fleet     string
	reconcile bool
}

// validateRebalance is the contradiction table for rebalance and
// reconcile (pure, unit-tested).
func validateRebalance(v *rebalanceValues) error {
	if v.router == "" {
		if v.reconcile {
			return fmt.Errorf("reconcile requires -router (the running router coordinates the repair)")
		}
		return fmt.Errorf("rebalance requires -router (the running router coordinates the migration)")
	}
	if !v.reconcile && v.fleet == "" {
		return fmt.Errorf("rebalance requires -fleet (the target partition list)")
	}
	if v.reconcile && v.fleet != "" {
		return fmt.Errorf("reconcile takes no -fleet (it repairs the ring the fleet already agrees on)")
	}
	return nil
}

// cmdRebalance reshapes a running fleet onto a new partition list by
// driving the live migration through its router.
func cmdRebalance(args []string) {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	v := rebalanceValues{}
	fs.StringVar(&v.router, "router", "", "router base URL (required)")
	fs.StringVar(&v.fleet, "fleet", "", "comma-separated target partition URLs (required)")
	_ = fs.Parse(args)
	if err := validateRebalance(&v); err != nil {
		failf("%v", err)
	}
	runRebalance(v.router, splitURLs(v.fleet), false)
}

// cmdReconcile repairs a running fleet's ring after a crashed
// migration, through its router.
func cmdReconcile(args []string) {
	fs := flag.NewFlagSet("reconcile", flag.ExitOnError)
	v := rebalanceValues{reconcile: true}
	fs.StringVar(&v.router, "router", "", "router base URL (required)")
	_ = fs.Parse(args)
	if err := validateRebalance(&v); err != nil {
		failf("%v", err)
	}
	runRebalance(v.router, nil, true)
}

// runRebalance POSTs the rebalance (or reconcile) to a running router
// and relays its report. The running router must drive the reshape — it
// owns the write freeze that keeps each migration batch atomic against
// live traffic — which is why this is an HTTP client and not a second
// router. The call blocks until the fleet converges.
func runRebalance(routerURL string, urls []string, reconcile bool) {
	base := strings.TrimRight(routerURL, "/")
	var path, body string
	if reconcile {
		path, body = "/reconcile", "{}"
	} else {
		if len(urls) == 0 {
			failf("rebalance requires -fleet (the target partition list)")
		}
		b, err := json.Marshal(map[string]any{"urls": urls})
		check(err)
		path, body = "/rebalance", string(b)
		fmt.Fprintf(os.Stderr, "rebalancing fleet at %s onto %d partition(s)...\n", base, len(urls))
	}
	// No request timeout: a rebalance legitimately runs for minutes, and
	// interrupting the client does not interrupt the migration anyway.
	postRelay(context.Background(), "router", base+path, body)
}
