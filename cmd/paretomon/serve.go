package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// serveValues is the serve subcommand's parsed input. set records which
// flags the user spelled out, so validation can tell "defaulted" from
// "asserted" when checking contradictions.
type serveValues struct {
	addr      string
	opsAddr   string
	config    string
	objPath   string
	prefPath  string
	eng       engineFlags
	limit     int
	dataDir   string
	snapEvery int
	partSpec  string
	set       map[string]bool
}

// validateServe is the serve subcommand's contradiction table; it
// returns the one-line usage error, or nil. Kept pure for the unit
// tests in main_test.go.
func validateServe(v *serveValues) error {
	if v.config != "" {
		// The fleet file declares per-tenant datasets and engines; a
		// flag asserting either contradicts it.
		for _, f := range []string{"objects", "prefs", "algorithm", "h", "theta1", "theta2",
			"window", "workers", "limit", "data-dir", "snapshot-every", "partition"} {
			if v.set[f] {
				return fmt.Errorf("-config is exclusive with -%s (the fleet file declares per-tenant engines)", f)
			}
		}
		return nil
	}
	if v.objPath == "" || v.prefPath == "" {
		return fmt.Errorf("serve requires -objects and -prefs (or -config for a multi-tenant fleet)")
	}
	if v.snapEvery != 0 && v.dataDir == "" {
		return fmt.Errorf("-snapshot-every requires -data-dir (snapshots need a store)")
	}
	return nil
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	v := serveValues{}
	fs.StringVar(&v.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&v.opsAddr, "ops-addr", "", "operator listener address (metrics, pprof, health); empty = off")
	fs.StringVar(&v.config, "config", "", "fleet config file (YAML or JSON): serve a multi-tenant fleet instead of one dataset")
	fs.StringVar(&v.objPath, "objects", "", "objects CSV path")
	fs.StringVar(&v.prefPath, "prefs", "", "preference profiles JSON path")
	v.eng.register(fs)
	fs.IntVar(&v.limit, "limit", 0, "boot-ingest at most N dataset objects (0 = all)")
	fs.StringVar(&v.dataDir, "data-dir", "", "durable state directory (WAL + snapshots)")
	fs.IntVar(&v.snapEvery, "snapshot-every", 0, "snapshot after every N WAL records (0 = explicit POST /snapshot only)")
	fs.StringVar(&v.partSpec, "partition", "", "serve one consistent-hash slice i/n of the community (e.g. 1/3)")
	_ = fs.Parse(args)
	v.set = setFlags(fs)
	if err := validateServe(&v); err != nil {
		failf("%v", err)
	}
	if v.config != "" {
		serveFleet(&v)
		return
	}
	serveSingle(&v)
}

// setFlags collects the names the user explicitly set.
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// serveFleet boots a multi-tenant fleet from the declarative config:
// registry under cfg.Root, every declared tenant ensured (existing ones
// keep their data, adopt the config's token and quotas), the whole API
// namespaced per tenant behind TenantServer, admin CRUD on
// /admin/tenants, metrics on GET /metrics of both listeners.
func serveFleet(v *serveValues) {
	cfg, err := tenant.LoadConfig(v.config)
	check(err)
	if v.set["addr"] || cfg.Listen == "" {
		cfg.Listen = v.addr
	}
	if v.set["ops-addr"] {
		cfg.OpsListen = v.opsAddr
	}
	tel := telemetry.NewRegistry()
	reg, err := tenant.Open(cfg.Root, tenant.WithTelemetry(tel))
	check(err)
	for _, spec := range cfg.Tenants {
		created, err := reg.Ensure(spec)
		check(err)
		if created {
			fmt.Fprintf(os.Stderr, "tenant %q: created\n", spec.Name)
		} else {
			fmt.Fprintf(os.Stderr, "tenant %q: recovered (config token/quotas applied)\n", spec.Name)
		}
	}
	opts := []server.TenantOption{server.WithMetrics(tel)}
	if cfg.AdminToken != "" {
		opts = append(opts, server.WithAdminToken(cfg.AdminToken))
	}
	if cfg.DefaultTenant != "" {
		opts = append(opts, server.WithDefaultTenant(cfg.DefaultTenant))
	}
	srv := server.NewTenantServer(reg, opts...)
	fmt.Fprintf(os.Stderr, "serving %d tenant(s) on %s\n", len(reg.Names()), cfg.Listen)
	runServer(cfg.Listen, srv, func() error {
		err := srv.Close()
		if cerr := reg.Close(); err == nil {
			err = cerr
		}
		return err
	}, opsServer(cfg.OpsListen, tel))
}

// serveSingle loads the dataset through the public facade, replays up
// to limit objects as one batch, and exposes the monitor as a REST +
// SSE service. With -data-dir the monitor is durable: a restart
// recovers the previous incarnation's exact state and only the CSV
// rows it does not already hold are replayed. With -partition i/n the
// community is cut down to the slice the consistent-hash plan assigns
// to partition i of n.
func serveSingle(v *serveValues) {
	com, rows := loadDataset(v.objPath, v.prefPath)
	if v.partSpec != "" {
		idx, n := parsePartition(v.partSpec)
		plan, err := partition.NewPlan(n, 0)
		check(err)
		total := com.Len()
		com = com.Subset(func(name string) bool { return plan.Owner(name) == idx })
		fmt.Fprintf(os.Stderr, "partition %d/%d: %d of %d users\n", idx, n, com.Len(), total)
	}
	opts := engineOptions(&v.eng)
	var mon *paretomon.Monitor
	var err error
	if v.dataDir != "" {
		if v.snapEvery > 0 {
			opts = append(opts, paretomon.WithSnapshotEvery(v.snapEvery))
		}
		mon, err = paretomon.Open(com, v.dataDir, opts...)
	} else {
		mon, err = paretomon.NewMonitor(com, opts...)
	}
	check(err)
	n := len(rows)
	if v.limit > 0 && v.limit < n {
		n = v.limit
	}
	// A recovered monitor holds some prefix of the CSV rows (under stable
	// names o1, o2, ...) plus whatever clients ingested over HTTP;
	// BootIngest ingests the rows past the prefix it recorded. (Clients
	// should avoid the reserved o<N> names.)
	if recovered := mon.ObjectCount(); recovered > 0 {
		fmt.Fprintf(os.Stderr, "recovered %d objects from %s\n", recovered, v.dataDir)
	}
	replayed, err := tenant.BootIngest(mon, rows[:n])
	check(err)
	fmt.Fprintf(os.Stderr, "replayed %d objects for %d users; serving on %s\n",
		replayed, com.Len(), v.addr)
	runServer(v.addr, server.New(mon), mon.Close, singleOps(v.opsAddr, mon))
}

// followValues is the follow subcommand's parsed input.
type followValues struct {
	addr     string
	opsAddr  string
	primary  string
	objPath  string
	prefPath string
	eng      engineFlags
}

// validateFollow is follow's contradiction table (pure, unit-tested).
// Durability and partitioning flags simply do not exist here — a
// follower replicates the primary's log and owns no store of its own —
// so the old -follow/-data-dir and -follow/-partition conflicts are
// unrepresentable rather than checked.
func validateFollow(v *followValues) error {
	if v.primary == "" {
		return fmt.Errorf("follow requires -primary (the URL whose changefeed to replicate)")
	}
	if v.objPath == "" || v.prefPath == "" {
		return fmt.Errorf("follow requires -objects and -prefs (schema and base community, matching the primary's)")
	}
	return nil
}

// cmdFollow starts a read-only follower: the monitor bootstraps from
// the primary's newest snapshot, tails its WAL changefeed, and serves
// the full read API locally while writes are answered 403. The dataset
// supplies only the schema and base community; no rows are
// boot-ingested — state streams in over the changefeed.
func cmdFollow(args []string) {
	fs := flag.NewFlagSet("follow", flag.ExitOnError)
	v := followValues{}
	fs.StringVar(&v.addr, "addr", ":8081", "HTTP listen address")
	fs.StringVar(&v.opsAddr, "ops-addr", "", "operator listener address (metrics, pprof, health); empty = off")
	fs.StringVar(&v.primary, "primary", "", "primary base URL to replicate (required)")
	fs.StringVar(&v.objPath, "objects", "", "objects CSV path (schema source; required)")
	fs.StringVar(&v.prefPath, "prefs", "", "preference profiles JSON path (required)")
	v.eng.register(fs)
	_ = fs.Parse(args)
	if err := validateFollow(&v); err != nil {
		failf("%v", err)
	}
	com, _ := loadDataset(v.objPath, v.prefPath)
	mon, err := paretomon.OpenFollower(com, v.primary, engineOptions(&v.eng)...)
	check(err)
	rs := mon.Replication()
	fmt.Fprintf(os.Stderr, "following %s from seq %d; serving read API on %s\n",
		v.primary, rs.AppliedSeq, v.addr)
	runServer(v.addr, server.New(mon), mon.Close, singleOps(v.opsAddr, mon))
}

// cmdSnapshot forces a checked snapshot + prune on a running durable
// server (POST /snapshot) and prints the post-snapshot storage
// footprint — the pre-restart ritual, scriptable.
func cmdSnapshot(args []string) {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	url := fs.String("url", "", "server base URL (required)")
	timeout := fs.Duration("timeout", 5*time.Minute, "request timeout (a large store takes a while)")
	_ = fs.Parse(args)
	if *url == "" {
		failf("snapshot requires -url")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	postRelay(ctx, "server", strings.TrimRight(*url, "/")+"/snapshot", "{}")
}

// loadDataset opens the cmd/datagen pair through the public facade.
func loadDataset(objPath, prefPath string) (*paretomon.Community, [][]string) {
	of, err := os.Open(objPath)
	check(err)
	pf, err := os.Open(prefPath)
	check(err)
	com, rows, err := paretomon.LoadCommunity(of, pf)
	check(err)
	check(of.Close())
	check(pf.Close())
	return com, rows
}

// engineOptions translates the engine flags to monitor options.
func engineOptions(e *engineFlags) []paretomon.Option {
	opts := []paretomon.Option{
		paretomon.WithBranchCut(e.h),
		paretomon.WithWindow(e.win),
		paretomon.WithWorkers(e.workers),
	}
	switch e.alg {
	case "baseline":
		opts = append(opts, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	case "ftv":
		opts = append(opts, paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify))
	case "ftva":
		opts = append(opts,
			paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerifyApprox),
			paretomon.WithMeasure(paretomon.MeasureVectorWeightedJaccard),
			paretomon.WithThetas(e.theta1, e.theta2))
	default:
		failf("unknown algorithm %q", e.alg)
	}
	return opts
}

// singleOps builds the operator listener for a single-monitor process:
// the same surface the fleet gets, with the monitor's series under the
// fixed tenant label "default".
func singleOps(addr string, mon *paretomon.Monitor) *http.Server {
	if addr == "" {
		return nil
	}
	tel := telemetry.NewRegistry()
	tel.RegisterCollector(func(e *telemetry.Emitter) {
		tenant.CollectMonitor(e, "default", mon)
	})
	return opsServer(addr, tel)
}
