package main

import (
	"math"
	"strings"
	"testing"

	paretomon "repro"
)

// TestValidateServe exercises serve's contradiction table: -config is
// exclusive with every per-tenant dataset/engine flag, and the
// single-monitor mode needs a dataset.
func TestValidateServe(t *testing.T) {
	cases := []struct {
		name string
		v    serveValues
		want string // "" = valid
	}{
		{"fleet config alone", serveValues{config: "fleet.yaml"}, ""},
		{"fleet config with addr override", serveValues{config: "fleet.yaml", addr: ":9999", set: map[string]bool{"addr": true}}, ""},
		{"config vs objects", serveValues{config: "fleet.yaml", objPath: "o.csv", set: map[string]bool{"objects": true}},
			"-config is exclusive with -objects"},
		{"config vs data-dir", serveValues{config: "fleet.yaml", dataDir: "d", set: map[string]bool{"data-dir": true}},
			"-config is exclusive with -data-dir"},
		{"config vs partition", serveValues{config: "fleet.yaml", partSpec: "0/2", set: map[string]bool{"partition": true}},
			"-config is exclusive with -partition"},
		{"config vs algorithm", serveValues{config: "fleet.yaml", set: map[string]bool{"algorithm": true}},
			"-config is exclusive with -algorithm"},
		{"single-monitor ok", serveValues{objPath: "o.csv", prefPath: "p.json"}, ""},
		{"missing prefs", serveValues{objPath: "o.csv"}, "serve requires -objects and -prefs"},
		{"missing both", serveValues{}, "serve requires -objects and -prefs"},
		{"snapshot-every without data-dir", serveValues{objPath: "o", prefPath: "p", snapEvery: 100},
			"-snapshot-every requires -data-dir"},
		{"snapshot-every with data-dir", serveValues{objPath: "o", prefPath: "p", snapEvery: 100, dataDir: "d"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkValidation(t, validateServe(&tc.v), tc.want)
		})
	}
}

func TestValidateFollow(t *testing.T) {
	cases := []struct {
		name string
		v    followValues
		want string
	}{
		{"complete", followValues{primary: "http://p:8080", objPath: "o", prefPath: "p"}, ""},
		{"missing primary", followValues{objPath: "o", prefPath: "p"}, "follow requires -primary"},
		{"missing dataset", followValues{primary: "http://p:8080"}, "follow requires -objects and -prefs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkValidation(t, validateFollow(&tc.v), tc.want)
		})
	}
}

func TestValidateRoute(t *testing.T) {
	cases := []struct {
		name string
		v    routeValues
		want string
	}{
		{"complete", routeValues{fleet: "http://a,http://b"}, ""},
		{"missing fleet", routeValues{}, "route requires -fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkValidation(t, validateRoute(&tc.v), tc.want)
		})
	}
}

func TestValidateRebalance(t *testing.T) {
	cases := []struct {
		name string
		v    rebalanceValues
		want string
	}{
		{"rebalance ok", rebalanceValues{router: "http://r", fleet: "http://a,http://b"}, ""},
		{"rebalance without router", rebalanceValues{fleet: "http://a"}, "rebalance requires -router"},
		{"rebalance without fleet", rebalanceValues{router: "http://r"}, "rebalance requires -fleet"},
		{"reconcile ok", rebalanceValues{router: "http://r", reconcile: true}, ""},
		{"reconcile without router", rebalanceValues{reconcile: true}, "reconcile requires -router"},
		{"reconcile with fleet", rebalanceValues{router: "http://r", fleet: "http://a", reconcile: true},
			"reconcile takes no -fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkValidation(t, validateRebalance(&tc.v), tc.want)
		})
	}
}

// TestRunOverview pins the dispatcher's own answers: the overview on
// stdout with status 0 when asked for, on stderr with status 2 when no
// command or an unknown one is given.
func TestRunOverview(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		code      int
		stdout    bool   // overview on stdout (else stderr)
		errPrefix string // stderr's first line, "" = none
	}{
		{"no arguments", nil, 2, false, ""},
		{"help", []string{"help"}, 0, true, ""},
		{"--help", []string{"--help"}, 0, true, ""},
		{"misspelled command", []string{"serv", "-addr", ":8080"}, 2, false, `paretomon: unknown command "serv"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit status %d, want %d", code, tc.code)
			}
			over, other := stderr.String(), stdout.String()
			if tc.stdout {
				over, other = other, over
			}
			if !strings.Contains(over, "Commands:") {
				t.Errorf("overview missing from %q", over)
			}
			if other != "" {
				t.Errorf("unexpected output %q", other)
			}
			if !strings.HasPrefix(stderr.String(), tc.errPrefix) {
				t.Errorf("stderr = %q, want prefix %q", stderr.String(), tc.errPrefix)
			}
		})
	}
}

// TestRunRefusesFlagSpellings: the pre-subcommand CLI is gone, so every
// flag it bound, given where the command belongs, is an unknown command
// — status 2 and the overview — and never starts anything.
func TestRunRefusesFlagSpellings(t *testing.T) {
	for _, flag := range []string{
		"objects", "prefs", "limit", "quiet", "serve", "data-dir",
		"snapshot-every", "follow", "partition", "route", "router-id",
		"lease-ttl", "migrate-timeout", "rebalance", "router", "reconcile",
	} {
		t.Run(flag, func(t *testing.T) {
			var stdout, stderr strings.Builder
			args := []string{"-" + flag, "x", "-objects", "o.csv", "-prefs", "p.json"}
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit status %d, want 2", code)
			}
			want := "paretomon: unknown command \"-" + flag + "\"\n"
			if !strings.HasPrefix(stderr.String(), want) || !strings.Contains(stderr.String(), "Commands:") {
				t.Errorf("stderr = %q, want %q then the overview", stderr.String(), want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want empty", stdout.String())
			}
		})
	}
}

func TestSplitURLs(t *testing.T) {
	got := splitURLs(" http://a:1 ,, http://b:2,")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("splitURLs = %q", got)
	}
	if splitURLs("") != nil {
		t.Errorf("splitURLs(\"\") = %q, want nil", splitURLs(""))
	}
}

// checkValidation asserts err matches want: nil for "", otherwise a
// message with want as prefix (tables quote the distinguishing head of
// long messages once, in full, and prefix-match elsewhere).
// TestCheckEngine: every subcommand builds its monitor from
// engineOptions through NewMonitor, which must refuse a NaN or negative
// branch cut, a negative window or worker count, and θs out of range for
// ftva, and let the defaults through.
func TestCheckEngine(t *testing.T) {
	defaults := engineFlags{alg: "ftv", h: 3.3, theta1: 400, theta2: 0.5, win: 0, workers: 1}
	com := paretomon.NewCommunity(paretomon.NewSchema("a"))
	if _, err := com.AddUser("u0"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(e *engineFlags)
		want string // "" = valid
	}{
		{"defaults", func(e *engineFlags) {}, ""},
		{"baseline", func(e *engineFlags) { e.alg = "baseline" }, ""},
		{"ftva", func(e *engineFlags) { e.alg = "ftva" }, ""},
		{"window", func(e *engineFlags) { e.win = 400 }, ""},
		{"all workers", func(e *engineFlags) { e.workers = 0 }, ""},
		{"NaN branch cut", func(e *engineFlags) { e.h = math.NaN() }, "paretomon: invalid configuration: bad option value: WithBranchCut(NaN)"},
		{"negative branch cut", func(e *engineFlags) { e.h = -1 }, "paretomon: invalid configuration: bad option value: WithBranchCut(-1)"},
		{"negative window", func(e *engineFlags) { e.win = -5 }, "paretomon: invalid configuration: bad option value: WithWindow(-5)"},
		{"negative workers", func(e *engineFlags) { e.workers = -3 }, "paretomon: invalid configuration: bad option value: WithWorkers(-3)"},
		{"ftva theta1", func(e *engineFlags) { e.alg, e.theta1, e.theta2 = "ftva", 0, 7 }, "paretomon: invalid configuration: bad option value: WithThetas: theta1"},
		{"ftva theta2", func(e *engineFlags) { e.alg, e.theta2 = "ftva", 7 }, "paretomon: invalid configuration: bad option value: WithThetas: theta2"},
		{"θs ignored outside ftva", func(e *engineFlags) { e.theta1, e.theta2 = 0, 7 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := defaults
			tc.edit(&e)
			mon, err := paretomon.NewMonitor(com, engineOptions(&e)...)
			if err == nil {
				mon.Close()
			}
			checkValidation(t, err, tc.want)
		})
	}
}

func checkValidation(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("no error, want %q", want)
	}
	if !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error = %q, want prefix %q", err, want)
	}
}
