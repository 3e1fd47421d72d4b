package tenant

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const fleetYAML = `
listen: ":8080"
ops_listen: ":7171"
admin_token: hunter2
root: data
tenants:
  - name: alpha
    token: tok-a
    persist: true
    window: 64
    schema: [price, rating]
    users:
      - name: u0
        preferences:
          - attribute: price
            better: low
            worse: high
    quotas:
      max_objects: 10
      max_users: 4
      max_subscriptions: 2
      max_requests_per_sec: 50
  - name: beta
    algorithm: baseline
    objects_csv: objs.csv
    prefs_json: prefs.json
`

const fleetJSON = `{
  "listen": ":8080",
  "ops_listen": ":7171",
  "admin_token": "hunter2",
  "root": "data",
  "tenants": [
    {
      "name": "alpha",
      "token": "tok-a",
      "persist": true,
      "window": 64,
      "schema": ["price", "rating"],
      "users": [
        {"name": "u0", "preferences": [{"attribute": "price", "better": "low", "worse": "high"}]}
      ],
      "quotas": {"max_objects": 10, "max_users": 4, "max_subscriptions": 2, "max_requests_per_sec": 50}
    },
    {"name": "beta", "algorithm": "baseline", "objects_csv": "objs.csv", "prefs_json": "prefs.json", "quotas": {}}
  ]
}`

// The YAML subset and JSON spellings of the same fleet must decode to
// the same config — one coercion path, two syntaxes.
func TestParseConfigYAMLAndJSONAgree(t *testing.T) {
	fromYAML, err := ParseConfig([]byte(fleetYAML))
	if err != nil {
		t.Fatalf("yaml: %v", err)
	}
	fromJSON, err := ParseConfig([]byte(fleetJSON))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Errorf("decoded configs differ:\n yaml: %+v\n json: %+v", fromYAML, fromJSON)
	}
	if fromYAML.Tenants[0].Role != RolePrimary || fromYAML.Tenants[0].Algorithm != "ftv" {
		t.Errorf("defaults not filled: %+v", fromYAML.Tenants[0])
	}
}

func TestParseConfigRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		"listen: \":1\"\nroot: d\nbogus_key: 1\ntenants: []",
		`{"listen": ":1", "root": "d", "bogus_key": 1, "tenants": []}`,
	} {
		if _, err := ParseConfig([]byte(doc)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("unknown field accepted (err=%v) in %q", err, doc)
		}
	}
}

func TestLoadConfigResolvesRelativePaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.yaml")
	if err := os.WriteFile(path, []byte(fleetYAML), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if cfg.Root != filepath.Join(dir, "data") {
		t.Errorf("root = %q, not resolved against config dir", cfg.Root)
	}
	if cfg.Tenants[1].ObjectsCSV != filepath.Join(dir, "objs.csv") {
		t.Errorf("objects_csv = %q, not resolved", cfg.Tenants[1].ObjectsCSV)
	}
	if cfg.Tenants[0].ObjectsCSV != "" {
		t.Errorf("empty path resolved to %q", cfg.Tenants[0].ObjectsCSV)
	}
}

func TestSpecValidate(t *testing.T) {
	inline := func(s Spec) Spec {
		s.Schema = []string{"a"}
		s.Users = []UserSpec{{Name: "u0"}}
		return s
	}
	cases := []struct {
		name string
		spec Spec
		frag string // "" means valid
	}{
		{"minimal inline", inline(Spec{Name: "t1"}), ""},
		{"router", Spec{Name: "r", Role: RoleRouter, Fleet: []string{"http://a", "http://b"}}, ""},
		{"follower", inline(Spec{Name: "f", Role: RoleFollower, PrimaryURL: "http://p"}), ""},
		{"bad name", inline(Spec{Name: "-oops"}), "tenant name"},
		{"empty name", inline(Spec{Name: ""}), "tenant name"},
		{"slash name", inline(Spec{Name: "a/b"}), "tenant name"},
		{"unknown role", inline(Spec{Name: "t", Role: "replica"}), "unknown role"},
		{"unknown algorithm", inline(Spec{Name: "t", Algorithm: "magic"}), "unknown algorithm"},
		{"primary with fleet", inline(Spec{Name: "t", Fleet: []string{"http://a"}}), "follower/router settings"},
		{"follower without primary", inline(Spec{Name: "t", Role: RoleFollower}), "requires primary_url"},
		{"persistent follower", inline(Spec{Name: "t", Role: RoleFollower, PrimaryURL: "http://p", Persist: true}), "cannot persist"},
		{"router without fleet", Spec{Name: "t", Role: RoleRouter}, "requires a fleet"},
		{"router with data", Spec{Name: "t", Role: RoleRouter, Fleet: []string{"http://a"}, Persist: true}, "owns no data"},
		{"no community", Spec{Name: "t"}, "community source"},
		{"both sources", inline(Spec{Name: "t", ObjectsCSV: "o", PrefsJSON: "p"}), "not both"},
		{"half files", Spec{Name: "t", ObjectsCSV: "o"}, "go together"},
		{"half inline", Spec{Name: "t", Schema: []string{"a"}}, "schema and at least one user"},
		{"negative quota", inline(Spec{Name: "t", Quotas: Quotas{MaxObjects: -1}}), "negative quota"},
		{"negative window", inline(Spec{Name: "t", Window: -1}), "negative engine setting"},
		{"negative branch cut", inline(Spec{Name: "t", BranchCut: -1}), "branch_cut"},
		{"NaN branch cut", inline(Spec{Name: "t", BranchCut: math.NaN()}), "branch_cut"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.frag == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v does not wrap ErrBadConfig", c.name, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
	}
}

// TestParseConfigRefusesNaNBranchCut: a NaN cut would reach
// paretomon.WithBranchCut, under which no similarity reaches the cut and
// every user becomes a singleton cluster. Both YAML spellings are refused.
func TestParseConfigRefusesNaNBranchCut(t *testing.T) {
	for _, v := range []string{".nan", "nan", "NaN"} {
		doc := `
listen: ":1"
root: d
tenants:
  - name: a
    branch_cut: ` + v + `
    schema: [x]
    users:
      - name: u0
`
		if _, err := ParseConfig([]byte(doc)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("branch_cut: %s: err %v, want ErrBadConfig", v, err)
		}
	}
}

func TestFleetConfigValidateDuplicateTenant(t *testing.T) {
	doc := `
listen: ":1"
root: d
tenants:
  - name: a
    schema: [x]
    users:
      - name: u0
  - name: a
    schema: [x]
    users:
      - name: u0
`
	if _, err := ParseConfig([]byte(doc)); err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Errorf("duplicate tenant accepted (err=%v)", err)
	}
}
