package tenant

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestParseYAMLDocument(t *testing.T) {
	doc := `
# fleet example
listen: ":8080"
root: /var/lib/pm   # trailing comment
admin_token: 's3cret'
tenants:
  - name: alpha
    window: 128
    persist: true
    schema: [price, rating]
    users:
      - name: u0
        preferences:
          - attribute: price
            better: low
            worse: high
    quotas:
      max_objects: 100
      max_requests_per_sec: 2.5
  - name: beta
    token: ~
`
	got, err := parseYAML([]byte(doc))
	if err != nil {
		t.Fatalf("parseYAML: %v", err)
	}
	want := map[string]any{
		"listen":      ":8080",
		"root":        "/var/lib/pm",
		"admin_token": "s3cret",
		"tenants": []any{
			map[string]any{
				"name":    "alpha",
				"window":  float64(128),
				"persist": true,
				"schema":  []any{"price", "rating"},
				"users": []any{
					map[string]any{
						"name": "u0",
						"preferences": []any{
							map[string]any{"attribute": "price", "better": "low", "worse": "high"},
						},
					},
				},
				"quotas": map[string]any{
					"max_objects":          float64(100),
					"max_requests_per_sec": 2.5,
				},
			},
			map[string]any{"name": "beta", "token": nil},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed tree mismatch:\n got: %#v\nwant: %#v", got, want)
	}
}

func TestParseYAMLScalars(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"k: null", nil},
		{"k: ~", nil},
		{"k:", nil},
		{"k: true", true},
		{"k: false", false},
		{"k: 42", float64(42)},
		{"k: -3", float64(-3)},
		{"k: 2.5", 2.5},
		{`k: "a # not a comment"`, "a # not a comment"},
		{`k: 'it''s'`, "it's"},
		{`k: "tab\tnewline\n"`, "tab\tnewline\n"},
		{"k: bare words here", "bare words here"},
		{"k: []", []any{}},
		{"k: [1, two, 'three three']", []any{float64(1), "two", "three three"}},
		{"k: {}", map[string]any{}},
	}
	for _, c := range cases {
		got, err := parseYAML([]byte(c.in))
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, map[string]any{"k": c.want}) {
			t.Errorf("%q = %#v, want k=%#v", c.in, got, c.want)
		}
	}
}

func TestParseYAMLRejectsUnsupported(t *testing.T) {
	cases := []struct {
		name, in, frag string
	}{
		{"tab", "k:\n\tv: 1", "tab"},
		{"multidoc", "---\nk: 1", "multi-document"},
		{"anchor", "k: &a 1", "anchors"},
		{"blockscalar", "k: |\n  text", "block scalars"},
		{"flowmap", "k: {a: 1}", "flow mappings"},
		{"nestedflow", "k: [[1], 2]", "nested flow"},
		{"dupkey", "k: 1\nk: 2", "duplicate key"},
		{"badindent", "k:\n   a: 1\n  b: 2", "indent"},
		{"seqinmap", "k: 1\n- item", "sequence item"},
		{"unterminated", `k: "oops`, "unterminated"},
	}
	for _, c := range cases {
		_, err := parseYAML([]byte(c.in))
		if err == nil {
			t.Errorf("%s: parsed %q without error", c.name, c.in)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", c.name, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error %q has no line number", c.name, err)
		}
	}
}

// FuzzParseConfig holds ParseConfig to three promises on arbitrary input:
// it never panics, every refusal wraps ErrBadConfig, and a YAML document
// it accepts means what its JSON rendering means — marshalled and parsed
// again through the JSON path, it comes back DeepEqual.
func FuzzParseConfig(f *testing.F) {
	example, err := os.ReadFile("../../examples/fleet/fleet.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(example),
		fleetYAML,
		"listen: \":1\"\nroot: r\ntenants:\n  - name: r0\n    role: router\n    fleet: [\"http://a\", 'b']\n    schema: []\n",
		"listen: x\nroot: y\ntenants: []\n",
		`{"listen":":8080","root":"d","tenants":[{"name":"a","schema":["x"],"users":[{"name":"u"}]}]}`,
		"k: [[1], 2]",
		"- a\n- b: c\n  d: 'e''f'",
		"listen: \"\\u00e9\"\nroot: ~\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
			return
		}
		if strings.HasPrefix(strings.TrimLeft(string(data), " \t\r\n"), "{") {
			return // the JSON path already
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("an accepted config does not marshal: %v", err)
		}
		again, err := ParseConfig(raw)
		if err != nil {
			t.Fatalf("an accepted YAML config, as JSON %s, is refused: %v", raw, err)
		}
		dropEmptyLists(cfg)
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("YAML and its JSON rendering parse differently:\n yaml: %#v\n json: %#v", cfg, again)
		}
	})
}

// dropEmptyLists makes an explicit empty list absent, as omitempty does on
// the way to JSON: Validate and the engines read the two alike.
func dropEmptyLists(c *FleetConfig) {
	for i := range c.Tenants {
		s := &c.Tenants[i]
		if len(s.Fleet) == 0 {
			s.Fleet = nil
		}
		if len(s.Schema) == 0 {
			s.Schema = nil
		}
		if len(s.Users) == 0 {
			s.Users = nil
		}
		for j := range s.Users {
			if len(s.Users[j].Preferences) == 0 {
				s.Users[j].Preferences = nil
			}
		}
	}
}
