package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	paretomon "repro"
)

// Quotas bounds one tenant's resource consumption. Zero means
// unlimited for every field, so an empty quotas block is a valid
// "no limits" configuration.
type Quotas struct {
	// MaxUsers caps the alive community size (AddUser beyond it is
	// refused; RemoveUser frees capacity).
	MaxUsers int `json:"max_users,omitempty"`
	// MaxObjects caps the alive object count (Add/AddBatch beyond it
	// are refused atomically; RemoveObject and window expiry free
	// capacity).
	MaxObjects int `json:"max_objects,omitempty"`
	// MaxSubscriptions caps concurrently open SSE streams
	// (/subscribe and /deltas combined).
	MaxSubscriptions int `json:"max_subscriptions,omitempty"`
	// MaxRequestsPerSec rate-limits the tenant's HTTP requests with a
	// token bucket (burst = the rate, minimum 1). Non-integral rates
	// are honored by the refill arithmetic.
	MaxRequestsPerSec float64 `json:"max_requests_per_sec,omitempty"`
}

// UserSpec declares one community member in a tenant spec.
type UserSpec struct {
	Name        string     `json:"name"`
	Preferences []PrefSpec `json:"preferences,omitempty"`
}

// PrefSpec is one asserted preference tuple.
type PrefSpec struct {
	Attribute string `json:"attribute"`
	Better    string `json:"better"`
	Worse     string `json:"worse"`
}

// Tenant roles: a primary owns its data; a follower replicates a
// primary's changefeed read-only; a router fronts a partition fleet.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleRouter   = "router"
)

// Spec declares one tenant: identity, auth, engine configuration,
// community source, durability, and quotas. It is the unit both the
// declarative fleet config and the admin API exchange, and what the
// registry persists under <root>/tenants.json.
type Spec struct {
	// Name identifies the tenant in /t/{name}/... routes and names its
	// data directory; it must match [a-zA-Z0-9][a-zA-Z0-9_-]* so it is
	// path- and label-safe.
	Name string `json:"name"`
	// Token is the tenant's bearer token; empty means the tenant's
	// routes require no auth.
	Token string `json:"token,omitempty"`
	// Role is primary (default), follower (requires PrimaryURL) or
	// router (requires Fleet).
	Role string `json:"role,omitempty"`
	// PrimaryURL is the replicated primary for a follower tenant.
	PrimaryURL string `json:"primary_url,omitempty"`
	// Fleet lists the partition base URLs for a router tenant, in
	// -partition index order.
	Fleet []string `json:"fleet,omitempty"`

	// Engine configuration, named after the cmd/paretomon serve flags
	// but not defaulting like them: a zero field passes no option, so
	// it takes the library default (ftv, branch cut 0.55, GOMAXPROCS
	// workers, θ1/θ2 500/0.5) where serve's flags default to 3.3, 1 and
	// 400/0.5. Under ftva a θ1 given alone comes with θ2 = 0.5.
	Algorithm     string  `json:"algorithm,omitempty"` // baseline | ftv | ftva
	BranchCut     float64 `json:"branch_cut,omitempty"`
	Window        int     `json:"window,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	Theta1        int     `json:"theta1,omitempty"`
	Theta2        float64 `json:"theta2,omitempty"`
	Persist       bool    `json:"persist,omitempty"`
	SnapshotEvery int     `json:"snapshot_every,omitempty"`

	// Community source: either dataset files in the cmd/datagen formats
	// (users named u0, u1, ... and the objects boot-ingested), or an
	// inline schema plus users. Exactly one source is required for
	// primary and follower tenants (a follower's community must match
	// its primary's); routers own no data and take neither.
	ObjectsCSV string     `json:"objects_csv,omitempty"`
	PrefsJSON  string     `json:"prefs_json,omitempty"`
	Schema     []string   `json:"schema,omitempty"`
	Users      []UserSpec `json:"users,omitempty"`

	Quotas Quotas `json:"quotas"`
}

// FleetConfig is the declarative boot document `paretomon serve
// -config fleet.yaml` consumes: one process, one listener, many
// tenants. See docs/OPERATIONS.md for the field reference and a worked
// example (examples/fleet/fleet.yaml).
type FleetConfig struct {
	// Listen is the main API listener address (e.g. ":8080").
	Listen string `json:"listen"`
	// OpsListen, when set, starts the operator listener (pprof +
	// /metrics + health probes) on a second address.
	OpsListen string `json:"ops_listen,omitempty"`
	// AdminToken guards the /admin/tenants endpoints; empty leaves
	// them open (development only).
	AdminToken string `json:"admin_token,omitempty"`
	// Root is the registry root directory; tenant state lives under
	// <root>/tenants/<name>/.
	Root string `json:"root"`
	// Tenants is the desired tenant set, stood up on boot.
	Tenants []Spec `json:"tenants"`
	// DefaultTenant, when set, aliases the un-namespaced single-tenant
	// routes (/objects, /frontier/{user}, ...) to that tenant, so
	// clients written against the pre-multi-tenant API keep working.
	// Auth and quotas still apply.
	DefaultTenant string `json:"default_tenant,omitempty"`
}

// LoadConfig reads a fleet config from path. A document whose first
// significant byte is '{' is decoded as JSON; anything else goes
// through the YAML subset decoder (see yaml.go). Relative dataset and
// root paths are resolved against the config file's directory, so a
// config can ship beside its datasets.
func LoadConfig(path string) (*FleetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrBadConfig, path, err)
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := filepath.Dir(path)
	resolve := func(p string) string {
		if p == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(base, p)
	}
	cfg.Root = resolve(cfg.Root)
	for i := range cfg.Tenants {
		cfg.Tenants[i].ObjectsCSV = resolve(cfg.Tenants[i].ObjectsCSV)
		cfg.Tenants[i].PrefsJSON = resolve(cfg.Tenants[i].PrefsJSON)
	}
	return cfg, nil
}

// ParseConfig decodes and validates a fleet config document (JSON or
// the YAML subset).
func ParseConfig(data []byte) (*FleetConfig, error) {
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	var cfg FleetConfig
	if strings.HasPrefix(trimmed, "{") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return nil, fmt.Errorf("%w: bad JSON: %v", ErrBadConfig, err)
		}
	} else {
		doc, err := parseYAML(data)
		if err != nil {
			return nil, err
		}
		// One round trip through encoding/json lands the generic tree in
		// the typed struct with the same coercion rules as the JSON path.
		raw, err := json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return nil, fmt.Errorf("%w: bad config value: %v", ErrBadConfig, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate checks the whole fleet document.
func (c *FleetConfig) Validate() error {
	if c.Listen == "" {
		return fmt.Errorf("%w: listen address is required", ErrBadConfig)
	}
	if c.Root == "" {
		return fmt.Errorf("%w: root directory is required", ErrBadConfig)
	}
	seen := map[string]bool{}
	for i := range c.Tenants {
		s := &c.Tenants[i]
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("%w: tenant %q declared twice", ErrBadConfig, s.Name)
		}
		seen[s.Name] = true
	}
	if c.DefaultTenant != "" && !seen[c.DefaultTenant] {
		return fmt.Errorf("%w: default_tenant %q is not a declared tenant", ErrBadConfig, c.DefaultTenant)
	}
	return nil
}

// Validate checks one tenant spec and fills defaulted fields in place
// (Role, Algorithm).
func (s *Spec) Validate() error {
	if !validTenantName(s.Name) {
		return fmt.Errorf("%w: tenant name %q (want [a-zA-Z0-9][a-zA-Z0-9_-]*)", ErrBadConfig, s.Name)
	}
	if s.Role == "" {
		s.Role = RolePrimary
	}
	switch s.Role {
	case RolePrimary:
		if s.PrimaryURL != "" || len(s.Fleet) > 0 {
			return fmt.Errorf("%w: tenant %q: primary_url/fleet are follower/router settings", ErrBadConfig, s.Name)
		}
	case RoleFollower:
		if s.PrimaryURL == "" {
			return fmt.Errorf("%w: tenant %q: follower role requires primary_url", ErrBadConfig, s.Name)
		}
		if s.Persist {
			return fmt.Errorf("%w: tenant %q: a follower replicates the primary's log and cannot persist", ErrBadConfig, s.Name)
		}
	case RoleRouter:
		if len(s.Fleet) == 0 {
			return fmt.Errorf("%w: tenant %q: router role requires a fleet URL list", ErrBadConfig, s.Name)
		}
		if s.Persist || s.ObjectsCSV != "" || s.PrefsJSON != "" || len(s.Schema) > 0 || len(s.Users) > 0 {
			return fmt.Errorf("%w: tenant %q: a router owns no data (no persist, datasets or community)", ErrBadConfig, s.Name)
		}
	default:
		return fmt.Errorf("%w: tenant %q: unknown role %q", ErrBadConfig, s.Name, s.Role)
	}
	switch s.Algorithm {
	case "":
		s.Algorithm = "ftv"
	case "baseline", "ftv", "ftva":
	default:
		return fmt.Errorf("%w: tenant %q: unknown algorithm %q", ErrBadConfig, s.Name, s.Algorithm)
	}
	if s.Role != RoleRouter {
		fromFiles := s.ObjectsCSV != "" || s.PrefsJSON != ""
		fromInline := len(s.Schema) > 0 || len(s.Users) > 0
		switch {
		case fromFiles && fromInline:
			return fmt.Errorf("%w: tenant %q: give either dataset files or an inline community, not both", ErrBadConfig, s.Name)
		case fromFiles && (s.ObjectsCSV == "" || s.PrefsJSON == ""):
			return fmt.Errorf("%w: tenant %q: objects_csv and prefs_json go together", ErrBadConfig, s.Name)
		case fromInline && (len(s.Schema) == 0 || len(s.Users) == 0):
			return fmt.Errorf("%w: tenant %q: an inline community needs both schema and at least one user", ErrBadConfig, s.Name)
		case !fromFiles && !fromInline:
			return fmt.Errorf("%w: tenant %q: a community source is required (dataset files or inline schema+users)", ErrBadConfig, s.Name)
		}
	}
	if q := s.Quotas; q.MaxUsers < 0 || q.MaxObjects < 0 || q.MaxSubscriptions < 0 || q.MaxRequestsPerSec < 0 {
		return fmt.Errorf("%w: tenant %q: negative quota", ErrBadConfig, s.Name)
	}
	if s.Window < 0 || s.Workers < 0 || s.SnapshotEvery < 0 {
		return fmt.Errorf("%w: tenant %q: negative engine setting", ErrBadConfig, s.Name)
	}
	if !(s.BranchCut >= 0) {
		return fmt.Errorf("%w: tenant %q: branch_cut must be a number >= 0, got %v", ErrBadConfig, s.Name, s.BranchCut)
	}
	return nil
}

// validTenantName admits path- and metric-label-safe names.
func validTenantName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// buildCommunity materializes the spec's community source. For dataset
// files it also returns the object rows to boot-ingest (nil for inline
// communities, which start with no objects).
func buildCommunity(s *Spec) (*paretomon.Community, [][]string, error) {
	if s.ObjectsCSV != "" {
		of, err := os.Open(s.ObjectsCSV)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %q: %v", ErrBadConfig, s.Name, err)
		}
		defer of.Close()
		pf, err := os.Open(s.PrefsJSON)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %q: %v", ErrBadConfig, s.Name, err)
		}
		defer pf.Close()
		com, rows, err := paretomon.LoadCommunity(of, pf)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %q: %v", ErrBadConfig, s.Name, err)
		}
		return com, rows, nil
	}
	for _, a := range s.Schema {
		if a == "" {
			return nil, nil, fmt.Errorf("%w: tenant %q: empty attribute name", ErrBadConfig, s.Name)
		}
	}
	seen := map[string]bool{}
	for _, a := range s.Schema {
		if seen[a] {
			return nil, nil, fmt.Errorf("%w: tenant %q: duplicate attribute %q", ErrBadConfig, s.Name, a)
		}
		seen[a] = true
	}
	com := paretomon.NewCommunity(paretomon.NewSchema(s.Schema...))
	for _, us := range s.Users {
		u, err := com.AddUser(us.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %q: %v", ErrBadConfig, s.Name, err)
		}
		for _, p := range us.Preferences {
			if err := u.Prefer(p.Attribute, p.Better, p.Worse); err != nil {
				return nil, nil, fmt.Errorf("%w: tenant %q, user %q: %v", ErrBadConfig, s.Name, us.Name, err)
			}
		}
	}
	return com, nil, nil
}

// monitorOptions translates the spec's engine fields to root options.
func monitorOptions(s *Spec) []paretomon.Option {
	var opts []paretomon.Option
	switch s.Algorithm {
	case "baseline":
		opts = append(opts, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	case "ftva":
		opts = append(opts,
			paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerifyApprox),
			paretomon.WithMeasure(paretomon.MeasureVectorWeightedJaccard))
		if s.Theta1 > 0 {
			t2 := s.Theta2
			if t2 == 0 {
				t2 = 0.5
			}
			opts = append(opts, paretomon.WithThetas(s.Theta1, t2))
		}
	default: // ftv
		opts = append(opts, paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify))
	}
	if s.BranchCut != 0 {
		opts = append(opts, paretomon.WithBranchCut(s.BranchCut))
	}
	if s.Window > 0 {
		opts = append(opts, paretomon.WithWindow(s.Window))
	}
	if s.Workers != 0 {
		opts = append(opts, paretomon.WithWorkers(s.Workers))
	}
	if s.SnapshotEvery > 0 {
		opts = append(opts, paretomon.WithSnapshotEvery(s.SnapshotEvery))
	}
	return opts
}
