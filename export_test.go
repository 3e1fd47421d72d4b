package paretomon

import "testing"

// Bridges for the crash-and-replication simulator (sim_test.go). It is an
// external test, so it can mount internal/server; these hand it the
// in-package history generator and view.

// HistoryOp is one step of a dupHistory, its fields exported: kind is
// add, batch, rmobj, addpref, retract, adduser or rmuser.
type HistoryOp struct {
	Kind  string
	Objs  []Object
	Name  string // object (rmobj) or user
	Pref  Preference
	Prefs []Preference
}

func (op HistoryOp) String() string {
	return dupOp{kind: op.Kind, objs: op.Objs, name: op.Name, pref: op.Pref, prefs: op.Prefs}.String()
}

// DupHistory is dupHistory with its steps exported.
func DupHistory(seed int64, steps int) (users []string, asserted map[string][]Preference, ops []HistoryOp) {
	users, asserted, dups := dupHistory(seed, steps)
	for _, op := range dups {
		ops = append(ops, HistoryOp{Kind: op.kind, Objs: op.objs, Name: op.name, Pref: op.pref, Prefs: op.prefs})
	}
	return users, asserted, ops
}

// DupAttrs and DupValues are dupHistory's catalog.
var DupAttrs, DupValues = dupSpace.attrs, dupSpace.values

// CommunityOf builds a community over attrs whose users assert exactly
// the given tuples.
func CommunityOf(t testing.TB, attrs, users []string, asserted map[string][]Preference) *Community {
	return catalog{attrs: attrs}.community(t, users, asserted)
}

// The fuzz community, the pools fuzzed calls draw from, and the twelve
// shapes a byte picks.
var (
	FuzzUsers, FuzzAttrs, FuzzValues = fuzzUsers, fuzzAttrs, fuzzValues
	FuzzAsserted                     = fuzzAsserted
	FuzzConfig                       = fuzzConfig
)

// MonitorView is everything a reader observes of a monitor; ViewOf takes it.
type MonitorView = monitorView

var ViewOf = viewOf
