// Package walpkg is the walbeforeapply golden corpus: an Engine type
// owning an appendWAL method, with methods that honor, violate, and
// opt out of the append-before-apply discipline.
package walpkg

import "sync"

type rec struct{ op string }

type journal struct{ log []rec }

func (j *journal) append(r rec) error { j.log = append(j.log, r); return nil }
func (j *journal) count() int         { return len(j.log) }
func (j *journal) flush()             {}

// claimSet is a claim table with methods of its own.
type claimSet struct{ m map[string]bool }

func (c *claimSet) put(k string)  { c.m[k] = true }
func (c *claimSet) give(k string) { delete(c.m, k) }

type Engine struct {
	mu     sync.Mutex
	wal    journal
	vals   map[string]int
	claims claimSet
	n      int
}

func (e *Engine) appendWAL(rs []rec) error {
	for _, r := range rs {
		if err := e.wal.append(r); err != nil {
			return err
		}
	}
	return nil
}

// Add logs first, then applies: the canonical shape.
func (e *Engine) Add(k string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.appendWAL([]rec{{op: "add:" + k}}); err != nil {
		return err
	}
	e.vals[k] = e.n
	e.n++
	return nil
}

// AddFirst applies before logging: a crash between the write and the
// append loses an acknowledged mutation.
func (e *Engine) AddFirst(k string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++ // want `assignment to receiver state before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

// Bump hides the early write inside an unexported helper; the sibling
// fixpoint still sees through it.
func (e *Engine) Bump(k string) error {
	e.bump() // want `call to state-writing method bump before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

func (e *Engine) bump() { e.n++ }

// AddMany delegates to the WAL-disciplined Add; the import/batch shape
// needs no log append of its own.
func (e *Engine) AddMany(ks []string) error {
	for _, k := range ks {
		if err := e.Add(k); err != nil {
			return err
		}
	}
	return nil
}

// AddChecked performs a validation read through a receiver field
// before logging — value position, no error result — which is the
// blessed check-then-log shape, not a state write.
func (e *Engine) AddChecked(k string) error {
	if e.wal.count() > 10 {
		return nil
	}
	if err := e.appendWAL([]rec{{op: k}}); err != nil {
		return err
	}
	e.n++
	return nil
}

// Flush calls through a receiver field in statement position before
// logging: result discarded means mutation.
func (e *Engine) Flush(k string) error {
	e.wal.flush() // want `call through receiver field \(e.wal.flush\) before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

// Maybe logs on only one branch; the write below is unprotected on the
// other.
func (e *Engine) Maybe(k string, logIt bool) error {
	if logIt {
		if err := e.appendWAL([]rec{{op: k}}); err != nil {
			return err
		}
	}
	e.n++ // want `assignment to receiver state before appendWAL`
	return nil
}

// Count is a read path: no writes, nothing to flag.
func (e *Engine) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Reset mutates deliberately outside the WAL (derived cache), opted
// out visibly.
//
//paretomon:nowal
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n = 0
}

// Reserve claims k through a helper whose writes to vals are
// tentative, logs, and takes the claim back when the append fails.
func (e *Engine) Reserve(k string) error {
	e.claim(k)
	if err := e.appendWAL([]rec{{op: k}}); err != nil {
		delete(e.vals, k)
		return err
	}
	e.n++
	return nil
}

// claim is a tentative write to vals that its callers undo when the
// append fails.
//
//paretomon:tentative vals
func (e *Engine) claim(k string) { e.vals[k] = -1 }

// ReserveFirst writes before logging after the claim: the claim's
// exemption covers the helper's writes to vals, not the caller's.
func (e *Engine) ReserveFirst(k string) error {
	e.claim(k)
	e.n++ // want `assignment to receiver state before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

// ReserveCounted calls a tentative helper that also writes a field
// its directive does not name: that write is still a state write.
func (e *Engine) ReserveCounted(k string) error {
	e.claimCounted(k) // want `call to state-writing method claimCounted before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

//paretomon:tentative vals
func (e *Engine) claimCounted(k string) {
	e.vals[k] = -1
	e.n++
}

// ReserveHidden marks a helper nowal instead: on an unexported helper
// that opts nothing out, so its write still counts.
func (e *Engine) ReserveHidden(k string) error {
	e.claimHidden(k) // want `call to state-writing method claimHidden before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

//paretomon:nowal
func (e *Engine) claimHidden(k string) { e.vals[k] = -1 }

// Take claims k through a helper that calls the claim table's own
// methods under the directive, logs, and gives the claim back when the
// append fails.
func (e *Engine) Take(k string) error {
	e.putClaim(k)
	if err := e.appendWAL([]rec{{op: k}}); err != nil {
		e.claims.give(k)
		return err
	}
	e.n++
	return nil
}

// putClaim's call on claims is a tentative write, like an assignment.
//
//paretomon:tentative claims
func (e *Engine) putClaim(k string) { e.claims.put(k) }

// TakeUnmarked makes the same call through a helper without the
// directive: a state write.
func (e *Engine) TakeUnmarked(k string) error {
	e.putClaimUnmarked(k) // want `call to state-writing method putClaimUnmarked before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

func (e *Engine) putClaimUnmarked(k string) { e.claims.put(k) }

// TakeFlushed calls a tentative helper that also calls a method on a
// field its directive does not name: that call is still a state write.
func (e *Engine) TakeFlushed(k string) error {
	e.putClaimFlushed(k) // want `call to state-writing method putClaimFlushed before appendWAL`
	return e.appendWAL([]rec{{op: k}})
}

//paretomon:tentative claims
func (e *Engine) putClaimFlushed(k string) {
	e.claims.put(k)
	e.wal.flush()
}
