package core

import (
	"iter"

	"repro/internal/object"
)

// NewTupleClasses returns a class table that is on, which outside the
// tests only this package's constructors can make (BenchmarkResolve).
func NewTupleClasses() TupleClasses {
	var t TupleClasses
	t.enable()
	return t
}

// SetAlive gives a standalone engine the alive-object source NewSharded
// hands every shard it builds.
func (m *MemberIndex) SetAlive(alive iter.Seq[object.Object]) { m.source = alive }
