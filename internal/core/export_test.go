package core

// NewTupleClasses returns a class table that is on, which outside the
// tests only this package's constructors can make (BenchmarkResolve).
func NewTupleClasses() TupleClasses {
	var t TupleClasses
	t.enable()
	return t
}
