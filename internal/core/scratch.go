package core

// ResultScratch is an optional reusable C_o slice for engines driven as
// shards. Disabled (the zero value, standalone engines), Start returns
// nil and every Process allocates a fresh result — callers may retain
// it. Enabled (Sharded calls EnableScratch on every shard it drives),
// the engine appends into one buffer reused across Process calls; the
// harness copies results into its own merged slice before the next call,
// so nothing outside the harness ever sees the alias.
type ResultScratch struct {
	enabled bool
	buf     []int
}

// Enable switches the owning engine to scratch-slice reuse.
func (s *ResultScratch) Enable() { s.enabled = true }

// Start returns the slice to append results into for one Process call.
func (s *ResultScratch) Start() []int {
	if s.enabled {
		return s.buf[:0]
	}
	return nil
}

// Finish records the (possibly regrown) slice for the next call and
// returns it.
func (s *ResultScratch) Finish(co []int) []int {
	if s.enabled {
		s.buf = co
	}
	return co
}
