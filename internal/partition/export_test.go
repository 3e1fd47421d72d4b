package partition

// WaitingWriters reports how many write calls wait for the Router's
// write lock.
func (r *Router) WaitingWriters() int32 { return r.writers.Load() }
