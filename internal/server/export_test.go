package server

// MaxBodyBytes is the request body cap, for the external tests.
const MaxBodyBytes = maxBodyBytes

// LeaseMetaKey is the meta key holding the router lease record.
const LeaseMetaKey = leaseMetaKey

// WriteError is the facades' mapping of a Driver error to its answer.
var WriteError = writeError
