package server

// MaxBodyBytes is the request body cap, for the external tests.
const MaxBodyBytes = maxBodyBytes
