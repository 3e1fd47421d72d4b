package server

import (
	"encoding/json"
	"net/http"
	"time"
)

// Router write lease. Two routers in front of one fleet must not
// interleave mutations (the router serializes writes; two of them
// would not). Partition 0 arbitrates: a router POSTs /lease with its
// identity and a TTL, and only the holder of an unexpired lease
// mutates. The record is persisted beside the WAL (meta key "lease"),
// so the grant survives a partition restart; expiry is judged by THIS
// server's clock only — routers never compare wall clocks, they only
// renew early (TTL/3) and treat a 409 as "stand by". Epochs increment
// on every change of holder, giving log lines a fencing token. The
// lease is cooperative mutual exclusion for failover, not Byzantine
// protection: a router that skips the lease entirely was always able
// to break the serialization contract.

// leaseMetaKey is the store meta key holding the lease record.
const leaseMetaKey = "lease"

// maxLeaseTTL caps a requested lease TTL: there is no force-release
// except DELETE by the holder, so a misconfigured router asking for an
// enormous TTL would lock the fleet's write path until it lapsed. The
// grant echoes the effective ttl_ms and routers size their fence from
// the echo, never from what they asked for.
const maxLeaseTTL = 5 * time.Minute

// leaseRecord is the persisted grant.
type leaseRecord struct {
	ID      string `json:"id"`
	Epoch   uint64 `json:"epoch"`
	Expires int64  `json:"expires_unix_ms"`
}

type leaseRequest struct {
	ID        string `json:"id"`
	TTLMillis int64  `json:"ttl_ms"`
}

// loadLease reads the persisted record; a zero record means no lease
// was ever granted. Caller holds leaseMu.
func (s *Server) loadLease() (leaseRecord, error) {
	var rec leaseRecord
	data, ok, err := s.mon.GetMeta(leaseMetaKey)
	if err != nil || !ok {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		// A corrupt lease record fails open: the slot is treated as
		// free, which at worst re-runs the failover handshake.
		return leaseRecord{}, nil
	}
	return rec, nil
}

// storeLease persists the record. Caller holds leaseMu.
func (s *Server) storeLease(rec leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return s.mon.PutMeta(leaseMetaKey, data)
}

// handleLeaseAcquire serves POST /lease {"id": ..., "ttl_ms": ...}:
// grant or renew. Free or expired → granted (epoch bumps if the holder
// changed); held by the same id → renewed (same epoch); held by
// another router → 409 with the holder and remaining TTL in the error.
func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.ID == "" || req.TTLMillis <= 0 {
		httpError(w, http.StatusBadRequest, "lease needs a non-empty id and a positive ttl_ms")
		return
	}
	if req.TTLMillis > maxLeaseTTL.Milliseconds() {
		req.TTLMillis = maxLeaseTTL.Milliseconds()
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	rec, err := s.loadLease()
	if err != nil {
		writeError(w, err)
		return
	}
	now := time.Now().UnixMilli()
	if rec.ID != "" && rec.ID != req.ID && rec.Expires > now {
		httpError(w, http.StatusConflict, "lease held by %q for another %dms", rec.ID, rec.Expires-now)
		return
	}
	next := leaseRecord{ID: req.ID, Epoch: rec.Epoch, Expires: now + req.TTLMillis}
	if rec.ID != req.ID {
		next.Epoch++
	}
	if err := s.storeLease(next); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": next.ID, "epoch": next.Epoch, "ttl_ms": req.TTLMillis})
}

// handleLeaseGet serves GET /lease: the current record (404 when none
// was ever granted), with remaining_ms computed server-side so callers
// never touch the raw expiry clock.
func (s *Server) handleLeaseGet(w http.ResponseWriter, r *http.Request) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	rec, err := s.loadLease()
	if err != nil {
		writeError(w, err)
		return
	}
	if rec.ID == "" {
		httpError(w, http.StatusNotFound, "no lease granted")
		return
	}
	remaining := rec.Expires - time.Now().UnixMilli()
	if remaining < 0 {
		remaining = 0
	}
	writeJSON(w, map[string]any{"id": rec.ID, "epoch": rec.Epoch, "remaining_ms": remaining})
}

// handleLeaseRelease serves DELETE /lease?id=...: the holder steps down
// by expiring its own record, letting a standby take over immediately
// instead of waiting out the TTL. Releasing a lease you do not hold is
// a 409; releasing an already-free slot is ok (idempotent shutdown).
func (s *Server) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, "release needs ?id=")
		return
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	rec, err := s.loadLease()
	if err != nil {
		writeError(w, err)
		return
	}
	now := time.Now().UnixMilli()
	if rec.ID != "" && rec.ID != id && rec.Expires > now {
		httpError(w, http.StatusConflict, "lease held by %q, not %q", rec.ID, id)
		return
	}
	if rec.ID == id && rec.Expires > now {
		rec.Expires = now
		if err := s.storeLease(rec); err != nil {
			writeError(w, err)
			return
		}
	}
	writeOK(w)
}
