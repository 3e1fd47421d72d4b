package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/partition"
)

// Ring agreement and live-migration endpoints. A partition persists the
// newest ring it has been handed (meta key "ring") and rejects any
// mutating request whose X-Paretomon-Ring header disagrees with it —
// symmetric: a header the partition has outgrown AND a missing header
// once a ring is installed are both 409, with the installed version
// echoed back in the same header so the router can refetch (or push)
// before retrying. Requests without the header on a partition without a
// ring pass untouched: a single monitor behind this server never
// notices any of this machinery. See docs/PARTITIONING.md.

// ringMetaKey is the store meta key holding the accepted ring payload.
const ringMetaKey = "ring"

// checkRing enforces the ring-version agreement on a mutating request
// whose RingHeader value is hdr. It returns nil when the write may
// proceed, otherwise the refusal to answer with: 409 with the installed
// version in the response RingHeader, or 400 for a malformed hdr.
func (s *Server) checkRing(hdr string) error {
	s.ringMu.Lock()
	cur := s.ringVer
	s.ringMu.Unlock()
	have := strconv.FormatUint(cur, 10)
	if hdr == "" {
		if cur == 0 {
			return nil
		}
		return &refusal{http.StatusConflict, have, fmt.Sprintf("partition has ring version %d installed but the request carries none; refetch /ring", cur)}
	}
	v, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil {
		return &refusal{http.StatusBadRequest, "", fmt.Sprintf("bad %s header %q: %v", partition.RingHeader, hdr, err)}
	}
	if v != cur {
		return &refusal{http.StatusConflict, have, fmt.Sprintf("ring version mismatch: request has %d, partition has %d", v, cur)}
	}
	return nil
}

// handleRingGet serves GET /ring: the newest ring this partition has
// accepted, raw, with its version echoed in the RingHeader. 404 until a
// router installs one.
func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	data, ok, err := s.mon.GetMeta(ringMetaKey)
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no ring installed")
		return
	}
	w.Header().Set(partition.RingHeader, strconv.FormatUint(s.ringVer, 10))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleRingPut serves PUT /ring: install a ring. Versions are totally
// ordered and installs are monotone — a payload older than the
// installed ring is the same 409-plus-version dance as a stale write,
// an equal or newer one is persisted and becomes the write gate
// immediately. Idempotent by construction: re-pushing the accepted
// ring succeeds.
func (s *Server) handleRingPut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading ring payload: %v", err)
		return
	}
	rg, err := partition.DecodeRing(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if rg.Version < s.ringVer {
		w.Header().Set(partition.RingHeader, strconv.FormatUint(s.ringVer, 10))
		httpError(w, http.StatusConflict, "ring version %d is older than installed %d", rg.Version, s.ringVer)
		return
	}
	if err := s.mon.PutMeta(ringMetaKey, body); err != nil {
		writeError(w, err)
		return
	}
	s.ringVer = rg.Version
	writeJSON(w, map[string]any{"status": "ok", "version": rg.Version})
}

// writeExport streams export's replica frames as the response. An
// export that fails before its first byte is answered as an error; one
// that fails mid-stream can only cut the connection (the 200 is out).
func writeExport(w http.ResponseWriter, export func(io.Writer) error) {
	cw := &countingWriter{w: w}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := export(cw); err != nil && cw.n == 0 {
		writeError(w, err)
	}
}

// countingWriter distinguishes "failed before the first byte" (a clean
// HTTP error is still possible) from "failed mid-stream" (the 200 is
// out; all we can do is cut the connection).
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type migrateExportRequest struct {
	Users []string `json:"users"`
}

// handleMigrateExport serves POST /migrate/export {"users": [...]}: the
// named users' migratable state as a replica-frame stream (watermark
// head + one OpAddUser record each). The response is piped verbatim
// into the destination's POST /migrate/import. Not ring-gated: the
// export is a read, and during a migration the source intentionally
// serves it moments before the ring flips.
func (s *Server) handleMigrateExport(w http.ResponseWriter, r *http.Request) {
	var req migrateExportRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Users) == 0 {
		httpError(w, http.StatusBadRequest, "no users named")
		return
	}
	// Users this partition no longer holds are silently dropped from
	// the stream: live traffic may remove a user between the moment the
	// orchestrator planned the batch and this export, and the migration
	// must still converge (the importer adds nobody, the ring commit
	// clears the stale pin).
	present := make([]string, 0, len(req.Users))
	for _, u := range req.Users {
		if s.mon.HasUser(u) {
			present = append(present, u)
		}
	}
	writeExport(w, func(cw io.Writer) error { return s.mon.ExportUsers(present, cw) })
}

// handleMigrateImport serves POST /migrate/import: apply an export
// stream through the live AddUser path. Ring-gated — an import landing
// with a stale ring version means the orchestrator died mid-flight and
// a new one has moved on. 409 with ErrMigrateMismatch when the
// watermark disagrees with this partition's stream position.
func (s *Server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	added, skipped, err := s.mon.ImportUsers(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"added": added, "skipped": skipped})
}

// handleObjectsExport serves GET /migrate/objects: the full object
// registry as a replica-frame stream, the bootstrap image that brings a
// brand-new partition to the fleet's stream position. The registry
// length rides in the stream's head frame.
func (s *Server) handleObjectsExport(w http.ResponseWriter, r *http.Request) {
	writeExport(w, s.mon.ExportObjects)
}

// handleObjectsImport serves POST /migrate/objects: apply an object
// export stream, skipping the already-held prefix. Ring-gated for the
// same reason as /migrate/import.
func (s *Server) handleObjectsImport(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	applied, err := s.mon.ImportObjects(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"applied": applied})
}

// handleObjectCount serves GET /objects/count: the registry length
// (alive + tombstoned), i.e. this partition's object-stream position.
// The rebalance orchestrator compares positions across the fleet to
// pick the sync source and the partitions that need catching up.
func (s *Server) handleObjectCount(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]int{"count": s.mon.ObjectCount()})
}
