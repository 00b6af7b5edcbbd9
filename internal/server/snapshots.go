package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/datalake"
)

// Time-travel reads over HTTP. Every verify endpoint accepts ?version=N to
// run against the retained snapshot at lake version N instead of head —
// same request body, same response shape (plus as_of_version) — and
// GET/POST /v1/snapshots manage the retained set:
//
//	GET  /v1/snapshots               list retained snapshots + floor/head
//	POST /v1/snapshots {"action":"pin"}               freeze + pin head
//	POST /v1/snapshots {"action":"unpin","version":N} release a pin
//
// The ?version= error contract mirrors the CDC feed's floor semantics:
// malformed or zero versions are 400, a version ahead of the lake is 404
// (nothing ever existed there), a plausible version nothing retained is
// 409 (pin earlier next time), and a version below the retention floor is
// 410 Gone with the floor named in the body — the caller can re-anchor to
// the floor exactly as a CDC consumer re-bootstraps.

// parseVersionParam reads the optional ?version= pin on a verify endpoint.
// Absent means head (0). Non-numeric or zero answers 400 and returns
// ok=false (version 0 is the "no pin" sentinel, never a real snapshot).
func parseVersionParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || v == 0 {
		writeError(w, http.StatusBadRequest, "version must be a positive integer, got %q", raw)
		return 0, false
	}
	return v, true
}

// snapshotResolveError reports whether err is a snapshot-resolution
// failure (as opposed to a verification failure at a resolved snapshot).
func snapshotResolveError(err error) bool {
	var bf *datalake.BelowFloorError
	return errors.As(err, &bf) || errors.Is(err, datalake.ErrSnapshotNotFound)
}

// writeSnapshotError maps a failed ?version= resolution onto the contract
// above. The 410 body carries the floor as a field (like the CDC feed's
// cursor-below-floor response) so clients can re-anchor without parsing
// the message.
func (s *Server) writeSnapshotError(w http.ResponseWriter, asOf uint64, err error) {
	var bf *datalake.BelowFloorError
	switch {
	case errors.As(err, &bf):
		writeErrorBody(w, http.StatusGone, map[string]any{"floor": bf.Floor},
			fmt.Sprintf("version %d is below the snapshot retention floor %d; retry at the floor or later", bf.Version, bf.Floor))
	case errors.Is(err, datalake.ErrSnapshotNotFound):
		if head := s.pipeline.Lake().Version(); asOf > head {
			writeError(w, http.StatusNotFound, "version %d is ahead of the lake (head is %d)", asOf, head)
		} else {
			writeError(w, http.StatusConflict,
				"no snapshot retained at version %d; pin one with POST /v1/snapshots or verify at a retained version (GET /v1/snapshots)", asOf)
		}
	default:
		writeError(w, http.StatusInternalServerError, "snapshot read: %v", err)
	}
}

// SnapshotsResponse is the body of GET /v1/snapshots.
type SnapshotsResponse struct {
	// Snapshots lists the retained set, oldest first.
	Snapshots []datalake.SnapshotInfo `json:"snapshots"`
	// Floor is the oldest retained version — the time-travel read floor (0
	// when nothing is retained).
	Floor uint64 `json:"floor"`
	// Head is the lake's current version.
	Head uint64 `json:"head"`
}

// SnapshotActionRequest is the body of POST /v1/snapshots.
type SnapshotActionRequest struct {
	// Action is "pin" (freeze and pin the current version; Version must be
	// omitted — pinning is always of now) or "unpin" (release the pin at
	// Version).
	Action  string `json:"action"`
	Version uint64 `json:"version,omitempty"`
}

// SnapshotActionResponse acknowledges a pin or unpin.
type SnapshotActionResponse struct {
	Status string `json:"status"` // "pinned" | "unpinned"
	// Version is the snapshot version the action applied to; pass it as
	// ?version= on the verify endpoints.
	Version uint64 `json:"version"`
}

// handleSnapshots lists the retained set on GET and pins or unpins on
// POST (the route table admits no other method).
func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		reg := s.pipeline.Snapshots()
		writeJSON(w, http.StatusOK, SnapshotsResponse{
			Snapshots: reg.List(),
			Floor:     reg.Floor(),
			Head:      s.pipeline.Lake().Version(),
		})
		return
	}
	if s.rejectFollowerWrite(w) {
		return
	}
	var req SnapshotActionRequest
	if !decodeStrict(w, r, maxBodyBytes, &req) {
		return
	}
	switch req.Action {
	case "pin":
		if req.Version != 0 {
			writeError(w, http.StatusBadRequest, "pin freezes the current version; omit version (unpin takes one)")
			return
		}
		version, err := s.pinSnapshot()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "pin snapshot: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, SnapshotActionResponse{Status: "pinned", Version: version})
	case "unpin":
		if req.Version == 0 {
			writeError(w, http.StatusBadRequest, "unpin requires the pinned version")
			return
		}
		if err := s.unpinSnapshot(req.Version); err != nil {
			if errors.Is(err, datalake.ErrSnapshotNotFound) {
				writeError(w, http.StatusNotFound, "no snapshot retained at version %d", req.Version)
				return
			}
			writeError(w, http.StatusInternalServerError, "unpin snapshot: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, SnapshotActionResponse{Status: "unpinned", Version: req.Version})
	default:
		writeError(w, http.StatusBadRequest, "unknown action %q (want pin|unpin)", req.Action)
	}
}
