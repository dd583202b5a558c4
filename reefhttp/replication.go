package reefhttp

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"reef"
	"reef/internal/metrics"
	"reef/internal/replication"
)

// Replicator is the replication surface a server can mount: the two
// ingest routes peers stream into, plus the status the admin endpoint
// and /v1/stats expose. Implemented by *replication.Manager.
type Replicator interface {
	// IngestRecords applies one WAL batch from a peer. A
	// *replication.ConflictError return is answered 409 with this
	// node's authoritative Ack.
	IngestRecords(source string, epoch, prev, last int64, count int, frames []byte) (replication.Ack, error)
	// IngestSnapshot absorbs a peer's resync cut: framed records too,
	// the run that rebuilds the peer's state.
	IngestSnapshot(source string, epoch, seq int64, cut []byte) (replication.Ack, error)
	// Status reports stream positions and health.
	Status() replication.Status
	// Samples reports the status as the node's replication series,
	// merged into /v1/stats and /v1/metrics.
	Samples() []metrics.Sample
}

// WithReplication mounts the replication ingest routes and the admin
// status endpoint over the given manager:
//
//	POST /v1/replication/records    ingest a WAL batch (framed records)
//	POST /v1/replication/snapshot   ingest a resync cut (framed records)
//	GET  /v1/admin/replication      stream positions, lag, health
//
// The ingest routes speak the replication wire protocol — handshake in
// X-Reef-Replication-* headers, bare Ack JSON answers (409 on a
// watermark conflict) — not the error envelope, because the peer's
// sender is the only client. Without this option the three routes
// answer 501.
func WithReplication(r Replicator) HandlerOption {
	return func(h *Handler) { h.repl = r }
}

// ReplicationStatusResponse is the GET /v1/admin/replication body.
type ReplicationStatusResponse struct {
	Replication replication.Status `json:"replication"`
}

// replicator unwraps the mounted replication surface, answering the
// 501 envelope when there is none.
func (h *Handler) replicator(rw http.ResponseWriter) (Replicator, bool) {
	if h.repl == nil {
		h.writeDeploymentError(rw, fmt.Errorf("%w: server has no replication surface", reef.ErrUnsupported))
		return nil, false
	}
	return h.repl, true
}

// replHeader reads one int64 replication header, failing closed: a
// missing or malformed handshake header rejects the batch rather than
// silently defaulting to position 0 (which could double-apply).
func replHeader(req *http.Request, name string) (int64, error) {
	v := req.Header.Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %s header", name)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s header: %v", name, err)
	}
	return n, nil
}

// ingestReplication serves one of the two ingest routes, both framed
// records from a peer: a streamed WAL batch, or (cut) a resync cut.
func (h *Handler) ingestReplication(cut bool) func(http.ResponseWriter, *http.Request) {
	names := []string{replication.HdrEpoch, replication.HdrPrev, replication.HdrLast, replication.HdrCount}
	if cut {
		names = []string{replication.HdrEpoch, replication.HdrSeq}
	}
	return func(rw http.ResponseWriter, req *http.Request) {
		r, ok := h.replicator(rw)
		if !ok {
			return
		}
		source := req.Header.Get(replication.HdrSource)
		if source == "" {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing "+replication.HdrSource+" header")
			return
		}
		hv := make([]int64, len(names))
		for i, name := range names {
			v, err := replHeader(req, name)
			if err != nil {
				h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, err.Error())
				return
			}
			hv[i] = v
		}
		frames, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes))
		if err != nil {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "reading body: "+err.Error())
			return
		}
		var ack replication.Ack
		if cut {
			ack, err = r.IngestSnapshot(source, hv[0], hv[1], frames)
		} else {
			ack, err = r.IngestRecords(source, hv[0], hv[1], hv[2], int(hv[3]), frames)
		}
		h.writeAck(rw, ack, err)
	}
}

// writeAck answers an ingest call in the wire protocol's envelope: 200
// with the Ack, 409 with the authoritative Ack on a watermark conflict,
// or the plain error envelope otherwise.
func (h *Handler) writeAck(rw http.ResponseWriter, ack replication.Ack, err error) {
	var conflict *replication.ConflictError
	if errors.As(err, &conflict) {
		h.writeJSON(rw, http.StatusConflict, conflict.Ack)
		return
	}
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, ack)
}

// handleReplicationStatus serves the admin view of both stream roles.
func (h *Handler) handleReplicationStatus(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	h.writeJSON(rw, http.StatusOK, ReplicationStatusResponse{Replication: r.Status()})
}
