package reefhttp

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"reef"
	"reef/internal/metrics"
	"reef/internal/replication"
)

// Replicator is the replication surface a server can mount: the ingest
// route peers stream into, plus the status the admin endpoint and
// /v1/stats expose. Implemented by *replication.Manager.
type Replicator interface {
	// IngestRecords applies one WAL batch from a peer; cut marks a batch
	// that carries resync records. A *replication.ConflictError return
	// is answered 409 with this node's authoritative Ack.
	IngestRecords(source string, epoch, prev, last int64, count int, cut bool, frames []byte) (replication.Ack, error)
	// Status reports stream positions and health.
	Status() replication.Status
	// Samples reports the status as the node's replication series,
	// merged into /v1/stats and /v1/metrics.
	Samples() []metrics.Sample
}

// WithReplication mounts the replication ingest route and the admin
// status endpoint over the given manager:
//
//	POST /v1/replication/records    ingest a WAL batch (framed records)
//	GET  /v1/admin/replication      stream positions, lag, health
//
// The ingest route speaks the replication wire protocol — handshake in
// X-Reef-Replication-* headers, bare Ack JSON answers (409 on a
// watermark conflict) — not the error envelope, because the peer's
// sender is the only client. Without this option both routes answer
// 501.
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

// ingestReplication serves the ingest route: one batch of framed
// records from a peer, read up to replication.MaxBatchBytes.
func (h *Handler) ingestReplication(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	source := req.Header.Get(replication.HdrSource)
	if source == "" {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing "+replication.HdrSource+" header")
		return
	}
	var hv [4]int64
	for i, name := range []string{replication.HdrEpoch, replication.HdrPrev, replication.HdrLast, replication.HdrCount} {
		v, err := replHeader(req, name)
		if err != nil {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, err.Error())
			return
		}
		hv[i] = v
	}
	frames, ok := h.readBody(rw, req, replication.MaxBatchBytes)
	if !ok {
		return
	}
	cut := req.Header.Get(replication.HdrCut) == "true"
	ack, err := r.IngestRecords(source, hv[0], hv[1], hv[2], int(hv[3]), cut, frames)
	h.writeAck(rw, ack, err)
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
