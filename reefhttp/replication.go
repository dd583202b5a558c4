package reefhttp

import (
	"bufio"
	"fmt"
	"net"
	"net/http"

	"reef"
	"reef/internal/metrics"
	"reef/internal/replication"
)

// Replicator is the replication surface a server can mount: the links
// peers open on the upgrade route, plus the status the admin endpoint
// and /v1/stats expose. Implemented by *replication.Manager.
type Replicator interface {
	// AcceptLink serves a peer's upgraded link, whose hellos have been
	// exchanged, until it ends or the replicator closes, and then closes
	// it. rw buffers conn.
	AcceptLink(conn net.Conn, rw *bufio.ReadWriter, source string, epoch int64)
	// Status reports stream positions and health.
	Status() replication.Status
	// Samples reports the status as the node's replication series,
	// merged into /v1/stats and /v1/metrics.
	Samples() []metrics.Sample
}

// WithReplication hands the manager every replication link a peer opens
// on /v1/stream, and mounts the admin status endpoint over it:
//
//	GET  /v1/admin/replication      stream positions, lag, health
//
// Without a node ID the handler names itself by the manager's Self.
// Without this option a link hello is refused and the endpoint answers
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

// handleReplicationStatus serves the admin view of both stream roles.
func (h *Handler) handleReplicationStatus(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	h.writeJSON(rw, http.StatusOK, ReplicationStatusResponse{Replication: r.Status()})
}
