package reefhttp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"reef"
	"reef/internal/metrics"
	"reef/internal/replication"
)

// Replicator is the replication surface a server can mount: the ingest
// route peers open their links on, plus the status the admin endpoint
// and /v1/stats expose. Implemented by *replication.Manager.
type Replicator interface {
	// AcceptLink takes over a peer's upgraded link, whose handshake has
	// been answered with 101, and serves it on its own goroutine: the
	// replicator closes it when it closes. rw buffers conn.
	AcceptLink(conn net.Conn, rw *bufio.ReadWriter, source string, epoch int64)
	// Status reports stream positions and health.
	Status() replication.Status
	// Samples reports the status as the node's replication series,
	// merged into /v1/stats and /v1/metrics.
	Samples() []metrics.Sample
}

// WithReplication mounts the replication ingest route and the admin
// status endpoint over the given manager:
//
//	POST /v1/replication/records    open a peer's replication link (Upgrade)
//	GET  /v1/admin/replication      stream positions, lag, health
//
// The ingest route only upgrades to replication.LinkProtocol, handing
// the connection to the manager, whose Self the 101 names. Without this
// option both answer 501.
func WithReplication(r Replicator) HandlerOption {
	return func(h *Handler) { h.repl, h.replSelf = r, r.Status().Self }
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

// ingestReplication upgrades a peer's request, whose source and epoch
// headers check out, to a link answered in the manager's own name.
func (h *Handler) ingestReplication(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	var source string
	var epoch int64
	conn, brw, ok := h.upgrade(rw, req, replication.LinkProtocol, h.replSelf, func(hdr http.Header) (err error) {
		if source = hdr.Get(replication.HdrSource); source == "" {
			return errors.New("missing " + replication.HdrSource + " header")
		}
		if epoch, err = strconv.ParseInt(hdr.Get(replication.HdrEpoch), 10, 64); err != nil {
			return fmt.Errorf("bad %s header: %w", replication.HdrEpoch, err)
		}
		return nil
	})
	if ok {
		r.AcceptLink(conn, brw, source, epoch)
	}
}

// handleReplicationStatus serves the admin view of both stream roles.
func (h *Handler) handleReplicationStatus(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	h.writeJSON(rw, http.StatusOK, ReplicationStatusResponse{Replication: r.Status()})
}
