package reefhttp

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

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
// The ingest route only upgrades: a request carrying Upgrade:
// replication.LinkProtocol and the X-Reef-Replication-Source/Epoch
// handshake is answered 101 and its connection handed to the manager,
// which speaks the link protocol on it; anything else is answered 426.
// Without this option both routes answer 501.
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

// ingestReplication serves the ingest route: it upgrades a peer's
// request to a replication link and hands the connection to the
// replicator. The handler returns once the link is handed over, so the
// route's metrics count the upgrade, not the link's life.
func (h *Handler) ingestReplication(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	if !strings.EqualFold(req.Header.Get("Upgrade"), replication.LinkProtocol) {
		rw.Header().Set("Upgrade", replication.LinkProtocol)
		rw.Header().Set("Connection", "Upgrade")
		h.writeError(rw, http.StatusUpgradeRequired, CodeInvalidArgument,
			"replication ships over an upgraded link: send Upgrade: "+replication.LinkProtocol)
		return
	}
	source := req.Header.Get(replication.HdrSource)
	if source == "" {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing "+replication.HdrSource+" header")
		return
	}
	epoch, err := strconv.ParseInt(req.Header.Get(replication.HdrEpoch), 10, 64)
	if err != nil {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad "+replication.HdrEpoch+" header: "+err.Error())
		return
	}
	conn, brw, err := http.NewResponseController(rw).Hijack()
	if err != nil {
		h.writeError(rw, http.StatusInternalServerError, CodeInternal, "upgrading the replication link: "+err.Error())
		return
	}
	if sw, ok := rw.(*statusWriter); ok {
		sw.status = http.StatusSwitchingProtocols
	}
	// A server's read and write timeouts would outlive the request on
	// the hijacked connection; the link's sender bounds each batch.
	_ = conn.SetDeadline(time.Time{})
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + replication.LinkProtocol + "\r\n\r\n")
	if err := brw.Flush(); err != nil {
		conn.Close()
		return
	}
	r.AcceptLink(conn, brw, source, epoch)
}

// handleReplicationStatus serves the admin view of both stream roles.
func (h *Handler) handleReplicationStatus(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.replicator(rw)
	if !ok {
		return
	}
	h.writeJSON(rw, http.StatusOK, ReplicationStatusResponse{Replication: r.Status()})
}
