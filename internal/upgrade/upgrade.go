// Package upgrade dials the HTTP/1.1 Upgrade (RFC 9110 §7.8) that the
// stream data plane and the replication link both open on a node's REST
// listener. The receiving node names itself in the 101.
package upgrade

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// HdrNode carries the receiving node's ID on a 101.
const HdrNode = "X-Reef-Node"

// RefusedError is an upgrade answered with Code instead of 101: a 404
// from a node that predates the route, a 503 from one still starting.
type RefusedError struct {
	Code int
	Msg  string
}

func (e *RefusedError) Error() string { return e.Msg }

// Dial POSTs a plain HTTP/1.1 request to url through rt asking to
// upgrade to protocol, with the extra header fields hdr, and returns the
// switched connection and the node its 101 names ("" from a receiver
// older than HdrNode); timeout bounds the exchange.
func Dial(rt http.RoundTripper, url, protocol string, hdr http.Header, timeout time.Duration) (io.ReadWriteCloser, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return nil, "", err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", protocol)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, "", err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		resp.Body.Close()
		return nil, "", &RefusedError{Code: resp.StatusCode, Msg: fmt.Sprintf("%s answered %s: %s", url, resp.Status, data)}
	}
	return rwc, resp.Header.Get(HdrNode), nil
}
