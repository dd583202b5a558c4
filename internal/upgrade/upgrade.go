// Package upgrade opens the one connection every node serves on its REST
// listener: an HTTP/1.1 Upgrade (RFC 9110 §7.8) to Protocol on Path,
// then one hello frame each way. The client's hello declares its role,
// a stream client or a peer's replication link; the server's names the
// node, which the client checks against the node it dialed. A Listen
// server takes the same hellos on a bare TCP connection. Past the
// hellos, a Conn carries either role on the dialing end, and a Set
// holds a server's connections for its drain.
package upgrade

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"reef/internal/durable"
)

// Path is the route a node serves the upgrade on, Protocol the Upgrade
// token that asks for it, and Version the hello protocol version.
const (
	Path     = "/v1/stream"
	Protocol = "reef-stream/1"
	Version  = 1
)

// helloTimeout bounds how long a server waits for a fresh connection's
// hello and then for its own answer to be written.
const helloTimeout = 10 * time.Second

// Hello is the JSON payload of the first frame each end sends. A client
// sends Proto, and Link with the sender's Source and process Epoch when
// it opens a replication link, fixed for the link's life. The server
// answers Proto, its Node and Clicks, plus Refused, the reason, when it
// will not serve the role asked for. Clicks is for older stream clients,
// which send clicks frames only to a server that sets it.
type Hello struct {
	Proto   int    `json:"proto"`
	Node    string `json:"node,omitempty"`
	Clicks  bool   `json:"clicks,omitempty"`
	Link    bool   `json:"link,omitempty"`
	Source  string `json:"source,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
	Refused string `json:"refused,omitempty"`
}

// RefusedError is an upgrade answered with Code instead of 101: a 404
// from a node that predates the route, a 503 from one still starting.
type RefusedError struct {
	Code int
	Msg  string
}

func (e *RefusedError) Error() string { return e.Msg }

// Open dials addr and exchanges hellos: a node's base URL by an upgrade
// through rt, a Listen server's host:port by TCP. It sends h and returns
// the connection once the server's hello takes it and, when expect is
// set, names expect. timeout bounds the dial and the hellos together,
// and ctx ending aborts them.
func Open(ctx context.Context, rt http.RoundTripper, addr string, h Hello, expect string, timeout time.Duration) (io.ReadWriteCloser, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	conn, err := dial(ctx, rt, addr)
	if err != nil {
		return nil, err
	}
	unwatch := context.AfterFunc(ctx, func() { conn.Close() })
	h.Proto = Version
	if err = writeHello(conn, h); err == nil {
		h, err = readHello(conn)
	}
	switch {
	case !unwatch():
		err = fmt.Errorf("hellos: %w", ctx.Err())
	case err != nil:
		err = fmt.Errorf("hello: %w", err)
	case h.Refused != "":
		err = fmt.Errorf("hello refused: %s", h.Refused)
	case expect != "" && h.Node != expect:
		err = fmt.Errorf("node identity mismatch: dialed %q, reached %q", expect, h.Node)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// dial connects to a host:port by TCP, or to a base URL by POSTing a
// plain HTTP/1.1 request to its Path through rt asking to upgrade to
// Protocol, and returns the connection; ctx bounds the exchange.
func dial(ctx context.Context, rt http.RoundTripper, addr string) (io.ReadWriteCloser, error) {
	if !strings.Contains(addr, "://") {
		return new(net.Dialer).DialContext(ctx, "tcp", addr)
	}
	url := addr + Path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", Protocol)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		resp.Body.Close()
		return nil, &RefusedError{Code: resp.StatusCode, Msg: fmt.Sprintf("%s answered %s: %s", url, resp.Status, data)}
	}
	return rwc, nil
}

// Accept runs the server's half of the hellos on conn, reading through r
// (conn itself, or a reader holding bytes already read from it). It
// answers the client's hello in node's name and returns it, refusing a
// link hello, with its reason, when links is false or it names no
// source. The hellos get helloTimeout, after which conn is closed. On an
// error the caller closes conn.
func Accept(conn net.Conn, r io.Reader, node string, links bool) (Hello, error) {
	expired := afterFunc(helloTimeout, func() { conn.Close() })
	h, err := readHello(r)
	if err == nil {
		answer := Hello{Proto: Version, Node: node, Clicks: true}
		switch {
		case h.Link && !links:
			answer.Refused = "this node takes no replication links"
		case h.Link && h.Source == "":
			answer.Refused = "a link hello must name its source"
		}
		if err = writeHello(conn, answer); err == nil && answer.Refused != "" {
			err = errors.New(answer.Refused)
		}
	}
	if !expired() {
		err = fmt.Errorf("hellos timed out after %v", helloTimeout)
	}
	return h, err
}

// writeHello sends h as one hello frame, in one write.
func writeHello(w io.Writer, h Hello) error {
	payload, _ := json.Marshal(h) // ints, strings and bools
	_, err := w.Write(durable.Record{Op: durable.OpStreamHello, Payload: payload}.AppendEncoded(nil))
	return err
}

// readHello reads the peer's hello frame, no byte past it, and checks
// its version.
func readHello(r io.Reader) (h Hello, err error) {
	var buf []byte
	rec, err := durable.ReadFrame(r, &buf)
	switch {
	case err != nil:
		return h, err
	case rec.Op != durable.OpStreamHello:
		return h, fmt.Errorf("expected a hello, got %v", rec.Op)
	case json.Unmarshal(rec.Payload, &h) != nil:
		return h, errors.New("the hello is not JSON")
	case h.Proto != Version:
		return h, fmt.Errorf("hello protocol version %d, want %d", h.Proto, Version)
	}
	return h, nil
}
