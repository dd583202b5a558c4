package reefhttp_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/replication"
	"reef/internal/upgrade"
	"reef/reefhttp"
	"reef/reefstream"
)

// newDrainServer mounts a handler with a replication manager, so that
// its upgrade route takes both roles, and returns it with its server.
func newDrainServer(t *testing.T) (*reefhttp.Handler, *httptest.Server) {
	t.Helper()
	_, dep := newTestServer(t)
	mgr, err := replication.New(replication.Options{
		Self:    "b",
		Nodes:   []replication.Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}},
		Applier: &replTestApplier{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	h := reefhttp.NewHandler(dep, nil, reefhttp.WithReplication(mgr))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return h, srv
}

// TestShutdownClosesHelloConn pins that Handler.Shutdown reaches a
// connection still in its hellos: upgraded, 101 read, no hello sent. It
// is closed within the drain's 100 ms context, not at the 10 s hello
// bound.
func TestShutdownClosesHelloConn(t *testing.T) {
	h, srv := newDrainServer(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "POST "+upgrade.Path+" HTTP/1.1\r\nHost: reef\r\nConnection: Upgrade\r\nUpgrade: "+upgrade.Protocol+"\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade = %v, %v; want 101", resp, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	deadline, _ := ctx.Deadline()
	conn.SetReadDeadline(deadline)
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("the connection in its hellos read %v %v after Shutdown began, want EOF within the drain's context",
			err, time.Since(begin))
	}
}

// TestDrainingRefusesUpgrades pins that a draining handler refuses both
// roles before 101, with 503: a link dial fails with a RefusedError,
// and a stream client's publish with StatusUnavailable.
func TestDrainingRefusesUpgrades(t *testing.T) {
	h, srv := newDrainServer(t)
	if err := h.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, err := replication.DialLink(http.DefaultTransport, replication.Node{BaseURL: srv.URL}, "a", 1, 5*time.Second)
	var re *upgrade.RefusedError
	if !errors.As(err, &re) || re.Code != http.StatusServiceUnavailable {
		t.Errorf("link dial to a draining handler = %v, want a 503 RefusedError", err)
	}

	cl := reefstream.NewClient(srv.URL)
	defer cl.Close()
	_, err = cl.PublishEvent(context.Background(), reef.Event{Source: "t", Attrs: map[string]string{"type": "feed-item"}})
	var se *reefstream.StatusError
	if !errors.As(err, &se) || se.Status != reefstream.StatusUnavailable {
		t.Errorf("publish to a draining handler = %v, want StatusUnavailable", err)
	}
}
