package upgrade

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reef/internal/durable"
)

// acceptOnce serves one TCP connection with Accept in node's name and
// reports Accept's error.
func acceptOnce(t *testing.T, node string, links bool) (addr string, accepted <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	errc := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		_, err = Accept(conn, conn, node, links)
		errc <- err
	}()
	return ln.Addr().String(), errc
}

// TestOpenAccept runs both halves of the hellos over TCP: what the
// client asks for, what the server answers, and what each end reports.
func TestOpenAccept(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hello   Hello
		expect  string
		links   bool
		openErr string // "" means Open succeeds
		refused string // Accept's refusal, "" for none
	}{
		{name: "stream client", expect: "n1"},
		{name: "link", hello: Hello{Link: true, Source: "a", Epoch: 7}, expect: "n1", links: true},
		{name: "identity mismatch", expect: "n2", openErr: `node identity mismatch: dialed "n2", reached "n1"`},
		{name: "link without a manager", hello: Hello{Link: true, Source: "a"}, openErr: "hello refused: this node takes no replication links",
			refused: "this node takes no replication links"},
		{name: "link without a source", hello: Hello{Link: true}, links: true, openErr: "hello refused: a link hello must name its source",
			refused: "a link hello must name its source"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepted := acceptOnce(t, "n1", tc.links)
			conn, err := Open(context.Background(), nil, addr, tc.hello, tc.expect, 5*time.Second)
			if tc.openErr == "" {
				if err != nil {
					t.Fatalf("Open = %v", err)
				}
				conn.Close()
			} else if err == nil || !strings.Contains(err.Error(), tc.openErr) {
				t.Fatalf("Open = %v, want %q", err, tc.openErr)
			}
			aerr := <-accepted
			if (aerr == nil) != (tc.refused == "") || aerr != nil && aerr.Error() != tc.refused {
				t.Fatalf("Accept = %v, want refusal %q", aerr, tc.refused)
			}
		})
	}
}

// TestHelloVersion pins that either end refuses a hello of another
// protocol version.
func TestHelloVersion(t *testing.T) {
	hello := func(proto int) []byte {
		payload, _ := json.Marshal(Hello{Proto: proto, Node: "n1"})
		return durable.Record{Op: durable.OpStreamHello, Payload: payload}.AppendEncoded(nil)
	}
	const want = "hello protocol version 2, want 1"

	client, server := net.Pipe()
	defer client.Close()
	go client.Write(hello(2))
	if _, err := Accept(server, server, "n1", false); err == nil || err.Error() != want {
		t.Fatalf("Accept of a version 2 hello = %v, want %q", err, want)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf []byte
		durable.ReadFrame(conn, &buf)
		conn.Write(hello(2))
	}()
	if _, err := Open(context.Background(), nil, ln.Addr().String(), Hello{}, "", 5*time.Second); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open answered by a version 2 hello = %v, want %q", err, want)
	}
}

// TestOpenRefused pins that an upgrade answered with anything but 101
// fails Open with a RefusedError carrying the status.
func TestOpenRefused(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusUpgradeRequired, http.StatusServiceUnavailable} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != Path || r.Header.Get("Upgrade") != Protocol {
				t.Errorf("request %s with Upgrade %q, want %s with %q", r.URL.Path, r.Header.Get("Upgrade"), Path, Protocol)
			}
			http.Error(w, "no", code)
		}))
		_, err := Open(context.Background(), http.DefaultTransport, srv.URL, Hello{}, "", 5*time.Second)
		var re *RefusedError
		if !errors.As(err, &re) || re.Code != code {
			t.Errorf("Open answered %d = %v, want a RefusedError with that code", code, err)
		}
		srv.Close()
	}
}

// TestAcceptHelloBound pins the server's hello bound on the package's
// timer: a client that sends no hello is closed after helloTimeout, 10
// s, and Accept says so. The timer fires at once here.
func TestAcceptHelloBound(t *testing.T) {
	var got time.Duration
	fire(t, func(d time.Duration, f func()) func() bool {
		got = d
		f()
		return func() bool { return false }
	})
	client, server := net.Pipe()
	defer client.Close()
	_, err := Accept(server, server, "n1", false)
	if err == nil || err.Error() != "hellos timed out after 10s" || got != 10*time.Second {
		t.Fatalf("Accept with no hello = %v after a %v bound, want the 10s bound", err, got)
	}
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server's end is still open")
	}
}

// fire swaps the package's timer for the test's.
func fire(t *testing.T, after func(time.Duration, func()) func() bool) {
	t.Helper()
	prev := afterFunc
	afterFunc = after
	t.Cleanup(func() { afterFunc = prev })
}
