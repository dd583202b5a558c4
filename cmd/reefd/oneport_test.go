package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"reef"
	"reef/reefclient"
	"reef/reefstream"
)

// TestMain runs the test binary as reefd itself when asked to, so the
// end-to-end tests start real reefd processes without building one.
func TestMain(m *testing.M) {
	if os.Getenv("REEFD_TEST_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reefdCmd returns a reefd process over args, logging into out.
func reefdCmd(args []string, out *bytes.Buffer) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REEFD_TEST_AS_MAIN=1")
	cmd.Stdout, cmd.Stderr = out, out
	return cmd
}

// startReefd starts a reefd on args and waits until its readyz answers
// 200; cleanup SIGTERMs it and checks that it shut down cleanly.
func startReefd(t *testing.T, baseURL string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	cmd := reefdCmd(args, &out)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil || !strings.Contains(out.String(), "shut down cleanly") {
			t.Errorf("reefd %v exited with %v:\n%s", args, err, out.String())
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(baseURL + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("reefd %v never became ready:\n%s", args, out.String())
		}
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// metricValue reads one unlabelled sample from a node's /v1/metrics.
func metricValue(t *testing.T, c *reefclient.Client, name string) float64 {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in:\n%s", name, text)
	return 0
}

// TestOnePortCluster is the one-port acceptance test: two file-backed
// nodes at k=1 and a router, each given only -addr, serve REST, the
// stream and the replication link on that one address, and a router
// reaches every node's stream from the node's base URL, also one given
// with a trailing slash.
func TestOnePortCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three reefd processes")
	}
	ctx := context.Background()
	a1, a2, ar := freeAddr(t), freeAddr(t), freeAddr(t)
	u1, u2, ur := "http://"+a1, "http://"+a2, "http://"+ar
	peers := "n1=" + u1 + ",n2=" + u2
	common := []string{"-scale", "0.02", "-pipeline", "1h", "-poll", "1h", "-drain-grace", "10ms"}
	dir := t.TempDir()
	startReefd(t, u1, append(common, "-addr", a1, "-node-id", "n1", "-data-dir", filepath.Join(dir, "n1"), "-replicas", "1", "-peers", peers)...)
	startReefd(t, u2, append(common, "-addr", a2, "-node-id", "n2", "-data-dir", filepath.Join(dir, "n2"), "-replicas", "1", "-peers", peers)...)
	// The router's node list ends each base URL with a slash, which the
	// stream client trims as the REST client does.
	startReefd(t, ur, append(common, "-addr", ar, "-cluster-nodes", "n1="+u1+"/,n2="+u2+"/", "-replicas", "1")...)
	n1, n2, router := reefclient.New(u1), reefclient.New(u2), reefclient.New(ur)
	t.Cleanup(func() { n1.Close(); n2.Close(); router.Close() })

	// REST: a reliable subscription placed on n1.
	const feed = "http://c0000.web.test/feeds/0.xml"
	sub, err := n1.Subscribe(ctx, "u1", feed, reef.WithGuarantee(reef.AtLeastOnce))
	if err != nil {
		t.Fatalf("REST subscribe: %v", err)
	}
	ev := reef.Event{Source: "oneport", Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://c0000.web.test/story/1.html",
	}}

	// The router's publishes ride both nodes' streams.
	if _, err := router.PublishEvent(ctx, ev); err != nil {
		t.Fatalf("router publish: %v", err)
	}
	for _, n := range []*reefclient.Client{n1, n2} {
		if got := metricValue(t, n, "reef_stream_frames_in_total"); got <= 0 {
			t.Errorf("node stream frames in after a router publish = %v, want > 0", got)
		}
	}

	// The stream, dialed from n1's base URL: publish, push, ack.
	sc := reefstream.NewClient(u1+"/", reefstream.WithExpectNode("n1"))
	t.Cleanup(func() { sc.Close() })
	if n, err := sc.PublishEvent(ctx, ev); err != nil || n < 1 {
		t.Fatalf("stream publish = (%d, %v), want a delivery", n, err)
	}
	evs, err := sc.FetchEvents(ctx, "u1", sub.ID, 8)
	if err != nil || len(evs) == 0 {
		t.Fatalf("stream fetch = (%d events, %v), want the published events", len(evs), err)
	}
	if err := sc.Ack(ctx, "u1", sub.ID, evs[len(evs)-1].Seq, false); err != nil {
		t.Fatalf("stream ack: %v", err)
	}

	// The link ships n1's records to n2 over the same address.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st, err := n1.ReplicationStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Peers) == 1 && st.Peers[0].Shipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n1 never shipped to n2: %+v", st)
		}
	}
}

// TestStreamAddrFlagGone pins that the second listener's flag is gone.
func TestStreamAddrFlagGone(t *testing.T) {
	var out bytes.Buffer
	err := reefdCmd([]string{"-stream-addr", "127.0.0.1:0"}, &out).Run()
	if err == nil || !strings.Contains(out.String(), "flag provided but not defined: -stream-addr") {
		t.Fatalf("reefd -stream-addr = %v:\n%s", err, out.String())
	}
}
