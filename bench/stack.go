package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"reef"
	"reef/internal/replication"
	"reef/internal/websim"
	"reef/reefcluster"
	"reef/reefhttp"
	"reef/reefstream"
)

// The stack is booted in one process through the public constructors only:
// reef.NewCentralized, reefhttp.NewHandler, reefstream.Listen,
// replication.New, reefcluster.New, reefclient.New. Nothing here reaches
// into a layer; the traced run interposes at the seams these constructors
// already take an interface at.

// Harness hazards found while sizing (see README.md "Hazards"):
const (
	// The reliable queue is fed by the best-effort pump; a DropNewest
	// overflow of the broker queue starves it silently, so nodes that serve
	// high-rate reliable consumers get a deep broker queue.
	reliableQueueSize = 8192
	// A scheduler stall on a loaded 2-core box must not flap membership.
	probeInterval = 2 * time.Second
	// Nothing may dead-letter or redeliver because the harness was slow.
	probeAckTimeout  = time.Minute
	probeMaxAttempts = 1_000_000
	// Bounds every forwarded call and every idle stream fetch. Consumers
	// are never stopped through their context: the router treats an expired
	// caller deadline as a node fault and demotes a healthy node.
	callTimeout = 5 * time.Second
	// The WAL is appended to but not fsynced on a timer. On the reference VM
	// the 20 fsyncs a second per journal that SyncAsync issues drain the
	// virtual disk's burst budget within about a minute of back-to-back
	// runs; the throttled disk then shows up as steal time and every
	// latency rises 3-10x for minutes. That is the host, not the system.
	// Automatic compaction is off for the same reason one level up: a
	// snapshot every 4096 records lands one to three stalls at random
	// offsets in a six-second phase. One explicit snapshot is timed instead.
	walSync = reef.SyncNever
)

// nopFetcher is the web of the pub-sub workloads: they never crawl.
type nopFetcher struct{}

func (nopFetcher) Fetch(url string) (*websim.Resource, error) {
	return nil, fmt.Errorf("bench: %s is not on this web", url)
}

// nodeSpec describes one node the way reefd's flags would.
type nodeSpec struct {
	id        string
	dir       string // empty = memory-backed
	shards    int
	queueSize int
	fetcher   websim.Fetcher
	rest      bool
	stream    bool
	// replication: the shared seed list and k. peers is nil when off.
	peers    []replication.Node
	replicas int
}

type node struct {
	spec nodeSpec
	dep  *reef.Centralized
	// front is what the transports serve: dep itself, or the tracing
	// wrapper around it.
	front  reef.Deployment
	mgr    *replication.Manager
	ln     net.Listener
	srv    *http.Server
	stream *reefstream.Server
}

func (s nodeSpec) options() []reef.Option {
	opts := []reef.Option{reef.WithFetcher(s.fetcher)}
	if s.shards > 0 {
		opts = append(opts, reef.WithShards(s.shards))
	}
	if s.queueSize > 0 {
		opts = append(opts, reef.WithQueueSize(s.queueSize))
	}
	if s.dir != "" {
		opts = append(opts, reef.WithDataDir(s.dir), reef.WithSyncPolicy(walSync), reef.WithSnapshotEvery(-1))
	}
	return opts
}

// startNode builds one node on an already-bound REST listener (nil when the
// node has no REST surface). tr is nil on an untraced run.
func startNode(spec nodeSpec, ln net.Listener, tr *tracer, idx int) (*node, error) {
	dep, err := reef.NewCentralized(spec.options()...)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", spec.id, err)
	}
	n := &node{spec: spec, dep: dep, front: dep, ln: ln}
	var applier replication.Applier = dep
	if tr != nil {
		td := &tracedDep{Centralized: dep, t: tr, node: idx}
		n.front, applier = td, td
	}
	handlerOpts := []reefhttp.HandlerOption{reefhttp.WithNodeID(spec.id)}
	ready := reefhttp.NewReadiness()
	ready.SetReady()
	handlerOpts = append(handlerOpts, reefhttp.WithReadiness(ready))
	if spec.peers != nil {
		n.mgr, err = replication.New(replication.Options{
			Self:     spec.id,
			Nodes:    spec.peers,
			Replicas: spec.replicas,
			Applier:  applier,
			Dir:      filepath.Join(spec.dir, "replication"),
		})
		if err != nil {
			n.stop()
			return nil, fmt.Errorf("node %s: %w", spec.id, err)
		}
		tap := n.mgr.Offer
		if tr != nil {
			tap = tr.wrapTap(tap)
		}
		dep.SetReplicationTap(tap)
		handlerOpts = append(handlerOpts, reefhttp.WithReplication(n.mgr))
	}
	if spec.stream {
		n.stream, err = reefstream.Listen("127.0.0.1:0", n.front, reefstream.WithNode(spec.id))
		if err != nil {
			n.stop()
			return nil, fmt.Errorf("node %s: %w", spec.id, err)
		}
		handlerOpts = append(handlerOpts, reefhttp.WithStreamAddr(n.stream.Addr().String()))
	}
	if spec.rest {
		n.srv = &http.Server{Handler: reefhttp.NewHandler(n.front, nil, handlerOpts...)}
		go func() { _ = n.srv.Serve(ln) }()
	}
	return n, nil
}

func (n *node) baseURL() string { return "http://" + n.ln.Addr().String() }

func (n *node) clusterNode() reefcluster.Node {
	cn := reefcluster.Node{ID: n.spec.id, BaseURL: n.baseURL()}
	if n.stream != nil {
		cn.StreamAddr = n.stream.Addr().String()
	}
	return cn
}

// stopServing closes the transports and the replication manager, leaving
// the deployment open.
func (n *node) stopServing() {
	if n.stream != nil {
		_ = n.stream.Close()
		n.stream = nil
	}
	if n.srv != nil {
		_ = n.srv.Close()
		n.srv = nil
	}
	if n.mgr != nil {
		n.mgr.Close()
		n.mgr = nil
	}
}

func (n *node) stop() {
	n.stopServing()
	if n.dep != nil {
		_ = n.dep.Close()
		n.dep = nil
	}
}

// fleet is a set of nodes and, when there are several, the router in front
// of them. Everything it wrote lives under tmp.
type fleet struct {
	tmp    string
	nodes  []*node
	router *reefcluster.Cluster
}

// fleetSpec sizes a fleet.
type fleetSpec struct {
	nodes     int
	replicas  int
	durable   bool
	shards    int
	queueSize int
	fetcher   websim.Fetcher
	rest      bool
	stream    bool
	router    bool
}

// startFleet boots the nodes (and router) under a fresh directory in base.
func startFleet(base string, fs fleetSpec, tr *tracer) (*fleet, error) {
	tmp, err := os.MkdirTemp(base, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{tmp: tmp}
	lns := make([]net.Listener, fs.nodes)
	var peers []replication.Node
	for i := range lns {
		if !fs.rest {
			continue
		}
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			f.stop()
			return nil, err
		}
		if fs.replicas > 0 {
			peers = append(peers, replication.Node{ID: nodeID(i), BaseURL: "http://" + lns[i].Addr().String()})
		}
	}
	for i := 0; i < fs.nodes; i++ {
		spec := nodeSpec{
			id: nodeID(i), shards: fs.shards, queueSize: fs.queueSize, fetcher: fs.fetcher,
			rest: fs.rest, stream: fs.stream, peers: peers, replicas: fs.replicas,
		}
		if fs.durable {
			spec.dir = filepath.Join(tmp, spec.id)
		}
		n, err := startNode(spec, lns[i], tr, i)
		if err != nil {
			for _, ln := range lns[i:] {
				if ln != nil {
					_ = ln.Close()
				}
			}
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	if fs.router {
		var cns []reefcluster.Node
		for _, n := range f.nodes {
			cns = append(cns, n.clusterNode())
		}
		f.router, err = reefcluster.New(reefcluster.Config{
			Nodes: cns, Replicas: fs.replicas,
			ProbeInterval: probeInterval, CallTimeout: callTimeout,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// durable reports whether the nodes keep a data directory.
func (f *fleet) durable() bool { return f.nodes[0].spec.dir != "" }

func nodeID(i int) string { return fmt.Sprintf("n%d", i) }

// stop tears the fleet down and removes its directory.
func (f *fleet) stop() {
	if f.router != nil {
		_ = f.router.Close()
	}
	for _, n := range f.nodes {
		n.stop()
	}
	_ = os.RemoveAll(f.tmp)
}

// drainReplication waits until every outbound replication stream is fully
// acked, sampling the peak backlog on the way, and reports how long that
// took.
func (f *fleet) drainReplication(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		var pending int64
		for _, n := range f.nodes {
			if n.mgr == nil {
				continue
			}
			for _, p := range n.mgr.Status().Peers {
				pending += p.Pending
			}
		}
		if pending == 0 {
			return time.Since(start), nil
		}
		if time.Since(start) > timeout {
			return time.Since(start), fmt.Errorf("replication still has %d records pending after %v", pending, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recoverNode stops node 0 and times reopening its data directory, cycles
// times. Nothing is appended between reopens, so each replays the same
// files. It returns the reopen times and what the last reopen replayed.
func (f *fleet) recoverNode(cycles int) ([]time.Duration, reef.StorageInfo, error) {
	n := f.nodes[0]
	n.stopServing()
	// Close flushes the buffered WAL tail and takes no snapshot, so the
	// reopen replays the log the way it would after a crash.
	if err := n.dep.Close(); err != nil {
		return nil, reef.StorageInfo{}, err
	}
	n.dep = nil
	var times []time.Duration
	var info reef.StorageInfo
	for i := 0; i < cycles; i++ {
		// The stack just closed is garbage now; collecting it inside the
		// timed reopen would charge the reopen for it.
		runtime.GC()
		start := time.Now()
		dep, err := reef.NewCentralized(n.spec.options()...)
		if err != nil {
			return nil, info, fmt.Errorf("reopening %s: %w", n.spec.dir, err)
		}
		times = append(times, time.Since(start))
		if info, err = dep.StorageInfo(context.Background()); err != nil {
			return nil, info, err
		}
		if err := dep.Close(); err != nil {
			return nil, info, err
		}
	}
	return times, info, nil
}
