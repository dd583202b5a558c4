package main

import (
	"log/slog"
	"strings"
	"testing"
	"time"
)

// discard is the logger for flag-validation tests: the failures under
// test happen before anything worth logging.
var discard = slog.New(slog.DiscardHandler)

func TestParseClusterNodes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		wantErr string
		wantLen int
	}{
		{"two nodes", "a=http://x.test,b=http://y.test", "", 2},
		{"trailing comma and spaces", " a=http://x.test , b=http://y.test ,", "", 2},
		{"empty", "", "has no entries", 0},
		{"malformed", "a=http://x.test,b", "bad -cluster-nodes entry", 0},
		{"missing url", "a=", "bad -cluster-nodes entry", 0},
		{"duplicate id", "a=http://x.test,a=http://y.test", `duplicate node id "a"`, 0},
		{"duplicate url", "a=http://x.test,b=http://x.test", `duplicate node url "http://x.test"`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, err := parseClusterNodes("-cluster-nodes", tc.spec)
			if tc.wantErr == "" {
				if err != nil || len(nodes) != tc.wantLen {
					t.Fatalf("parse = (%d nodes, %v), want %d", len(nodes), err, tc.wantLen)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parse = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := parsePeers("a=http://x.test,b=http://y.test", "b")
	if err != nil || len(nodes) != 2 || nodes[1].ID != "b" {
		t.Fatalf("parsePeers = (%+v, %v), want both nodes", nodes, err)
	}
	if _, err := parsePeers("a=http://x.test,b=http://y.test", "c"); err == nil ||
		!strings.Contains(err.Error(), `-node-id "c" is not in -peers`) {
		t.Fatalf("parsePeers without self = %v, want self-missing error", err)
	}
}

// TestRunReplicationFlagValidation pins the fail-fast checks: every bad
// -replicas combination errors before anything binds or recovers.
func TestRunReplicationFlagValidation(t *testing.T) {
	base := func(dataDir, nodeID string, replicas int, peers string) error {
		return run(discard, ":0", 1, 0.01, time.Hour, time.Hour, dataDir, "async", 0, 1,
			nodeID, 0, 0, 0, replicas, peers)
	}
	for _, tc := range []struct {
		name    string
		err     error
		wantErr string
	}{
		{"no data dir", base("", "a", 1, "a=http://x.test,b=http://y.test"), "requires -data-dir"},
		{"no node id", base(t.TempDir(), "", 1, "a=http://x.test,b=http://y.test"), "requires -node-id"},
		{"no peers", base(t.TempDir(), "a", 1, ""), "requires -peers"},
		{"self missing", base(t.TempDir(), "c", 1, "a=http://x.test,b=http://y.test"), "not in -peers"},
		{"peers without replicas", base(t.TempDir(), "a", 0, "a=http://x.test"), "without -replicas"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil || !strings.Contains(tc.err.Error(), tc.wantErr) {
				t.Fatalf("run = %v, want error containing %q", tc.err, tc.wantErr)
			}
		})
	}
}

func TestRunRouterFlagValidation(t *testing.T) {
	if err := runRouter(discard, ":0", "a=http://x.test", "", 0, "", 1, 0, "a=http://x.test"); err == nil ||
		!strings.Contains(err.Error(), "-peers is a node flag") {
		t.Fatalf("router with -peers = %v, want node-flag error", err)
	}
	if err := runRouter(discard, ":0", "a=http://x.test", "", 0, "", 3, 0, ""); err == nil ||
		!strings.Contains(err.Error(), "-shards is a node flag") {
		t.Fatalf("router with -shards 3 = %v, want node-flag error", err)
	}
	if err := runRouter(discard, ":0", "a=http://x.test", "", 0, "", 1, 1, ""); err == nil ||
		!strings.Contains(err.Error(), "replicas") {
		t.Fatalf("router with replicas >= nodes = %v, want range error", err)
	}
}
