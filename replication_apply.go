package reef

// Replication glue: how a Centralized deployment feeds a replication
// sender (the tap) and absorbs a peer's stream (ApplyReplicated /
// ApplyReplicatedCut). The deployment stays transport-free — the
// internal/replication manager owns connections and the handshake; this
// file bridges durable records to the sharded engines, and journals the
// positions the manager acks (OpReplPosition) beside the records they
// cover.
//
// The invariant both directions share: a replicated record is applied
// AND journaled on the shard that owns its user (via
// durable.Journal.Ingest, which appends without feeding the tap), so a
// replica's own recovery replays it exactly like a local mutation, and
// it is never re-shipped — two nodes replicating to each other cannot
// loop.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"

	"reef/internal/attention"
	"reef/internal/durable"
)

// SetReplicationTap registers fn to observe every locally-originated
// durable record, across all shards, after it is safely in the WAL.
// Within one shard the tap order equals the WAL append order — which
// is all replication needs, because a user's records all live on one
// shard. Records ingested through ApplyReplicated do not reach the
// tap. On a memory-only deployment this is a no-op: there is no WAL,
// so there is nothing to ship.
func (c *Centralized) SetReplicationTap(fn func(durable.Record)) {
	for _, e := range c.shards {
		e.journal.SetTap(fn)
	}
}

// ReplicationEnabled reports whether this deployment journals at all —
// replication ships the WAL, so no WAL means nothing to replicate.
func (c *Centralized) ReplicationEnabled() bool {
	return len(c.shards) > 0 && c.shards[0].journal.Enabled()
}

// ApplyReplicated applies a batch of records received from a peer, in
// order. Each record lands on the shard its user hashes to: click
// batches are split and re-framed per shard, flags and replication
// positions broadcast to every shard (the flag store is an idempotent
// OR-set, so the broadcast is safe under redelivery), and
// user-addressed ops dispatch to the owning shard's replay hooks. Every
// landed record is journaled via Ingest so it survives this node's own
// crashes, and every shard's journal is flushed before the call returns:
// a batch the caller acks then survives this process dying, whatever the
// sync policy.
func (c *Centralized) ApplyReplicated(recs []durable.Record) error {
	if err := c.checkOpen(context.Background()); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := c.applyReplicatedRecord(rec); err != nil {
			return fmt.Errorf("reef: applying replicated %v record: %w", rec.Op, err)
		}
	}
	for _, e := range c.shards {
		if err := e.journal.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Centralized) applyReplicatedRecord(rec durable.Record) error {
	n := len(c.shards)
	switch rec.Op {
	case durable.OpClicks:
		var p durable.ClicksPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		for i, g := range byShard(p.Clicks, n, func(c attention.Click) string { return c.User }) {
			if len(g) == 0 {
				continue
			}
			e := c.shards[i]
			if err := e.journal.Ingest(
				func() error { serverOf(e).ApplyReplicatedClicks(g); return nil },
				durable.ClicksRecord(g),
			); err != nil {
				return err
			}
		}
		return nil
	case durable.OpFlag, durable.OpReplPosition:
		// A position lands on every shard after that shard's share of the
		// batch it closes, so each shard's log holds what it claims.
		for _, e := range c.shards {
			rep := e.replay()
			if err := e.journal.Ingest(func() error { return rep.applyRecord(rec) }, rec); err != nil {
				return err
			}
		}
		return nil
	default:
		user, err := replicatedRecordUser(rec)
		if err != nil {
			return err
		}
		e := c.shard(user)
		rep := e.replay()
		return e.journal.Ingest(func() error { return rep.applyRecord(rec) }, rec)
	}
}

// ReplicationPositions reports how far this node's logs hold each
// source's replication stream, merged over the shards (see
// mergeReplPositions), sorted by source.
func (c *Centralized) ReplicationPositions() []durable.ReplPosition {
	tables := make([]map[string]durable.ReplPosition, len(c.shards))
	for i, e := range c.shards {
		e.mu.Lock()
		tables[i] = maps.Clone(e.replPos)
		e.mu.Unlock()
	}
	return mergeReplPositions(tables)
}

// mergeReplPositions folds position tables — one per shard, or one per
// old directory in a migration — into one list sorted by source. Per
// source the newest epoch wins, and within it the lowest applied
// position: a table in an older epoch, or one without the source, reads
// 0. A shard whose log lost a tail therefore has the sender re-ship
// that tail instead of skipping it.
func mergeReplPositions(tables []map[string]durable.ReplPosition) []durable.ReplPosition {
	epochs := make(map[string]int64)
	for _, t := range tables {
		for src, p := range t {
			if e, ok := epochs[src]; !ok || p.Epoch > e {
				epochs[src] = p.Epoch
			}
		}
	}
	out := make([]durable.ReplPosition, 0, len(epochs))
	for src, epoch := range epochs {
		p := durable.ReplPosition{Source: src, Epoch: epoch, Applied: math.MaxInt64}
		for _, t := range tables {
			q, ok := t[src]
			if !ok || q.Epoch != epoch {
				q.Applied = 0
			}
			p.Applied = min(p.Applied, q.Applied)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// replicatedRecordUser extracts the owning user from a user-addressed
// record payload (every non-clicks, non-flag payload carries "user").
func replicatedRecordUser(rec durable.Record) (string, error) {
	var p struct {
		User string `json:"user"`
	}
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		return "", err
	}
	if p.User == "" {
		return "", fmt.Errorf("record has no user")
	}
	return p.User, nil
}

// CaptureReplicationState cuts a consistent-enough full state for a
// replica that is too far behind to catch up from the record stream:
// each shard's state is captured under its journal lock (a per-shard
// consistent cut), then merged. Shards cut independently — the merge
// is not a single global point in the operation stream, which is the
// same consistency a multi-shard snapshot already has. The cut carries
// no replication positions: they say what this node applied, which is
// nothing a peer should adopt.
func (c *Centralized) CaptureReplicationState() (*durable.State, error) {
	if err := c.checkOpen(context.Background()); err != nil {
		return nil, err
	}
	out := &durable.State{Version: 1}
	for _, e := range c.shards {
		st, err := e.journal.Capture()
		if err != nil {
			return nil, err
		}
		if st == nil { // journal disabled: nothing durable to cut
			continue
		}
		out.Clicks = append(out.Clicks, st.Clicks...)
		out.Subscriptions = append(out.Subscriptions, st.Subscriptions...)
		out.Pending = append(out.Pending, st.Pending...)
		out.Cursors = append(out.Cursors, st.Cursors...)
		if st.PendingSeq > out.PendingSeq {
			out.PendingSeq = st.PendingSeq
		}
		for h, f := range st.Flags {
			if out.Flags == nil {
				out.Flags = make(map[string]int)
			}
			out.Flags[h] |= f
		}
	}
	return out, nil
}

// ApplyReplicatedCut absorbs a peer's snapshot cut: the state is
// replayed through the same routed hooks recovery uses (clicks split
// per shard, flags broadcast, users dispatched by hash), then every
// shard snapshots so the cut is durable here before the record stream
// resumes. The cut must land on a node that holds no conflicting state
// for the cut's users — the replication manager only requests one on a
// fresh or restarting replica.
func (c *Centralized) ApplyReplicatedCut(st *durable.State) error {
	if err := c.checkOpen(context.Background()); err != nil {
		return err
	}
	if st == nil {
		return nil
	}
	n := len(c.shards)
	dr := c.routedReplay()
	// routedReplay's clicks hook is the live ReceiveClicks, which would
	// journal (and tap — re-shipping the cut) on an armed journal.
	// Replace it with the bare mutation: the per-shard Snapshot below
	// makes the whole cut durable in one piece instead.
	dr.applyClicks = func(batch []attention.Click) error {
		for i, g := range byShard(batch, n, func(c attention.Click) string { return c.User }) {
			if len(g) > 0 {
				serverOf(c.shards[i]).ApplyReplicatedClicks(g)
			}
		}
		return nil
	}
	if err := dr.applyState(st); err != nil {
		return err
	}
	for _, e := range c.shards {
		if err := e.journal.Snapshot(); err != nil {
			return err
		}
	}
	return nil
}
