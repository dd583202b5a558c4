package reef

// Replication glue: how a Centralized deployment feeds a replication
// sender (the tap) and absorbs a peer's stream (ApplyReplicated /
// ApplyReplicatedCut). The deployment stays transport-free — the
// internal/replication manager owns connections and positions; this
// file only bridges durable records to the sharded engines.
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
// batches are split and re-framed per shard, flags broadcast to every
// shard (the flag store is an idempotent OR-set, so the broadcast is
// safe under redelivery), and user-addressed ops dispatch to the
// owning shard's replay hooks. Every landed record is journaled via
// Ingest so it survives this node's own crashes.
func (c *Centralized) ApplyReplicated(recs []durable.Record) error {
	if err := c.checkOpen(context.Background()); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := c.applyReplicatedRecord(rec); err != nil {
			return fmt.Errorf("reef: applying replicated %v record: %w", rec.Op, err)
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
	case durable.OpFlag:
		var p durable.FlagPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		for _, e := range c.shards {
			rep := e.replay()
			if err := e.journal.Ingest(
				func() error { rep.setFlag(p.Host, p.Flag); return nil },
				rec,
			); err != nil {
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
// same consistency a multi-shard snapshot already has.
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
