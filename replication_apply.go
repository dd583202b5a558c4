package reef

// Replication glue: how a Centralized deployment feeds a replication
// sender (the tap, and the resync cut) and absorbs a peer's batches
// (ApplyReplicated / ApplyReplicatedCut). The deployment stays
// transport-free — the internal/replication manager owns connections and
// the handshake; this file bridges durable records to the router's
// replay — the one recovery and the layout import use — and journals the
// positions the manager acks (OpReplPosition) beside the records they
// cover.
//
// The invariant both directions share: a replicated record is journaled
// once, as received, in the node's one journal (via
// durable.Journal.Ingest, which appends without feeding the tap) and
// applied bare on the shards it concerns, so a replica's own recovery
// replays it exactly like a local mutation, and it is never re-shipped —
// two nodes replicating to each other cannot loop.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"reef/internal/durable"
)

// SetReplicationTap registers fn to observe every locally-originated
// durable record, from every shard, after it is safely in the WAL. The
// node has one journal, so the tap order is the WAL append order.
// Records ingested through ApplyReplicated do not reach the tap. On a
// memory-only deployment this is a no-op: there is no WAL, so there is
// nothing to ship.
func (c *Centralized) SetReplicationTap(fn func(durable.Record)) {
	c.journal.SetTap(fn)
}

// ApplyReplicated applies a batch of records received from a peer, in
// order. Each record is journaled once, as received, via Ingest — so it
// survives this node's own crashes — and applied in memory through the
// router's replay, exactly as recovery would apply it: a click batch
// splits across the shards its users hash to, a flag applies to every
// shard (the flag store ORs, so redelivery is safe), a replication
// position lands in the node's one table, and user-addressed ops go to
// the owning shard. The journal is flushed before the call returns: a
// batch the caller acks then survives this process dying, whatever the
// sync policy.
func (c *Centralized) ApplyReplicated(recs []durable.Record) error {
	if err := c.checkOpen(context.Background()); err != nil {
		return err
	}
	pos := c.setReplPosition
	for _, rec := range recs {
		if err := c.journal.Ingest(func() error { return c.replayRecord(rec, pos) }, rec); err != nil {
			return fmt.Errorf("reef: applying replicated %v record: %w", rec.Op, err)
		}
	}
	return c.journal.Flush()
}

// ReplicationPositions reports how far this node's log holds each
// source's replication stream, sorted by source.
func (c *Centralized) ReplicationPositions() []durable.ReplPosition {
	return c.positions()
}

// mergeReplPositions folds position tables — the node's one, or one per
// old shard directory in an import — into one list sorted by source. Per
// source the newest epoch wins, and within it the lowest applied
// position: a table in an older epoch, or one without the source, reads
// 0. An old shard whose log lost a tail therefore has the sender re-ship
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

// CaptureReplicationState cuts a consistent full state for a replica
// that is too far behind to catch up from the record stream: every
// shard's state, captured under the one journal lock, as the run of
// records that rebuilds it — what a snapshot file holds. pin runs under
// the same lock (see durable.Journal.Capture). The cut carries no
// replication positions: they say what this node applied, which is
// nothing a peer should adopt. A memory-only node cuts nothing.
func (c *Centralized) CaptureReplicationState(pin func()) ([]durable.Record, error) {
	if err := c.checkOpen(context.Background()); err != nil {
		return nil, err
	}
	st, err := c.journal.Capture(pin)
	if err != nil || st == nil {
		return nil, err
	}
	st.ReplPositions = nil
	return durable.StateRecords(st), nil
}

// ApplyReplicatedCut applies a peer's batch that carries resync cut
// records through ApplyReplicated, the one replay, and has it on stable
// storage before the call returns: its ack moves the sender past the
// gap the cut supersedes.
func (c *Centralized) ApplyReplicatedCut(run []durable.Record) error {
	if err := c.ApplyReplicated(run); err != nil {
		return err
	}
	return c.journal.Sync()
}
