package replication

import (
	"bytes"
	"testing"

	"reef/internal/durable"
)

// discardApplier accepts every batch and keeps nothing, so the fuzzer's
// receiver holds no state but its positions.
type discardApplier struct{ fakeApplier }

func (*discardApplier) ApplyReplicated([]durable.Record) error    { return nil }
func (*discardApplier) ApplyReplicatedCut([]durable.Record) error { return nil }

// FuzzReplicationLink fuzzes both ends' decoding of the link: the
// receiver reading a batch header and the frames behind it and applying
// them through IngestRecords, and the sender reading an ack. Neither may
// panic; a header or an ack that decodes is canonical (it re-encodes to
// the bytes read), and a decoded batch's frames are exactly as long as
// its header says and within MaxBatchBytes.
func FuzzReplicationLink(f *testing.F) {
	frames := durable.AppendRun(nil, []durable.Record{cursorRec("u", 1), cursorRec("u", 2)})
	trace := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	batch := durable.AppendReplBatch(nil, durable.ReplBatch{Prev: 0, Last: 2, Count: 2, Bytes: len(frames), Trace: trace})
	f.Add(append(batch, frames...))
	// A resync's first batch: a cut, superseding a gap.
	cut := durable.AppendRun(nil, []durable.Record{durable.FlagRecord("ads.test", 1), durable.PendingSeqRecord(9)})
	f.Add(append(durable.AppendReplBatch(nil, durable.ReplBatch{Prev: 2, Last: 40, Count: 2, Cut: true, Bytes: len(cut), Trace: trace}), cut...))
	// The same batch cut short, and one whose header claims more than
	// MaxBatchBytes.
	f.Add(append(batch, frames[:len(frames)-3]...))
	f.Add(durable.AppendReplBatch(nil, durable.ReplBatch{Prev: 0, Last: 1, Count: 1, Bytes: MaxBatchBytes + 1}))
	// Every ack kind.
	f.Add(durable.AppendReplAck(nil, durable.ReplAck{Kind: durable.AckOK, Acked: 2}))
	f.Add(durable.AppendReplAck(nil, durable.ReplAck{Kind: durable.AckConflict, Acked: 1 << 40}))
	f.Add(durable.AppendReplAck(nil, durable.ReplAck{Kind: durable.AckError, Err: "replication: batch of 3 records, header says 2"}))
	f.Add([]byte{})

	m, err := New(Options{Self: "b", Nodes: []Node{{ID: "a"}, {ID: "b"}}, Applier: &discardApplier{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(m.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf, got []byte
		r := bytes.NewReader(data)
		if h, err := readBatch(r, &buf, &got); err == nil {
			if len(got) != h.Bytes || h.Bytes > MaxBatchBytes {
				t.Fatalf("batch of %d frame bytes, header says %d (bound %d)", len(got), h.Bytes, MaxBatchBytes)
			}
			head := data[:len(data)-r.Len()-h.Bytes]
			if re := durable.AppendReplBatch(nil, h); !bytes.Equal(re, head) {
				t.Fatalf("header re-encodes differently:\n got %x\nwant %x", re, head)
			}
			m.IngestRecords("a", 1, h, got)
		}
		// The sender reads an ack as its link's reader reads any frame.
		r = bytes.NewReader(data)
		rec, err := durable.ReadFrame(r, &buf)
		if err != nil {
			return
		}
		if a, err := durable.DecodeReplAck(rec); err == nil {
			if re := durable.AppendReplAck(nil, a); !bytes.Equal(re, data[:len(data)-r.Len()]) {
				t.Fatalf("ack re-encodes differently:\n got %x\nwant %x", re, data[:len(data)-r.Len()])
			}
		}
	})
}
