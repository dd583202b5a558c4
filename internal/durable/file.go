package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// walMagic is the 8-byte segment header: format name + version byte.
var walMagic = []byte("REEFWAL\x01")

// snapMagic opens a version 2 snapshot file: format name + version
// byte. The run's record count follows as 8 bytes LE, so a file cut at
// a frame boundary still reads as torn.
var snapMagic = []byte("REEFSNP\x02")

// FileOptions tunes a file backend.
type FileOptions struct {
	// Sync is the append durability policy (default SyncAsync).
	Sync SyncPolicy
	// FlushEvery is the SyncAsync flush interval (default 50ms).
	FlushEvery time.Duration
}

// FileBackend persists the WAL and snapshots in a data directory:
//
//	wal-<gen>.log   append-only record frames after an 8-byte magic header
//	snap-<gen>.bin  the snapshot opening generation <gen>: an 8-byte magic
//	                header, the record count, then the frames of the run
//	                that rebuilds the state (StateRecords)
//
// Generation <gen> recovers as the run of snap-<gen>.bin (absent for
// generation 0 unless compaction ran) followed by the intact records of
// wal-<gen>.log. The JSON snap-<gen>.json of older releases reads as the
// run of its state. Snapshot writes the next generation atomically (tmp
// + fsync + rename) before the old generation's files are removed, so a
// crash at any point leaves a consistent recovery source.
type FileBackend struct {
	dir string
	opt FileOptions

	mu         sync.Mutex
	closed     bool
	gen        uint64
	file       *os.File
	buf        *bufio.Writer
	walRecords int64
	walBytes   int64
	snapshots  int64
	syncs      int64
	lastSnap   time.Time
	recovered  int64
	torn       bool

	// loadRun is the run recovered at open: snapshot, then WAL tail.
	loadRun []Record

	flushStop chan struct{}
	flushDone chan struct{}
}

var _ Backend = (*FileBackend)(nil)

// OpenFile opens (creating if needed) a data directory, recovers the
// latest generation, and truncates the WAL to its intact prefix so new
// appends land directly after the last good record.
func OpenFile(dir string, opt FileOptions) (*FileBackend, error) {
	if opt.Sync == 0 {
		opt.Sync = SyncAsync
	}
	if opt.FlushEvery <= 0 {
		opt.FlushEvery = 50 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	b := &FileBackend{dir: dir, opt: opt}
	if err := b.recover(); err != nil {
		return nil, err
	}
	if opt.Sync == SyncAsync {
		b.flushStop = make(chan struct{})
		b.flushDone = make(chan struct{})
		go b.flushLoop(b.flushStop, b.flushDone)
	}
	return b, nil
}

// snapPath and walPath name one generation's files.
func (b *FileBackend) snapPath(gen uint64) string {
	return filepath.Join(b.dir, fmt.Sprintf("snap-%08d.bin", gen))
}

func (b *FileBackend) walPath(gen uint64) string {
	return filepath.Join(b.dir, fmt.Sprintf("wal-%08d.log", gen))
}

// genFile is one generation's file.
type genFile struct {
	gen  uint64
	path string
}

// listGens scans the directory for files named prefix-########suffix,
// for any of the suffixes, sorted by generation.
func (b *FileBackend) listGens(prefix string, suffixes ...string) ([]genFile, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: reading data dir: %w", err)
	}
	var files []genFile
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), prefix+"-")
		if !ok {
			continue
		}
		for _, suffix := range suffixes {
			numText, ok := strings.CutSuffix(rest, suffix)
			if !ok {
				continue
			}
			if n, err := strconv.ParseUint(numText, 10, 64); err == nil {
				files = append(files, genFile{n, filepath.Join(b.dir, e.Name())})
			}
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].gen < files[j].gen })
	return files, nil
}

// readSnapshot reads one snapshot file as the run that rebuilds its
// state: a version 2 file with Replay, a version 1 JSON file through
// StateRecords. A file that does not read whole is an error, so
// recovery falls back to the generation before it.
func readSnapshot(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		var v1 struct {
			State *State `json:"state"`
		}
		if err := json.Unmarshal(data, &v1); err != nil || v1.State == nil {
			return nil, fmt.Errorf("durable: unreadable version 1 snapshot %s", path)
		}
		return StateRecords(v1.State), nil
	}
	hdr := len(snapMagic) + 8
	if len(data) < hdr || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("%w: %s has no snapshot header", ErrTruncated, path)
	}
	run, err := Replay(data[hdr:])
	if err != nil {
		return nil, err
	}
	if n := binary.LittleEndian.Uint64(data[len(snapMagic):hdr]); uint64(len(run)) != n {
		return nil, fmt.Errorf("%w: %s holds %d of its %d records", ErrTruncated, path, len(run), n)
	}
	return run, nil
}

// recover selects the newest valid generation, loads its snapshot and
// intact WAL tail, truncates the torn tail if any, and opens the WAL for
// appending. A WAL or snapshot holding a record of an unknown version or
// op fails the open and stays untouched. Stale older generations and
// leftover .tmp files are removed.
func (b *FileBackend) recover() error {
	snaps, err := b.listGens("snap", ".bin", ".json")
	if err != nil {
		return err
	}
	walGens, err := b.listGens("wal", ".log")
	if err != nil {
		return err
	}

	// Newest snapshot that reads wins; a corrupt or torn newest snapshot
	// falls back to the one before it (its WAL was only removed after the
	// next snapshot landed, so older generations may be gone — a corrupt
	// snapshot with no predecessor is unrecoverable and reported).
	var run []Record
	gen, found := uint64(0), false
	for i := len(snaps) - 1; i >= 0 && !found; i-- {
		run, err = readSnapshot(snaps[i].path)
		if errors.Is(err, ErrVersion) || errors.Is(err, ErrUnknownOp) {
			return fmt.Errorf("durable: %s was written by a newer binary: %w", snaps[i].path, err)
		}
		gen, found = snaps[i].gen, err == nil
	}
	if !found {
		if len(snaps) > 0 {
			return fmt.Errorf("durable: no snapshot in %s is readable", b.dir)
		}
		// Fresh directory, or one that never compacted: resume the lowest
		// WAL generation. (Snapshot creates wal-<gen+1> before publishing
		// snap-<gen+1>; a crash between the two leaves an empty stale
		// higher-generation WAL, and the lowest one holds the data.)
		gen = 0
		if len(walGens) > 0 {
			gen = walGens[0].gen
		}
	}

	// Load the generation's WAL tail and truncate any torn suffix.
	walData, err := os.ReadFile(b.walPath(gen))
	tail := []Record{}
	intact := 0
	headerOK := false
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Never created: the header is written below.
	case err != nil:
		return fmt.Errorf("durable: reading WAL: %w", err)
	default:
		body := walData
		if len(body) >= len(walMagic) && string(body[:len(walMagic)]) == string(walMagic) {
			headerOK = true
			body = body[len(walMagic):]
		} else if len(body) > 0 {
			// Unrecognized header: treat the whole file as torn. The magic
			// is rewritten below so this session's appends survive the
			// next recovery.
			b.torn = true
			body = nil
		}
		var replayErr error
		tail, replayErr = Replay(body)
		if errors.Is(replayErr, ErrVersion) || errors.Is(replayErr, ErrUnknownOp) {
			// An intact record this binary cannot read was written by a
			// newer one. Truncating there would delete it and everything
			// after it, so refuse the directory and leave the file as it is.
			return fmt.Errorf("durable: %s: record %d was written by a newer binary: %w", b.walPath(gen), len(tail), replayErr)
		}
		if replayErr != nil {
			b.torn = true
		}
		for _, r := range tail {
			intact += r.EncodedLen()
		}
	}

	// Open for appending, rewriting header + intact prefix if the file was
	// torn or absent.
	file, err := os.OpenFile(b.walPath(gen), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("durable: opening WAL: %w", err)
	}
	goodLen := int64(len(walMagic) + intact)
	if !headerOK {
		if _, err := file.WriteAt(walMagic, 0); err != nil {
			_ = file.Close()
			return fmt.Errorf("durable: writing WAL header: %w", err)
		}
	}
	st, err := file.Stat()
	if err != nil {
		_ = file.Close()
		return fmt.Errorf("durable: stat WAL: %w", err)
	}
	if st.Size() > goodLen {
		if err := file.Truncate(goodLen); err != nil {
			_ = file.Close()
			return fmt.Errorf("durable: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := file.Seek(0, 2); err != nil {
		_ = file.Close()
		return fmt.Errorf("durable: seeking WAL end: %w", err)
	}

	b.gen = gen
	b.file = file
	b.buf = bufio.NewWriterSize(file, 1<<16)
	b.walRecords = int64(len(tail))
	b.walBytes = goodLen
	b.recovered = int64(len(tail))
	b.loadRun = append(run, tail...)

	b.removeStale()
	return nil
}

// removeStale deletes files of generations other than the current one
// and leftover temp files. Best effort: failures leave garbage, not
// damage.
func (b *FileBackend) removeStale() {
	if entries, err := os.ReadDir(b.dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				_ = os.Remove(filepath.Join(b.dir, e.Name()))
			}
		}
	}
	snaps, _ := b.listGens("snap", ".bin", ".json")
	wals, _ := b.listGens("wal", ".log")
	for _, f := range append(snaps, wals...) {
		if f.gen != b.gen {
			_ = os.Remove(f.path)
		}
	}
}

// Load implements Backend, returning the run recovered at open: the
// snapshot's records, then the WAL tail. Later calls re-derive nothing.
func (b *FileBackend) Load() ([]Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loadRun, nil
}

// Append implements Backend.
func (b *FileBackend) Append(r Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errors.New("durable: backend closed")
	}
	frame := r.AppendEncoded(b.buf.AvailableBuffer())
	if _, err := b.buf.Write(frame); err != nil {
		return fmt.Errorf("durable: appending record: %w", err)
	}
	b.walRecords++
	b.walBytes += int64(len(frame))
	if b.opt.Sync == SyncAlways {
		return b.syncLocked()
	}
	return nil
}

// syncLocked flushes the buffer and fsyncs (caller holds b.mu).
func (b *FileBackend) syncLocked() error {
	if err := b.buf.Flush(); err != nil {
		return fmt.Errorf("durable: flushing WAL: %w", err)
	}
	if err := b.file.Sync(); err != nil {
		return fmt.Errorf("durable: fsyncing WAL: %w", err)
	}
	b.syncs++
	return nil
}

// Flush implements Backend: one write of the buffered appends, no fsync.
func (b *FileBackend) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	if err := b.buf.Flush(); err != nil {
		return fmt.Errorf("durable: flushing WAL: %w", err)
	}
	return nil
}

// Sync implements Backend.
func (b *FileBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	return b.syncLocked()
}

// flushLoop is the SyncAsync background flusher. It captures its channels
// up front: stopFlusher nils the struct fields to stay idempotent.
func (b *FileBackend) flushLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(b.opt.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			_ = b.Sync()
		}
	}
}

// Snapshot implements Backend: write the next generation's snapshot
// atomically, open its fresh WAL, then retire the old generation.
func (b *FileBackend) Snapshot(st *State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errors.New("durable: backend closed")
	}
	next := b.gen + 1
	run := StateRecords(st)
	size := len(snapMagic) + 8
	for _, r := range run {
		size += r.EncodedLen()
	}
	data := binary.LittleEndian.AppendUint64(append(make([]byte, 0, size), snapMagic...), uint64(len(run)))
	data = AppendRun(data, run)
	tmp := b.snapPath(next) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: fsyncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing snapshot: %w", err)
	}
	// Create the next WAL segment BEFORE publishing the snapshot: if any
	// step from here on fails, generation <gen> remains the recovery
	// source and appends keep landing in its still-current WAL. (A crash
	// in the window leaves a stale empty wal-<gen+1>, which recovery
	// resolves by picking the lowest WAL generation when no snapshot
	// names one.)
	newWAL, err := os.OpenFile(b.walPath(next), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: creating WAL segment: %w", err)
	}
	if _, err := newWAL.Write(walMagic); err != nil {
		_ = newWAL.Close()
		_ = os.Remove(b.walPath(next))
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: writing WAL header: %w", err)
	}
	if err := os.Rename(tmp, b.snapPath(next)); err != nil {
		_ = newWAL.Close()
		_ = os.Remove(b.walPath(next))
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: publishing snapshot: %w", err)
	}

	// The snapshot is durable; everything in the old WAL is superseded.
	_ = b.buf.Flush()
	_ = b.file.Close()
	b.gen = next
	b.file = newWAL
	b.buf = bufio.NewWriterSize(newWAL, 1<<16)
	b.walRecords = 0
	b.walBytes = int64(len(walMagic))
	b.snapshots++
	b.lastSnap = time.Now().UTC()
	b.removeStale()
	return nil
}

// Info implements Backend.
func (b *FileBackend) Info() Info {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Info{
		Kind:             "file",
		Dir:              b.dir,
		Sync:             b.opt.Sync.String(),
		Generation:       b.gen,
		WALRecords:       b.walRecords,
		WALBytes:         b.walBytes,
		Snapshots:        b.snapshots,
		Syncs:            b.syncs,
		LastSnapshot:     b.lastSnap,
		RecoveredRecords: b.recovered,
		TornTail:         b.torn,
	}
}

// Close implements Backend: stop the flusher, flush, fsync, close.
func (b *FileBackend) Close() error {
	b.stopFlusher()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.syncLocked()
	if cerr := b.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash closes the backend WITHOUT flushing buffered appends — a fault
// hook simulating an unclean shutdown: buffered records are lost exactly
// as they would be if the process died. Tests and the recovery benchmark
// use it; production code should call Close.
func (b *FileBackend) Crash() error {
	b.stopFlusher()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	return b.file.Close()
}

// stopFlusher halts the SyncAsync goroutine if one is running.
func (b *FileBackend) stopFlusher() {
	b.mu.Lock()
	stop, done := b.flushStop, b.flushDone
	b.flushStop = nil
	b.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
