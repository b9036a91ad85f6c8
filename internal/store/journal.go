package store

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"noble/internal/obs"
)

// FsyncPolicy decides when appended records become crash-durable.
type FsyncPolicy int

const (
	// FsyncInterval flushes and fsyncs every Config.SyncInterval from the
	// background Run loop: the default, bounding loss to one interval of
	// appends while keeping fsync entirely off the request path.
	FsyncInterval FsyncPolicy = iota
	// FsyncNever leaves flushing to the buffered writer (when its buffer
	// fills, on rotation, and on Close) and never calls fsync. Fastest;
	// a crash loses the buffered tail and the OS page cache.
	FsyncNever
	// FsyncAlways flushes and fsyncs before each request's Commit
	// returns, with group commit: concurrent committers on one shard
	// share a single fsync, so the cost amortizes under load.
	FsyncAlways
)

// String renders the policy as its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "never":
		return FsyncNever, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want never, interval, or always)", s)
}

// Config assembles a Journal.
type Config struct {
	// Dir is the state directory; created if absent. Required.
	Dir string
	// Shards is the number of independent log sequences (default 8).
	// Sessions hash onto shards by ID; one shard's appends serialize on
	// one mutex, so more shards mean less append contention and more
	// open files. Changing the count across restarts is safe — recovery
	// scans whatever shard directories exist.
	Shards int
	// RotateBytes caps one WAL segment (default 8 MiB); an append that
	// would exceed it rotates to a fresh segment first.
	RotateBytes int64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SyncInterval is the Run loop's flush+fsync cadence for
	// FsyncInterval (default 100ms).
	SyncInterval time.Duration
	// Logf receives operational messages (default log.Printf).
	Logf func(format string, args ...any)
}

// Journal is the write side of the session WAL: Append records events,
// Commit applies the fsync policy at request boundaries, Compact writes
// snapshots and prunes replayed segments, Recover reads the directory
// back into a Recovery. All methods are safe for concurrent use.
type Journal struct {
	cfg    Config
	shards []*walShard

	// Counters for /metrics; the per-shard dirty state backs the lag and
	// unsynced-bytes gauges.
	appends      [7]atomic.Int64 // indexed by EventType (0 and recSnapshot unused)
	appendErrors atomic.Int64
	bytes        atomic.Int64
	rotations    atomic.Int64
	syncs        atomic.Int64
	syncErrors   atomic.Int64
	snapshots    atomic.Int64
	recovered    atomic.Int64 // sessions restored at startup
	recSkipped   atomic.Int64 // sessions dropped at restore (model gone, damaged)
	recTorn      atomic.Int64 // torn/corrupt records dropped at startup
}

// walShard is one independent log sequence. mu guards the open segment
// (file, buffered writer, size, seq); syncMu serializes fsyncs so that
// concurrent Commit callers group-commit on one sync.
type walShard struct {
	idx int
	dir string

	mu         sync.Mutex
	closed     bool // Close ran: no append or rotation may reopen a segment
	f          *os.File
	w          *bufio.Writer
	seq        int64 // current segment number
	size       int64
	dirtySince time.Time // zero when everything written is synced
	unsynced   int64     // bytes appended since the last sync
	appended   int64     // records appended since the last compaction

	syncMu sync.Mutex
}

// Open prepares dir for appends: shard directories are created, the
// next segment number per shard is chosen past everything on disk, and
// a fresh segment is opened (appends never share a file with a previous
// process's tail, so recovery and appending are independent). Call
// Recover before serving traffic to read the previous state back.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.RotateBytes <= 0 {
		cfg.RotateBytes = 8 << 20
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 100 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	j := &Journal{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		dir := filepath.Join(cfg.Dir, shardDirName(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating shard dir: %w", err)
		}
		files, err := listShardFiles(dir)
		if err != nil {
			return nil, err
		}
		sh := &walShard{idx: i, dir: dir, seq: files.maxSeq() + 1}
		if len(files.wals) > 0 || files.snapSeq > 0 {
			// Pre-existing history: force the first compaction pass to
			// run even before new appends, so stale segments get folded
			// into a snapshot and pruned.
			sh.appended = 1
		}
		if err := sh.openSegment(); err != nil {
			return nil, err
		}
		j.shards = append(j.shards, sh)
	}
	return j, nil
}

// Shards returns the shard count.
func (j *Journal) Shards() int { return len(j.shards) }

// ShardFor hashes a session ID onto its shard (FNV-1a, like the session
// store's striping but over the journal's own width).
func (j *Journal) ShardFor(id string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(len(j.shards)))
}

// Dir returns the state directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// Fsync returns the configured durability policy.
func (j *Journal) Fsync() FsyncPolicy { return j.cfg.Fsync }

// Append writes one event record into the session's shard. The write
// lands in the shard's buffered writer; durability follows the fsync
// policy (see Commit and Run). Append itself never fsyncs, so it is
// cheap enough to run under the session lock, which is what keeps one
// session's records in mutation order.
func (j *Journal) Append(ev *Event) error {
	if (ev.Type < EvCreate || ev.Type > EvClose) && ev.Type != EvLifecycle {
		return fmt.Errorf("store: appending record of type %s", ev.Type)
	}
	payload := encodeEvent(ev)
	sh := j.shards[j.ShardFor(ev.Session)]
	n, err := sh.append(j, payload)
	if err != nil {
		j.appendErrors.Add(1)
		return err
	}
	j.appends[ev.Type].Add(1)
	j.bytes.Add(int64(n))
	return nil
}

// append frames and writes one payload, rotating first when the segment
// is full.
func (sh *walShard) append(j *Journal, payload []byte) (int, error) {
	rec := frame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.f == nil {
		// Close won the race against a straggling handler (drain timeout
		// expired): fail the append instead of panicking on a nil writer;
		// the caller logs and counts it.
		return 0, fmt.Errorf("store: journal is closed")
	}
	if sh.size > magicLen && sh.size+int64(len(rec)) > j.cfg.RotateBytes {
		if err := sh.rotateLocked(j); err != nil {
			return 0, err
		}
	}
	if _, err := sh.w.Write(rec); err != nil {
		return 0, err
	}
	sh.size += int64(len(rec))
	sh.unsynced += int64(len(rec))
	sh.appended++
	if sh.dirtySince.IsZero() {
		sh.dirtySince = time.Now()
	}
	return len(rec), nil
}

// rotateLocked closes the current segment (flushed and fsynced — a
// closed segment is always durable and never torn mid-file) and opens
// the next. Caller holds sh.mu.
func (sh *walShard) rotateLocked(j *Journal) error {
	if sh.closed {
		// A compaction in flight at shutdown must fail cleanly here: were
		// rotation allowed to proceed it would reopen a fresh segment after
		// Journal.Close, leaking an open file past process teardown.
		return fmt.Errorf("store: journal is closed")
	}
	if err := sh.closeSegmentLocked(); err != nil {
		return err
	}
	sh.seq++
	if err := sh.openSegment(); err != nil {
		return err
	}
	j.rotations.Add(1)
	return nil
}

// closeSegmentLocked flushes, fsyncs, and closes the open segment.
func (sh *walShard) closeSegmentLocked() error {
	if sh.f == nil {
		return nil
	}
	if err := sh.w.Flush(); err != nil {
		return err
	}
	if err := sh.f.Sync(); err != nil {
		return err
	}
	sh.dirtySince = time.Time{}
	sh.unsynced = 0
	err := sh.f.Close()
	sh.f, sh.w = nil, nil
	return err
}

// openSegment creates wal-<seq> and writes the file magic.
func (sh *walShard) openSegment() error {
	if sh.closed {
		// Defense in depth behind rotateLocked's guard: no path may
		// re-materialise segment files after Close (the PR-6 compaction
		// resurrection bug), including any future caller added here.
		return fmt.Errorf("store: journal is closed")
	}
	path := filepath.Join(sh.dir, walFileName(sh.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	sh.f = f
	sh.w = bufio.NewWriterSize(f, 64<<10)
	if _, err := sh.w.WriteString(walMagic); err != nil {
		return err
	}
	// Flush the magic immediately: a scan of the directory (Recover on
	// this very process's freshly-opened segments, or an operator's
	// offline Load) must see a well-formed empty segment, not a 0-byte
	// file that reads as a torn header.
	if err := sh.w.Flush(); err != nil {
		return err
	}
	sh.size = magicLen
	return nil
}

// syncNow flushes the shard's buffer and fsyncs the segment. The sync
// mutex gives group commit: callers that pile up behind an in-flight
// sync find their bytes already durable when they acquire it and return
// without a second fsync. On failure the shard stays (or goes back to)
// dirty, so the gauges keep showing the unsynced bytes and the next
// sync retries — an acked-but-not-durable window is never silent.
func (sh *walShard) syncNow(j *Journal) error {
	sh.syncMu.Lock()
	defer sh.syncMu.Unlock()
	sh.mu.Lock()
	if sh.dirtySince.IsZero() || sh.f == nil {
		sh.mu.Unlock()
		return nil
	}
	f := sh.f
	err := sh.w.Flush()
	var cleared int64
	if err == nil {
		cleared = sh.unsynced
		sh.dirtySince = time.Time{}
		sh.unsynced = 0
	}
	sh.mu.Unlock()
	if err != nil {
		j.syncErrors.Add(1)
		return err
	}
	// fsync outside sh.mu: appends continue into the buffer while the
	// kernel writes; syncMu still serializes against the next sync.
	if err := f.Sync(); err != nil {
		// A rotation may have closed f after we released sh.mu — its own
		// flush+fsync already made every byte in that file durable, so a
		// closed file is success, not failure.
		if !errors.Is(err, os.ErrClosed) {
			j.syncErrors.Add(1)
			sh.mu.Lock()
			sh.unsynced += cleared
			if sh.dirtySince.IsZero() {
				sh.dirtySince = time.Now()
			}
			sh.mu.Unlock()
			return err
		}
	}
	j.syncs.Add(1)
	return nil
}

// Commit marks a request boundary for one session's shard: under
// FsyncAlways the caller's appended records are flushed and fsynced
// (group-committed) before it returns; under the other policies it is a
// no-op and durability rides the Run loop or the buffer.
func (j *Journal) Commit(id string) error {
	if j.cfg.Fsync != FsyncAlways {
		return nil
	}
	return j.shards[j.ShardFor(id)].syncNow(j)
}

// Sync flushes and fsyncs every shard regardless of policy.
func (j *Journal) Sync() error {
	var firstErr error
	for _, sh := range j.shards {
		if err := sh.syncNow(j); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Run drives the FsyncInterval policy: flush+fsync all dirty shards
// every SyncInterval until ctx is done. Under other policies it returns
// immediately.
func (j *Journal) Run(ctx context.Context) {
	if j.cfg.Fsync != FsyncInterval {
		return
	}
	t := time.NewTicker(j.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := j.Sync(); err != nil {
				j.cfg.Logf("store: journal sync: %v", err)
			}
		}
	}
}

// Close flushes, fsyncs, and closes every shard. The journal must not
// be appended to afterwards: the closed flag makes any straggling
// append, rotation, or in-flight compaction fail cleanly instead of
// writing into (or reopening) a segment behind the shutdown.
func (j *Journal) Close() error {
	var firstErr error
	for _, sh := range j.shards {
		sh.syncMu.Lock()
		sh.mu.Lock()
		sh.closed = true
		if err := sh.closeSegmentLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
		sh.syncMu.Unlock()
	}
	return firstErr
}

// Recover reads the state directory (snapshots plus WAL segments) back
// into a Recovery and records the restore stats for /metrics. Call once
// after Open, before serving traffic.
func (j *Journal) Recover() (*Recovery, error) {
	rec, err := Load(j.cfg.Dir)
	if err != nil {
		return nil, err
	}
	j.recTorn.Store(rec.Stats.TornRecords + rec.Stats.BadRecords)
	return rec, nil
}

// NoteRecovered records the outcome of the serving layer's session
// restore for the recovered-session gauges.
func (j *Journal) NoteRecovered(restored, skipped int) {
	j.recovered.Store(int64(restored))
	j.recSkipped.Store(int64(skipped))
}

// Compact bounds recovery cost, in two phases. Phase one, per shard:
// rotate to a fresh segment, ask collect for snapshots of the live
// sessions hashing to that shard, and write them to a snapshot file
// (atomically, via rename). Phase two — only if EVERY shard's snapshot
// landed — prune the WAL segments and snapshots the new snapshots
// supersede. The all-or-nothing prune matters when the shard count
// changed across a restart: a session's base state may still live in
// another shard's old snapshot, so nothing is deleted until every
// session's new home is durable; a crash between the phases merely
// leaves stale files whose records Load skips by sequence number.
//
// collect runs without any journal lock held, so it may take session
// locks (and append retained records) freely; appends racing the
// collection land in the fresh segment and are replay-deduplicated by
// per-session sequence numbers (a snapshot taken after such an append
// carries a Seq at or past it, so Load skips the duplicate record).
func (j *Journal) Compact(collect func(shard int) []SessionSnapshot) error {
	boundaries := make([]int64, len(j.shards)) // 0 = skipped (idle shard)
	for i, sh := range j.shards {
		b, err := j.snapshotShard(sh, collect)
		if err != nil {
			j.cfg.Logf("store: snapshotting shard %d: %v", i, err)
			return err // prune nothing this round; retry next tick
		}
		boundaries[i] = b
	}
	var firstErr error
	for i, sh := range j.shards {
		if boundaries[i] == 0 {
			continue
		}
		if err := sh.prune(boundaries[i]); err != nil {
			j.cfg.Logf("store: pruning shard %d: %v", i, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// snapshotShard writes one shard's compaction snapshot and returns the
// boundary segment number it covers up to (0 when the shard was idle
// and skipped).
func (j *Journal) snapshotShard(sh *walShard, collect func(shard int) []SessionSnapshot) (int64, error) {
	sh.mu.Lock()
	if sh.appended == 0 {
		// Nothing recorded since the last compaction: a fresh snapshot
		// would say exactly what the last one said. Skipping also stops
		// an idle server from churning snapshot files forever.
		sh.mu.Unlock()
		return 0, nil
	}
	if err := sh.rotateLocked(j); err != nil {
		sh.mu.Unlock()
		return 0, err
	}
	sh.appended = 0
	boundary := sh.seq // snapshot covers everything before wal-<boundary>
	sh.mu.Unlock()

	snaps := collect(sh.idx)
	final := filepath.Join(sh.dir, snapFileName(boundary))
	tmp := final + ".tmp"
	if err := writeSnapshotFile(tmp, snaps); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	syncDir(sh.dir)
	j.snapshots.Add(1)
	return boundary, nil
}

// writeSnapshotFile writes one complete snapshot file: magic, a framed
// record per session, flushed, fsynced, closed. The Close error is
// propagated on every path — a close can be the first place write-back
// failure surfaces, and swallowing it would let the caller rename a
// snapshot whose buffered bytes never reached disk and then prune the
// WAL segments that held the only durable copy.
func writeSnapshotFile(path string, snaps []SessionSnapshot) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = func() error {
		if _, err := w.WriteString(snapMagic); err != nil {
			return err
		}
		for i := range snaps {
			if _, err := w.Write(frame(nil, encodeSnapshot(&snaps[i]))); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// prune removes the files a snapshot at the given boundary supersedes.
func (sh *walShard) prune(boundary int64) error {
	files, err := listShardFiles(sh.dir)
	if err != nil {
		return err
	}
	for _, wf := range files.wals {
		if wf.seq < boundary {
			os.Remove(filepath.Join(sh.dir, wf.name))
		}
	}
	for _, sf := range files.snaps {
		if sf.seq < boundary {
			os.Remove(filepath.Join(sh.dir, sf.name))
		}
	}
	return nil
}

// syncDir fsyncs a directory so renames and removals are durable; best
// effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// WritePrometheus renders the journal gauges and counters in the
// Prometheus text exposition format.
func (j *Journal) WritePrometheus(w io.Writer) {
	var unsynced int64
	var lag time.Duration
	now := time.Now()
	for _, sh := range j.shards {
		sh.mu.Lock()
		unsynced += sh.unsynced
		if !sh.dirtySince.IsZero() {
			if d := now.Sub(sh.dirtySince); d > lag {
				lag = d
			}
		}
		sh.mu.Unlock()
	}
	f := obs.NewFamily(w, "noble_journal_appends_total", "counter", "Events appended to the journal, by event type.")
	for _, t := range []EventType{EvCreate, EvSteps, EvReAnchor, EvClose, EvLifecycle} {
		f.Sample("", fmt.Sprintf("event=%q", t.String()), j.appends[t].Load())
	}
	obs.Single(w, "noble_journal_append_errors_total", "counter", "Journal append failures (events lost to the journal, serving unaffected).", j.appendErrors.Load())
	obs.Single(w, "noble_journal_bytes_total", "counter", "Framed record bytes appended.", j.bytes.Load())
	obs.Single(w, "noble_journal_unsynced_bytes", "gauge", "Appended bytes not yet flushed+fsynced.", unsynced)
	obs.Single(w, "noble_journal_lag_seconds", "gauge", "Age of the oldest unsynced append (0 when clean).", lag.Seconds())
	obs.Single(w, "noble_journal_rotations_total", "counter", "WAL segment rotations.", j.rotations.Load())
	obs.Single(w, "noble_journal_syncs_total", "counter", "Explicit flush+fsync operations.", j.syncs.Load())
	obs.Single(w, "noble_journal_sync_errors_total", "counter", "Failed flush+fsync attempts (the shard stays dirty and is retried).", j.syncErrors.Load())
	obs.Single(w, "noble_journal_snapshots_total", "counter", "Compaction snapshots written.", j.snapshots.Load())
	obs.Single(w, "noble_journal_recovered_sessions", "gauge", "Sessions restored from the journal at startup.", j.recovered.Load())
	obs.Single(w, "noble_journal_recovery_skipped_sessions", "gauge", "Sessions in the journal that could not be restored (model missing or history damaged).", j.recSkipped.Load())
	obs.Single(w, "noble_journal_torn_records_total", "gauge", "Torn or corrupt records dropped at the last recovery.", j.recTorn.Load())
}

// --- file naming -----------------------------------------------------

func shardDirName(i int) string     { return fmt.Sprintf("shard-%02d", i) }
func walFileName(seq int64) string  { return fmt.Sprintf("wal-%010d.log", seq) }
func snapFileName(seq int64) string { return fmt.Sprintf("snapshot-%010d.snap", seq) }

// shardFile is one parsed directory entry.
type shardFile struct {
	name string
	seq  int64
}

// shardFiles is a shard directory listing split by kind, ascending seq.
type shardFiles struct {
	wals    []shardFile
	snaps   []shardFile
	snapSeq int64 // largest snapshot seq (0 if none)
}

func (f *shardFiles) maxSeq() int64 {
	max := f.snapSeq
	for _, w := range f.wals {
		if w.seq > max {
			max = w.seq
		}
	}
	return max
}

// listShardFiles parses a shard directory. Unrecognized files are
// ignored (a .tmp snapshot from a crashed compaction, stray editors).
func listShardFiles(dir string) (*shardFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := &shardFiles{}
	for _, e := range entries {
		name := e.Name()
		var seq int64
		switch {
		case parseSeq(name, "wal-", ".log", &seq):
			out.wals = append(out.wals, shardFile{name: name, seq: seq})
		case parseSeq(name, "snapshot-", ".snap", &seq):
			out.snaps = append(out.snaps, shardFile{name: name, seq: seq})
			if seq > out.snapSeq {
				out.snapSeq = seq
			}
		}
	}
	sortShardFiles(out.wals)
	sortShardFiles(out.snaps)
	return out, nil
}

func sortShardFiles(files []shardFile) {
	for i := 1; i < len(files); i++ { // tiny lists; insertion sort
		for k := i; k > 0 && files[k].seq < files[k-1].seq; k-- {
			files[k], files[k-1] = files[k-1], files[k]
		}
	}
}

// parseSeq extracts the sequence number from "<prefix><digits><suffix>".
func parseSeq(name, prefix, suffix string, out *int64) bool {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	var n int64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + int64(c-'0')
	}
	*out = n
	return true
}
