package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Dir is a Store backed by one directory holding one append-only
// segment file per shard (segment-NNNN.log). The directory is locked
// (path/LOCK) for the Dir's lifetime, so a second process — or a
// second Dir in this process — opening the same directory fails loudly
// instead of interleaving appends into the segments; Close releases
// the lock.
type Dir struct {
	path string
	// metrics is shared by every segment this Dir opens; see
	// Dir.Instrument (metrics.go). Allocated eagerly so segments opened
	// before instrumentation still pick up later-wired instruments.
	metrics *storeMetrics

	mu   sync.Mutex
	lock *os.File // held flock on path/LOCK; nil once closed
}

// OpenDir creates (if needed), locks, and opens a store directory. It
// fails when another live Dir — in this or any process — holds the
// directory; a crashed owner's lock self-releases with its descriptor,
// so no manual cleanup is ever needed after a crash (on unix).
func OpenDir(path string) (*Dir, error) {
	if path == "" {
		return nil, fmt.Errorf("store: empty directory path")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", path, err)
	}
	lock, err := lockDataDir(path)
	if err != nil {
		return nil, err
	}
	return &Dir{path: path, lock: lock, metrics: &storeMetrics{}}, nil
}

// Path returns the store's directory.
func (d *Dir) Path() string { return d.path }

// Open opens shard i's segment file, creating it when absent.
func (d *Dir) Open(shard int) (Log, error) {
	if shard < 0 {
		return nil, fmt.Errorf("store: negative shard %d", shard)
	}
	name := filepath.Join(d.path, fmt.Sprintf("segment-%04d.log", shard))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", name, err)
	}
	return &segment{name: name, f: f, m: d.metrics}, nil
}

// List returns the shard indexes with existing segment files, sorted.
func (d *Dir) List() ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(d.path, "segment-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", d.path, err)
	}
	var out []int
	for _, m := range matches {
		var shard int
		if _, err := fmt.Sscanf(filepath.Base(m), "segment-%d.log", &shard); err == nil {
			out = append(out, shard)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Close releases the directory lock, letting another Dir take the
// directory over; shard segments own their own file descriptors and
// are closed individually. Safe to call twice.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lock == nil {
		return nil
	}
	err := unlockDataDir(d.lock)
	d.lock = nil
	return err
}

// segment is one shard's on-disk journal.
type segment struct {
	mu   sync.Mutex
	name string
	f    *os.File
	m    *storeMetrics // nil-safe; shared across the owning Dir's segments
}

var errClosed = errors.New("store: segment is closed")

// Append frames and writes one record at the end of the segment.
func (s *segment) Append(rec Record) error {
	buf, err := AppendFrame(nil, rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: seeking %s: %w", s.name, err)
	}
	// One Write for the whole frame: either the kernel gets the full
	// record or the torn tail is caught by Replay's CRC check.
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("store: appending to %s: %w", s.name, err)
	}
	// Sync before acknowledging: an appended record (a tenant's upload,
	// or a delete tombstone) must survive power loss, not just a
	// process crash. Every record pays this fsync, the best-effort
	// artifact caches included, and some sit on the request path: a
	// logs:append_mine journals its combined log (a delta holding only
	// the appended queries) and the combined log's prepared snapshot,
	// plus the warm start under a k-medoids spec, so each DBSCAN
	// append_mine of perfbench's ingest-mine workload fsyncs two
	// records. The fsync-latency histogram says what that costs.
	syncStart := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.name, err)
	}
	s.m.recordWritten(time.Since(syncStart))
	return nil
}

// Replay streams the segment's records in write order. On the first
// frame that is short, oversized, or CRC-mismatched — a torn write from
// a crash — the file is truncated back to the last intact record and
// the replay ends without error.
func (s *segment) Replay(fn func(rec Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking %s: %w", s.name, err)
	}
	r := bufio.NewReader(s.f)
	var good int64 // offset just past the last intact record
	for {
		rec, n, err := ReadFrame(r)
		if err == io.EOF {
			return nil // clean end
		}
		if err != nil {
			return s.truncateLocked(good) // torn write, bit rot or a corrupt length
		}
		good += int64(n)
		s.m.recordReplayed()
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// truncateLocked cuts the segment back to off, discarding a damaged
// tail; callers hold s.mu.
func (s *segment) truncateLocked(off int64) error {
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncating damaged tail of %s: %w", s.name, err)
	}
	return nil
}

// Compact atomically replaces the segment's contents with recs: the
// rewrite lands in a temp file in the same directory, is synced, and
// renamed over the segment, so a crash mid-compaction leaves either the
// old journal or the new one — never a mix.
func (s *segment) Compact(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	var oldSize int64
	if fi, err := s.f.Stat(); err == nil {
		oldSize = fi.Size()
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.name), filepath.Base(s.name)+".compact-*")
	if err != nil {
		return fmt.Errorf("store: creating compaction temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	var newSize int64
	w := bufio.NewWriter(tmp)
	var frame []byte
	for _, rec := range recs {
		if frame, err = AppendFrame(frame[:0], rec); err != nil {
			tmp.Close()
			return err
		}
		if _, err := w.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("store: writing compaction temp: %w", err)
		}
		newSize += int64(len(frame))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: flushing compaction temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing compaction temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing compaction temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.name); err != nil {
		return fmt.Errorf("store: swapping compacted segment: %w", err)
	}
	// Sync the directory so the rename itself survives power loss —
	// without it a crash can serve the pre-compaction journal back.
	if dir, err := os.Open(filepath.Dir(s.name)); err == nil {
		dir.Sync()
		dir.Close()
	}
	// The old descriptor now points at an unlinked inode; reopen the
	// new file under the same name.
	old := s.f
	f, err := os.OpenFile(s.name, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening compacted %s: %w", s.name, err)
	}
	old.Close()
	s.f = f
	s.m.recordCompaction(oldSize, newSize)
	return nil
}

// Close syncs and releases the segment file. Safe to call twice.
func (s *segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
