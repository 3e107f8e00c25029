// Package store is the engine's disk tier: a fingerprint-keyed result
// store persisted as one append log (store.log, in the log.go record
// format). It implements core.ResultStore.
//
// Durability model: every Put appends one CRC-framed record to
// store.log; once Config.CompactBytes have been appended since the last
// compaction, the live index is rewritten in key order to store.log.tmp,
// fsynced, and atomically renamed over store.log — the rename is the
// commit point, and the tmp's open handle becomes the log; the directory
// is fsynced after it, so the rename survives a power loss. Open replays
// the log (later records win), drops corrupt records individually,
// truncates a torn tail, and removes an orphaned tmp from a compaction
// that died before its rename — so a hard kill at any instant loses at
// most the record being written.
//
// Retirement: the answer epoch is the only rule that retires an entry,
// and nothing expires by age, so the store reads no clock. Open skips
// records written at another answer epoch (keys without
// core.AnswerEpoch), so a restarted server never serves an older
// solver's answers. It also skips records stamped with an expiry
// instant: an earlier build aged validate outcomes out on a TTL that
// this build no longer enforces, so such a record is never served.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libra/internal/core"
	"libra/internal/telemetry"
)

const (
	logName = "store.log"
	tmpName = "store.log.tmp"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Config tunes a Store. Zero values select defaults.
type Config struct {
	// Dir is the cache directory (required); created if absent.
	Dir string
	// CompactBytes triggers compaction once this many bytes have been
	// appended to the log since the last compaction (default 4 MiB;
	// negative disables auto-compaction).
	CompactBytes int64
	// Deprecated: TTLs is ignored. Entries do not expire; the answer
	// epoch retires them. The field remains only so existing callers (the
	// e2ebench harness) still compile.
	TTLs map[string]time.Duration
	// Deprecated: SweepInterval is ignored. There is nothing to sweep; the
	// field remains only so existing callers (the e2ebench harness) still
	// compile.
	SweepInterval time.Duration
}

// indexEntry locates one live entry's payload inside the log plus the
// metadata needed without touching disk.
type indexEntry struct {
	off       int64
	n         int
	kind      string
	elapsedMS float64
}

// Store is a disk-backed result store. Safe for concurrent use.
type Store struct {
	dir          string
	compactBytes int64

	mu      sync.RWMutex
	closed  bool
	index   map[string]indexEntry
	log     *os.File
	logSize int64
	// compacted is the log's size after the last compaction; Put
	// compacts once logSize has grown compactBytes past it.
	compacted int64

	// Lock-free counters: Get bumps them under the read lock.
	hits, misses, stale, puts, putErrors, compactions atomic.Uint64
}

// Open opens (or initializes) the store under cfg.Dir, recovering
// whatever a previous process — cleanly stopped or killed — left behind.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          cfg.Dir,
		compactBytes: cfg.CompactBytes,
		index:        map[string]indexEntry{},
	}
	if s.compactBytes == 0 {
		s.compactBytes = 4 << 20
	}

	// A tmp file is a compaction that died before its atomic rename; the
	// log is still the authoritative state. store.snap and its tmp are the
	// earlier two-file layout's snapshot: entries only it held are solved
	// again on demand.
	for _, name := range []string{tmpName, "store.snap", "store.snap.tmp"} {
		_ = os.Remove(filepath.Join(cfg.Dir, name))
	}
	if err := s.loadLog(); err != nil {
		if s.log != nil {
			_ = s.log.Close()
		}
		return nil, err
	}
	s.publishGauges()
	return s, nil
}

// loadLog indexes store.log, later records overriding earlier ones, and
// truncates a torn tail so the next append lands on a clean boundary. A
// record whose key lacks core.AnswerEpoch was written at another answer
// epoch, and a record with an expiry instant was written under a TTL
// this build does not enforce: either is counted as stale instead, never
// served, and dropped by the next compaction. Being later, it still
// retires any earlier entry for its key. A log that is not a store file
// is reset to an empty header.
func (s *Store) loadLog() error {
	path := filepath.Join(s.dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open log: %w", err)
	}
	s.log = f
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	if len(data) == 0 {
		return s.resetLog()
	}
	recs, tail, dropped, derr := DecodeLog(data)
	if derr != nil {
		telemetry.StoreDroppedRecords.Inc()
		return s.resetLog()
	}
	if dropped > 0 {
		telemetry.StoreDroppedRecords.Add(uint64(dropped))
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Key, core.AnswerEpoch) || r.ExpiresAt != 0 {
			delete(s.index, r.Key)
			s.stale.Add(1)
			telemetry.StoreStale.With(r.Kind).Inc()
			continue
		}
		s.index[r.Key] = indexEntry{off: r.DataOff, n: len(r.Data), kind: r.Kind, elapsedMS: r.ElapsedMS}
	}
	if tail < int64(len(data)) {
		telemetry.StoreDroppedRecords.Inc()
		if err := f.Truncate(tail); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	s.logSize = tail
	// The log's dead records (overwritten, stale, corrupt) count as
	// appended since the last compaction: its live records are what a
	// compaction would have left.
	s.compacted = headerLen
	for k, e := range s.index {
		s.compacted += recordLen(e.kind, k, e.n)
	}
	return nil
}

// resetLog rewrites the log as an empty headered file.
func (s *Store) resetLog() error {
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("store: reset log: %w", err)
	}
	if _, err := s.log.WriteAt(HeaderBytes(), 0); err != nil {
		return fmt.Errorf("store: reset log: %w", err)
	}
	s.logSize, s.compacted = headerLen, headerLen
	return nil
}

// Get implements core.ResultStore.
func (s *Store) Get(kind, key string) ([]byte, float64, bool) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, 0, false
	}
	e, ok := s.index[key]
	if !ok {
		s.mu.RUnlock()
		s.misses.Add(1)
		telemetry.StoreMisses.With(kind).Inc()
		return nil, 0, false
	}
	data := make([]byte, e.n)
	_, err := s.log.ReadAt(data, e.off)
	s.mu.RUnlock()
	if err != nil {
		s.misses.Add(1)
		telemetry.StoreMisses.With(kind).Inc()
		return nil, 0, false
	}
	s.hits.Add(1)
	telemetry.StoreHits.With(kind).Inc()
	return data, e.elapsedMS, true
}

// Put implements core.ResultStore: append one record to the log.
// Triggers a compaction once CompactBytes have been appended since the
// last one.
// Every error it returns is counted in DiskStats.PutErrors; an error
// from that compaction leaves the appended record indexed and readable.
func (s *Store) Put(kind, key string, data []byte, elapsedMS float64) (err error) {
	defer func() {
		if err != nil {
			s.putErrors.Add(1)
			telemetry.StorePutErrors.Inc()
		}
	}()
	if kind == "" || key == "" {
		return errors.New("store: kind and key required")
	}
	rec := EncodeRecord(Entry{Kind: kind, Key: key, ElapsedMS: elapsedMS, Data: data})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.log.WriteAt(rec, s.logSize); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.index[key] = indexEntry{off: s.logSize + int64(len(rec)-len(data)), n: len(data), kind: kind, elapsedMS: elapsedMS}
	s.logSize += int64(len(rec))
	s.puts.Add(1)
	telemetry.StorePuts.With(kind).Inc()
	s.publishGauges()
	if s.compactBytes > 0 && s.logSize-s.compacted > s.compactBytes {
		if err := s.compactLocked(); err != nil {
			return fmt.Errorf("store: auto-compact: %w", err)
		}
	}
	return nil
}

// Compact rewrites the live index as a fresh log (write tmp
// → fsync → atomic rename over store.log).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmpPath := filepath.Join(s.dir, tmpName)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()

	w := bufio.NewWriter(tmp)
	if _, err := w.Write(HeaderBytes()); err != nil {
		return err
	}
	// Deterministic order: a compaction of a given index always produces
	// the same log bytes.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	index := make(map[string]indexEntry, len(keys))
	off := int64(headerLen)
	for _, k := range keys {
		e := s.index[k]
		data := make([]byte, e.n)
		if _, err := s.log.ReadAt(data, e.off); err != nil {
			return fmt.Errorf("store: compact read %q: %w", k, err)
		}
		rec := EncodeRecord(Entry{Kind: e.kind, Key: k, ElapsedMS: e.elapsedMS, Data: data})
		if _, err := w.Write(rec); err != nil {
			return err
		}
		e.off = off + int64(len(rec)-len(data))
		index[k] = e
		off += int64(len(rec))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	// The rename is the commit point: from here the store runs on the
	// new log whatever else fails. Syncing the directory then makes the
	// rename itself survive a power loss; a sync error is returned but
	// leaves this process's store correct.
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		return err
	}
	committed = true
	_ = s.log.Close()
	s.log, s.index = tmp, index
	s.logSize, s.compacted = off, off
	s.compactions.Add(1)
	telemetry.StoreCompactions.Inc()
	s.publishGauges()
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: compact: sync dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Len reports the number of live index entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats implements core.ResultStore.
func (s *Store) Stats() core.DiskStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return core.DiskStats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Stale: s.stale.Load(),
		Puts: s.puts.Load(), PutErrors: s.putErrors.Load(), Compactions: s.compactions.Load(),
		Entries: len(s.index), Bytes: s.logSize,
	}
}

// publishGauges refreshes the size gauges; callers hold s.mu.
func (s *Store) publishGauges() {
	telemetry.StoreEntries.Set(int64(len(s.index)))
	telemetry.StoreBytes.Set(s.logSize)
}

// Close releases file handles. It deliberately does not compact:
// shutdown leaves exactly the crash-recovery state, so the recovery path
// is the only open path there is.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// Store implements the engine's disk-tier seam.
var _ core.ResultStore = (*Store)(nil)
