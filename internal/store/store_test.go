package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"libra/internal/core"
)

// openTest opens a store in dir with test-friendly defaults, failing the
// test on error and closing on cleanup.
func openTest(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, kind, key string, data []byte) {
	t.Helper()
	if err := s.Put(kind, key, data, 1.5); err != nil {
		t.Fatalf("put %s/%s: %v", kind, key, err)
	}
}

func mustGet(t *testing.T, s *Store, kind, key string) []byte {
	t.Helper()
	data, _, ok := s.Get(kind, key)
	if !ok {
		t.Fatalf("get %s/%s: miss, want hit", kind, key)
	}
	return data
}

// TestRoundTrip pins the basic contract: a Put is readable back (with
// its elapsed metadata), an absent key is a miss, both are counted.
func TestRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	payload := []byte(`{"answer":42}`)
	if err := s.Put("optimize", core.AnswerEpoch+"optimize|abc", payload, 12.5); err != nil {
		t.Fatal(err)
	}
	data, elapsed, ok := s.Get("optimize", core.AnswerEpoch+"optimize|abc")
	if !ok || !bytes.Equal(data, payload) {
		t.Fatalf("get = %q, %v", data, ok)
	}
	if elapsed != 12.5 {
		t.Fatalf("elapsed %v, want 12.5", elapsed)
	}
	if _, _, ok := s.Get("optimize", core.AnswerEpoch+"optimize|nope"); ok {
		t.Fatal("absent key must miss")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes %d", st.Bytes)
	}
}

// TestReopenPersistence: entries survive Close/Open, byte-identical,
// including an overwrite where the log's later record must win.
func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|a", []byte("v1"))
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|b", []byte("other"))
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|a", []byte("v2-overwrites"))
	s.Close()

	r := openTest(t, dir, Config{})
	if got := mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|a"); !bytes.Equal(got, []byte("v2-overwrites")) {
		t.Fatalf("replayed %q, want the later record", got)
	}
	if got := mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|b"); !bytes.Equal(got, []byte("other")) {
		t.Fatalf("replayed %q", got)
	}
	if r.Len() != 2 {
		t.Fatalf("entries %d, want 2 (overwrite must not duplicate)", r.Len())
	}
}

// TestTornTailRecovery: a partial record at the log's end (the shape a
// kill mid-write leaves) is dropped on reopen — and only it; every
// complete record before it survives. The reopened log accepts new
// appends cleanly.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|keep1", []byte("payload-1"))
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|keep2", []byte("payload-2"))
	s.Close()

	logPath := filepath.Join(dir, logName)
	full := EncodeRecord(Entry{Kind: "optimize", Key: core.AnswerEpoch + "optimize|torn", InsertedAt: 1, Data: []byte("torn-away")})
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTest(t, dir, Config{})
	if r.Len() != 2 {
		t.Fatalf("entries %d, want the 2 intact records", r.Len())
	}
	mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|keep1")
	mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|keep2")
	if _, _, ok := r.Get("optimize", core.AnswerEpoch+"optimize|torn"); ok {
		t.Fatal("torn record must be dropped")
	}
	// The tail was truncated, so a fresh append must round-trip.
	mustPut(t, r, "optimize", core.AnswerEpoch+"optimize|after", []byte("post-recovery"))
	r.Close()
	r2 := openTest(t, dir, Config{})
	if got := mustGet(t, r2, "optimize", core.AnswerEpoch+"optimize|after"); !bytes.Equal(got, []byte("post-recovery")) {
		t.Fatalf("post-recovery append %q", got)
	}
}

// TestCorruptRecordSkipped: a bit flip inside one record's payload fails
// its CRC; recovery drops exactly that record and keeps its neighbors on
// both sides.
func TestCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|before", []byte("intact-before"))
	victimStart := s.logSize
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|victim", []byte("to-be-corrupted"))
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|after", []byte("intact-after"))
	s.Close()

	logPath := filepath.Join(dir, logName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[victimStart+frameLen+10] ^= 0xFF // flip a payload byte → CRC mismatch
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Config{})
	if r.Len() != 2 {
		t.Fatalf("entries %d, want 2 survivors", r.Len())
	}
	mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|before")
	mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|after")
	if _, _, ok := r.Get("optimize", core.AnswerEpoch+"optimize|victim"); ok {
		t.Fatal("corrupt record must be rejected by its CRC")
	}
}

// TestForeignLogReset: a log file that is not a store log at all (wrong
// magic) is reset rather than crashing or poisoning the index.
func TestForeignLogReset(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("definitely not a store log"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Config{})
	if s.Len() != 0 {
		t.Fatalf("entries %d", s.Len())
	}
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|x", []byte("fresh"))
	s.Close()
	r := openTest(t, dir, Config{})
	mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|x")
}

// TestOpenSkipsOtherEpochs: reopening never indexes entries whose key
// lacks core.AnswerEpoch (written at another answer epoch; epoch 1's
// keys carry no prefix), counts them as stale, and the next compaction
// drops them for good.
func TestOpenSkipsOtherEpochs(t *testing.T) {
	dir := t.TempDir()
	current := core.AnswerEpoch + "optimize|new"
	others := []string{"optimize|old", "e1|optimize|older", "e99|optimize|newer"}
	s := openTest(t, dir, Config{CompactBytes: -1})
	for _, key := range others {
		mustPut(t, s, "optimize", key, []byte("another epoch's answer"))
	}
	mustPut(t, s, "optimize", current, []byte("current answer"))
	s.Close()

	r := openTest(t, dir, Config{CompactBytes: -1})
	if st := r.Stats(); st.Stale != uint64(len(others)) || st.Entries != 1 {
		t.Fatalf("stats after reopen: %+v, want %d stale and 1 entry", st, len(others))
	}
	for _, key := range others {
		if _, _, ok := r.Get("optimize", key); ok {
			t.Fatalf("%s: served an entry from another epoch", key)
		}
	}
	if got := mustGet(t, r, "optimize", current); !bytes.Equal(got, []byte("current answer")) {
		t.Fatalf("current entry = %q", got)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	c := openTest(t, dir, Config{CompactBytes: -1})
	if st := c.Stats(); st.Stale != 0 || st.Entries != 1 {
		t.Fatalf("stats after compaction: %+v, want 0 stale and 1 entry", st)
	}
}

// TestOpenSkipsTTLEraRecords: a cache dir written by a build that aged
// validate outcomes out on a TTL holds records with an expiry stamp. The
// epoch now retires validate outcomes too, so Open counts each such
// record as stale and never serves it; being later, it retires an
// earlier entry for its key, while an entry written after it is served.
// The next compaction drops every one of them.
func TestOpenSkipsTTLEraRecords(t *testing.T) {
	dir := t.TempDir()
	key := func(name string) string { return core.AnswerEpoch + "validate|" + name }
	log := HeaderBytes()
	for _, e := range []Entry{
		{Kind: "optimize", Key: core.AnswerEpoch + "optimize|kept", Data: []byte("answer")},
		{Kind: "validate", Key: key("aged"), InsertedAt: 1, ExpiresAt: 1 << 62, Data: []byte("ttl-era")},
		{Kind: "validate", Key: key("retired"), Data: []byte("earlier")},
		{Kind: "validate", Key: key("retired"), InsertedAt: 2, ExpiresAt: 3, Data: []byte("ttl-era")},
		{Kind: "validate", Key: key("resolved"), InsertedAt: 4, ExpiresAt: 5, Data: []byte("ttl-era")},
		{Kind: "validate", Key: key("resolved"), Data: []byte("current")},
	} {
		log = append(log, EncodeRecord(e)...)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTest(t, dir, Config{CompactBytes: -1})
	if st := s.Stats(); st.Stale != 3 || st.Entries != 2 {
		t.Fatalf("stats after open: %+v, want 3 stale and 2 entries", st)
	}
	for _, name := range []string{"aged", "retired"} {
		if got, _, ok := s.Get("validate", key(name)); ok {
			t.Fatalf("%s: served %q from a TTL-era log", name, got)
		}
	}
	if got := mustGet(t, s, "validate", key("resolved")); !bytes.Equal(got, []byte("current")) {
		t.Fatalf("resolved = %q, want the record written after the TTL-era one", got)
	}
	mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|kept")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := DecodeLog(raw)
	if err != nil || len(recs) != 2 {
		t.Fatalf("compacted log: %d records (err %v), want 2", len(recs), err)
	}
	for _, r := range recs {
		if r.InsertedAt != 0 || r.ExpiresAt != 0 {
			t.Fatalf("compacted record %q stamped %d/%d, want 0/0", r.Key, r.InsertedAt, r.ExpiresAt)
		}
	}
	c := openTest(t, dir, Config{CompactBytes: -1})
	if st := c.Stats(); st.Stale != 0 || st.Entries != 2 {
		t.Fatalf("stats after compaction: %+v, want 0 stale and 2 entries", st)
	}
}

// TestCompaction: compaction rewrites the log to its live entries,
// shrinks disk usage when entries were overwritten, keeps every live
// entry readable, and the compacted state reopens identically.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{CompactBytes: -1})
	// Overwrite one key many times: the log holds every version, the
	// compacted log only the last.
	for i := 0; i < 50; i++ {
		mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|hot", []byte(fmt.Sprintf("version-%02d", i)))
	}
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|cold", []byte("steady"))
	before := s.Stats().Bytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Bytes
	if after >= before {
		t.Fatalf("compaction grew disk use: %d → %d", before, after)
	}
	if got := mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|hot"); !bytes.Equal(got, []byte("version-49")) {
		t.Fatalf("post-compact read %q", got)
	}
	mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|cold")
	if s.Stats().Compactions != 1 {
		t.Fatalf("compactions %d", s.Stats().Compactions)
	}
	// Appends after compaction land after the compacted records and win
	// over them on reopen.
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|hot", []byte("post-compact"))
	s.Close()
	r := openTest(t, dir, Config{})
	if got := mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|hot"); !bytes.Equal(got, []byte("post-compact")) {
		t.Fatalf("reopen after compact %q", got)
	}
	if got := mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|cold"); !bytes.Equal(got, []byte("steady")) {
		t.Fatalf("reopen after compact %q", got)
	}
}

// TestAutoCompaction: Put triggers compaction once CompactBytes have
// been appended.
func TestAutoCompaction(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{CompactBytes: 512})
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 32; i++ {
		mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|hot", payload)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|hot")
}

// TestCompactionTriggerCountsAppends: auto-compaction fires once
// CompactBytes have been appended since the last compaction, not
// whenever the file is larger than CompactBytes. With live data well
// over the bound, N overwrites cost about N·recordSize/CompactBytes
// compactions, not one per Put.
func TestCompactionTriggerCountsAppends(t *testing.T) {
	const bound = 4096
	s := openTest(t, t.TempDir(), Config{CompactBytes: bound})
	payload := bytes.Repeat([]byte("p"), 128)
	key := func(i int) string { return fmt.Sprintf("%soptimize|live-%03d", core.AnswerEpoch, i) }
	const live = 64
	for i := 0; i < live; i++ {
		mustPut(t, s, "optimize", key(i), payload)
	}
	recSize := len(EncodeRecord(Entry{Kind: "optimize", Key: key(0), Data: payload}))
	if liveBytes := live * recSize; liveBytes < 2*bound {
		t.Fatalf("live data %d B does not exceed the bound %d B enough to mean anything", liveBytes, bound)
	}

	const n = 300
	before := s.Stats().Compactions
	for i := 0; i < n; i++ {
		mustPut(t, s, "optimize", key(i%live), payload)
	}
	got := int(s.Stats().Compactions - before)
	want := n * recSize / bound
	if got < want-1 || got > want+1 {
		t.Fatalf("%d overwrites of %d-byte records at CompactBytes %d ran %d compactions, want about %d",
			n, recSize, bound, got, want)
	}
	if s.Len() != live {
		t.Fatalf("entries %d, want %d", s.Len(), live)
	}
	for i := 0; i < live; i++ {
		mustGet(t, s, "optimize", key(i))
	}
}

// TestReopenCountsDeadRecordsAsAppended: Open treats the recovered log's
// live records as the last compaction's output. A freshly compacted log
// larger than CompactBytes reopens without owing a compaction; a log
// whose overwritten records exceed CompactBytes compacts on the next Put.
func TestReopenCountsDeadRecordsAsAppended(t *testing.T) {
	const bound = 1024
	payload := bytes.Repeat([]byte("p"), 128)
	key := func(i int) string { return fmt.Sprintf("%soptimize|k-%02d", core.AnswerEpoch, i) }
	dir := t.TempDir()
	s := openTest(t, dir, Config{CompactBytes: -1})
	for i := 0; i < 32; i++ {
		mustPut(t, s, "optimize", key(i), payload)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, Config{CompactBytes: bound})
	mustPut(t, r, "optimize", key(0), payload)
	if c := r.Stats().Compactions; c != 0 {
		t.Fatalf("a compacted log reopened owing a compaction: %d ran", c)
	}
	r.Close()

	w := openTest(t, dir, Config{CompactBytes: -1})
	for i := 0; i < 16; i++ {
		mustPut(t, w, "optimize", key(1), payload)
	}
	w.Close()
	d := openTest(t, dir, Config{CompactBytes: bound})
	mustPut(t, d, "optimize", key(2), payload)
	if c := d.Stats().Compactions; c != 1 {
		t.Fatalf("a log with %d B of overwritten records ran %d compactions on the next Put, want 1", 16*len(payload), c)
	}
}

// TestOrphanTmpRemoved: a tmp file from a compaction killed before its
// rename must be discarded on open — the log it would have replaced is
// the truth.
func TestOrphanTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|live", []byte("authoritative"))
	s.Close()
	tmpPath := filepath.Join(dir, tmpName)
	if err := os.WriteFile(tmpPath, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Config{})
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("orphan tmp still present (err %v)", err)
	}
	if got := mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|live"); !bytes.Equal(got, []byte("authoritative")) {
		t.Fatalf("read %q", got)
	}
}

// TestOpenEarlierLayout: a cache dir from the earlier two-file layout (a
// compacted store.snap beside store.log, maybe a store.snap.tmp) opens
// with the log's entries served and the snapshot files deleted; the
// entries only the snapshot held are misses, solved again on demand.
func TestOpenEarlierLayout(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{CompactBytes: -1})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|in-log", []byte("logged"))
	s.Close()
	snap := append(HeaderBytes(), EncodeRecord(Entry{
		Kind: "optimize", Key: core.AnswerEpoch + "optimize|in-snap", InsertedAt: 1, Data: []byte("snapped"),
	})...)
	legacy := []string{"store.snap", "store.snap.tmp"}
	for _, name := range legacy {
		if err := os.WriteFile(filepath.Join(dir, name), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := openTest(t, dir, Config{CompactBytes: -1})
	for _, name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still present after Open (err %v)", name, err)
		}
	}
	if got := mustGet(t, r, "optimize", core.AnswerEpoch+"optimize|in-log"); !bytes.Equal(got, []byte("logged")) {
		t.Fatalf("log entry = %q", got)
	}
	if _, _, ok := r.Get("optimize", core.AnswerEpoch+"optimize|in-snap"); ok {
		t.Fatal("served an entry only the deleted snapshot held")
	}
	mustPut(t, r, "optimize", core.AnswerEpoch+"optimize|after", []byte("appended"))
	r.Close()

	c := openTest(t, dir, Config{CompactBytes: -1})
	if c.Len() != 2 {
		t.Fatalf("entries %d, want 2", c.Len())
	}
	mustGet(t, c, "optimize", core.AnswerEpoch+"optimize|in-log")
	if got := mustGet(t, c, "optimize", core.AnswerEpoch+"optimize|after"); !bytes.Equal(got, []byte("appended")) {
		t.Fatalf("post-upgrade append = %q", got)
	}
}

// TestClosedStore: operations on a closed store fail cleanly.
func TestClosedStore(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|x", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("optimize", core.AnswerEpoch+"optimize|x"); ok {
		t.Fatal("closed store must miss")
	}
	if err := s.Put("optimize", core.AnswerEpoch+"optimize|y", []byte("v"), 0); err != ErrClosed {
		t.Fatalf("put on closed store: %v", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("compact on closed store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestOpenValidation: a store needs a directory, and rejects kindless or
// keyless puts (they could not round-trip through the codec).
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("empty Dir must be rejected")
	}
	s := openTest(t, t.TempDir(), Config{})
	if err := s.Put("", "key", []byte("v"), 0); err == nil {
		t.Fatal("empty kind must be rejected")
	}
	if err := s.Put("optimize", "", []byte("v"), 0); err == nil {
		t.Fatal("empty key must be rejected")
	}
}

// TestDecodeLogBounds covers the decoder's framing edges directly: bad
// header, implausible length field, and an empty-but-valid file.
func TestDecodeLogBounds(t *testing.T) {
	if _, _, _, err := DecodeLog(nil); err != ErrBadHeader {
		t.Fatalf("nil input: %v", err)
	}
	if _, _, _, err := DecodeLog([]byte("WRONGMAGIC__")); err != ErrBadHeader {
		t.Fatalf("foreign magic: %v", err)
	}
	recs, tail, dropped, err := DecodeLog(HeaderBytes())
	if err != nil || len(recs) != 0 || tail != headerLen || dropped != 0 {
		t.Fatalf("empty log: %v %d %d %v", recs, tail, dropped, err)
	}
	// A length field past maxRecord ends the scan at that offset.
	data := HeaderBytes()
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[:4], maxRecord+1)
	data = append(data, frame[:]...)
	data = append(data, bytes.Repeat([]byte("z"), 64)...)
	_, tail, _, err = DecodeLog(data)
	if err != nil || tail != headerLen {
		t.Fatalf("oversized length: tail %d err %v", tail, err)
	}
}
