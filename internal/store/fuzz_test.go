package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libra/internal/core"
)

// FuzzStoreLog drives arbitrary bytes (seeded with valid and mutated
// logs) through the on-disk decoder and asserts the recovery
// invariants: no panic on any input, every accepted record decodes to
// an entry whose re-encoding is canonical (encode∘decode∘encode is
// byte-stable and CRC-valid), record offsets are sane, and the
// truncation tail always lands on a frame boundary within the input.
func FuzzStoreLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(HeaderBytes())
	valid := HeaderBytes()
	valid = append(valid, EncodeRecord(Entry{
		Kind: "optimize", Key: "optimize|abcd1234",
		InsertedAt: 1700000000000000000, ExpiresAt: 0,
		ElapsedMS: 12.5, Data: []byte(`{"result":{"weighted_time":1.5}}`),
	})...)
	valid = append(valid, EncodeRecord(Entry{
		Kind: "validate", Key: "validate|x|c=3",
		InsertedAt: 1, ExpiresAt: 2, ElapsedMS: 0, Data: []byte("v"),
	})...)
	f.Add(valid)
	// Mutations of the valid log: torn tail, flipped payload byte,
	// flipped length byte.
	f.Add(valid[:len(valid)-5])
	flip := func(i int) []byte {
		m := bytes.Clone(valid)
		m[i] ^= 0x41
		return m
	}
	f.Add(flip(headerLen + frameLen + 3)) // inside the first payload
	f.Add(flip(headerLen + 1))            // inside the first length field
	f.Add(flip(2))                        // inside the magic

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, tail, dropped, err := DecodeLog(data)
		if err != nil {
			if err != ErrBadHeader {
				t.Fatalf("unexpected error class: %v", err)
			}
			if len(recs) != 0 || tail != 0 || dropped != 0 {
				t.Fatalf("bad header must return zero results, got %d recs tail %d", len(recs), tail)
			}
			return
		}
		if tail < headerLen || tail > int64(len(data)) {
			t.Fatalf("tail %d outside [%d, %d]", tail, headerLen, len(data))
		}
		prevEnd := int64(headerLen)
		for i, r := range recs {
			if r.Key == "" || r.Kind == "" {
				t.Fatalf("record %d: accepted an empty key/kind", i)
			}
			if r.End <= prevEnd || r.End > tail {
				t.Fatalf("record %d: end %d not in (%d, %d]", i, r.End, prevEnd, tail)
			}
			if r.DataOff+int64(len(r.Data)) != r.End {
				t.Fatalf("record %d: data [%d,+%d) does not end the frame at %d", i, r.DataOff, len(r.Data), r.End)
			}
			if !bytes.Equal(data[r.DataOff:r.End], r.Data) {
				t.Fatalf("record %d: DataOff does not locate Data", i)
			}
			prevEnd = r.End

			// Canonical re-encode: the accepted entry survives a
			// round-trip byte-identically, and its fresh frame decodes to
			// the same entry (CRC included).
			enc := EncodeRecord(r.Entry)
			reLog := append(HeaderBytes(), enc...)
			reRecs, reTail, reDropped, reErr := DecodeLog(reLog)
			if reErr != nil || reDropped != 0 || len(reRecs) != 1 {
				t.Fatalf("record %d: re-encoded frame rejected (%v, dropped %d, recs %d)", i, reErr, reDropped, len(reRecs))
			}
			if reTail != int64(len(reLog)) {
				t.Fatalf("record %d: re-encoded log has a loose tail", i)
			}
			re := reRecs[0].Entry
			if re.Kind != r.Kind || re.Key != r.Key ||
				re.InsertedAt != r.InsertedAt || re.ExpiresAt != r.ExpiresAt ||
				!bytes.Equal(re.Data, r.Data) {
				t.Fatalf("record %d: round-trip changed the entry", i)
			}
			if !bytes.Equal(EncodeRecord(re), enc) {
				t.Fatalf("record %d: encoding is not canonical", i)
			}
		}
	})
}

// FuzzStoreOpen writes arbitrary bytes (seeded with a valid log and its
// torn, corrupt, foreign and empty variants) as store.log and opens the
// store on it — the only recovery input there is. Open never fails or
// panics; a key the decoder accepts is served exactly when its last
// record carries the current epoch and no expiry stamp (ExpiresAt 0),
// and then with that record's bytes; every other record counts as
// stale; a Put then Get round-trips; and after a compaction, Close and
// reopen the same keys serve the same bytes.
func FuzzStoreOpen(f *testing.F) {
	valid := HeaderBytes()
	for _, e := range []Entry{
		{Kind: "optimize", Key: core.AnswerEpoch + "optimize|a", InsertedAt: 1, ElapsedMS: 2.5, Data: []byte(`{"v":1}`)},
		{Kind: "validate", Key: core.AnswerEpoch + "validate|b", InsertedAt: 2, ExpiresAt: 1 << 62, Data: []byte("b")},
		{Kind: "optimize", Key: "optimize|older-epoch", InsertedAt: 3, Data: []byte("stale")},
		{Kind: "optimize", Key: core.AnswerEpoch + "optimize|a", InsertedAt: 4, Data: []byte(`{"v":2}`)},
		// A TTL-era record retires the earlier entry for its key, and an
		// entry written after one is served.
		{Kind: "validate", Key: core.AnswerEpoch + "validate|c", Data: []byte("c")},
		{Kind: "validate", Key: core.AnswerEpoch + "validate|c", InsertedAt: 5, ExpiresAt: 6, Data: []byte("ttl-era")},
		{Kind: "validate", Key: core.AnswerEpoch + "validate|d", InsertedAt: 7, ExpiresAt: 8, Data: []byte("ttl-era")},
		{Kind: "validate", Key: core.AnswerEpoch + "validate|d", Data: []byte("d")},
	} {
		valid = append(valid, EncodeRecord(e)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	crc := bytes.Clone(valid)
	crc[headerLen+5] ^= 0x10 // inside the first record's CRC
	f.Add(crc)
	f.Add(append([]byte("NOTASTORE\x00\x00\x01"), valid[headerLen:]...)) // foreign header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		cfg := Config{Dir: dir, CompactBytes: -1}
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, retired := map[string][]byte{}, map[string]bool{}
		var stale uint64
		if recs, _, _, err := DecodeLog(data); err == nil {
			for _, r := range recs {
				if strings.HasPrefix(r.Key, core.AnswerEpoch) && r.ExpiresAt == 0 {
					want[r.Key] = r.Data
					delete(retired, r.Key)
				} else {
					delete(want, r.Key)
					retired[r.Key] = true
					stale++
				}
			}
		}
		served := func(s *Store, keys map[string][]byte) {
			t.Helper()
			if n := s.Len(); n != len(keys) {
				t.Fatalf("%d entries indexed, want %d", n, len(keys))
			}
			for k := range retired {
				if got, _, ok := s.Get("probe", k); ok {
					t.Fatalf("key %q: served %q, but its last record is from another epoch or carries an expiry", k, got)
				}
			}
			for k, v := range keys {
				got, _, ok := s.Get("probe", k)
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("key %q: got %q (hit %v), want %q", k, got, ok, v)
				}
			}
		}

		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if got := s.Stats().Stale; got != stale {
			t.Fatalf("%d records counted stale, want %d", got, stale)
		}
		served(s, want)
		putKey := core.AnswerEpoch + "optimize|fuzz-put"
		if err := s.Put("optimize", putKey, []byte("put"), 1); err != nil {
			t.Fatal(err)
		}
		want[putKey] = []byte("put")
		delete(retired, putKey)
		served(s, want)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		if got := r.Stats().Stale; got != 0 {
			t.Fatalf("%d stale records survived the compaction", got)
		}
		served(r, want)
	})
}
