// The on-disk format of the persistent result store: one layout for the
// append log and its compacted rewrite, so recovery, compaction, and
// fuzzing all exercise a single codec.
//
// A file is a 12-byte header (8-byte magic + big-endian u32 version)
// followed by records. Each record is a frame —
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// — whose payload encodes one cache entry with length-prefixed strings
// and fixed-width big-endian integers:
//
//	u8 kindLen | kind | u16 keyLen | key |
//	i64 insertedAt | i64 expiresAt | u64 float64bits(elapsedMS) |
//	u32 dataLen | data
//
// The encoding is canonical by construction: every field is either
// fixed-width or exactly length-prefixed, and the decoder rejects any
// payload whose declared lengths do not consume it exactly, so a given
// Entry has one and only one byte representation.
//
// Recovery semantics (DecodeLog): a record whose frame is intact but
// whose CRC or payload is bad is dropped individually and scanning
// continues at the next frame; a frame that cannot be trusted at all —
// short tail, or an implausible length field — ends the scan, and the
// returned tail offset is where a recovering writer should truncate.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Format bounds. maxRecord caps a single payload so a corrupt length
// field can never drive a huge allocation or mask the rest of the file.
const (
	logVersion = 1
	headerLen  = 12
	frameLen   = 8 // payloadLen + crc
	maxRecord  = 64 << 20
	// minPayload is an empty entry: 1+2 length prefixes, two i64
	// timestamps, the elapsed bits, and the u32 data length.
	minPayload = 1 + 2 + 8 + 8 + 8 + 4
)

var logMagic = [8]byte{'L', 'I', 'B', 'R', 'A', 'S', 'T', 'R'}

// ErrBadHeader marks a file that is not a store log at all (missing or
// foreign magic, unknown version) — as opposed to one with a torn tail.
var ErrBadHeader = errors.New("store: bad log header")

// HeaderBytes returns a fresh copy of the file header every log begins
// with.
func HeaderBytes() []byte {
	h := make([]byte, headerLen)
	copy(h, logMagic[:])
	binary.BigEndian.PutUint32(h[8:], logVersion)
	return h
}

// Entry is one persisted cache entry: the engine key, its TTL kind, the
// absolute insertion/expiry instants (unix nanoseconds; ExpiresAt 0 means
// never), the original computation's wall time, and the encoded result
// payload. Absolute expiry is what makes compaction and reopen preserve
// the remaining TTL instead of resetting it.
type Entry struct {
	Kind       string
	Key        string
	InsertedAt int64
	ExpiresAt  int64
	ElapsedMS  float64
	Data       []byte
}

// Record is one decoded log record plus its position in the scanned
// input: DataOff is the absolute offset of Entry.Data, End the offset
// just past the record's frame. Entry.Data aliases the scanned input.
type Record struct {
	Entry
	DataOff int64
	End     int64
}

// recordLen is the framed size of the record of an entry with this kind,
// key, and data length.
func recordLen(kind, key string, dataLen int) int64 {
	return int64(frameLen + minPayload + len(kind) + len(key) + dataLen)
}

// EncodeRecord returns the record's canonical frame bytes. The data
// payload is always the final len(e.Data) bytes of the frame.
func EncodeRecord(e Entry) []byte {
	buf := make([]byte, recordLen(e.Kind, e.Key, len(e.Data)))
	plen := len(buf) - frameLen
	binary.BigEndian.PutUint32(buf[0:], uint32(plen))
	p := buf[frameLen:]
	p[0] = byte(len(e.Kind))
	off := 1 + copy(p[1:], e.Kind)
	binary.BigEndian.PutUint16(p[off:], uint16(len(e.Key)))
	off += 2 + copy(p[off+2:], e.Key)
	binary.BigEndian.PutUint64(p[off:], uint64(e.InsertedAt))
	binary.BigEndian.PutUint64(p[off+8:], uint64(e.ExpiresAt))
	binary.BigEndian.PutUint64(p[off+16:], math.Float64bits(e.ElapsedMS))
	binary.BigEndian.PutUint32(p[off+24:], uint32(len(e.Data)))
	copy(p[off+28:], e.Data)
	binary.BigEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(p))
	return buf
}

// decodePayload parses one CRC-verified payload, rejecting any payload
// its declared lengths do not consume exactly.
func decodePayload(p []byte) (Entry, error) {
	var e Entry
	if len(p) < minPayload {
		return e, fmt.Errorf("store: payload too short (%d bytes)", len(p))
	}
	kindLen := int(p[0])
	if kindLen == 0 || 1+kindLen+2 > len(p) {
		return e, fmt.Errorf("store: bad kind length %d", kindLen)
	}
	e.Kind = string(p[1 : 1+kindLen])
	off := 1 + kindLen
	keyLen := int(binary.BigEndian.Uint16(p[off:]))
	off += 2
	if keyLen == 0 || off+keyLen+28 > len(p) {
		return e, fmt.Errorf("store: bad key length %d", keyLen)
	}
	e.Key = string(p[off : off+keyLen])
	off += keyLen
	e.InsertedAt = int64(binary.BigEndian.Uint64(p[off:]))
	e.ExpiresAt = int64(binary.BigEndian.Uint64(p[off+8:]))
	e.ElapsedMS = math.Float64frombits(binary.BigEndian.Uint64(p[off+16:]))
	dataLen := int(binary.BigEndian.Uint32(p[off+24:]))
	off += 28
	if off+dataLen != len(p) {
		return e, fmt.Errorf("store: data length %d does not consume payload", dataLen)
	}
	e.Data = p[off:]
	return e, nil
}

// DecodeLog scans a store file image: the decoded records, the offset of
// the last trustworthy frame boundary (the truncation point for torn-tail
// recovery), and how many framed-but-corrupt records were dropped. A
// missing or foreign header fails with ErrBadHeader. The scan never
// panics on arbitrary input; record data aliases the input slice.
func DecodeLog(data []byte) (recs []Record, tail int64, dropped int, err error) {
	if len(data) < headerLen || [8]byte(data[:8]) != logMagic ||
		binary.BigEndian.Uint32(data[8:]) != logVersion {
		return nil, 0, 0, ErrBadHeader
	}
	off := int64(headerLen)
	for {
		rest := int64(len(data)) - off
		if rest < frameLen {
			return recs, off, dropped, nil // torn or clean end
		}
		plen := int64(binary.BigEndian.Uint32(data[off:]))
		if plen < minPayload || plen > maxRecord {
			// An implausible length field: the framing itself cannot be
			// trusted past this point.
			return recs, off, dropped, nil
		}
		if rest < frameLen+plen {
			return recs, off, dropped, nil // torn tail: drop the partial record
		}
		payload := data[off+frameLen : off+frameLen+plen]
		end := off + frameLen + plen
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4:]) {
			dropped++ // frame intact, content corrupt: skip this record only
			off = end
			continue
		}
		e, perr := decodePayload(payload)
		if perr != nil {
			dropped++
			off = end
			continue
		}
		recs = append(recs, Record{Entry: e, DataOff: end - int64(len(e.Data)), End: end})
		off = end
	}
}
