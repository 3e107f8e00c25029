package core

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// AnswerEpoch versions the answers the engine persists, validate
// outcomes included: every disk-tier key the engine reads or writes
// starts with it, and store.Open skips records written under any other
// epoch (epoch 1's keys carry no prefix). It is the only rule that
// retires a persisted answer. A fingerprint names a question, not the
// code that answered it, so a solver, model or simulator change that
// moves answer bits under unchanged fingerprints bumps the epoch in the
// same change that regenerates testdata/answerlock.golden or
// VALIDATION_baseline.json, and re-pins the matching SHA-256 below
// (TestAnswerEpochPinsAnswerLock). Fingerprints, and the ETags made from
// them, stay unversioned. Epoch 2 picks each start's local search by
// convexity.
const AnswerEpoch = "e2|"

// answerLockSHA256 and validationBaselineSHA256 are the SHA-256s of
// testdata/answerlock.golden and of the repository's
// VALIDATION_baseline.json at AnswerEpoch.
const (
	answerLockSHA256         = "7f3f1be03bf50be5ca76203e43a18224ccbf800c7d02a91bb60cdcdc5f2839cd"
	validationBaselineSHA256 = "7671418215e777e49823452474f573df5491fdd4f3a95d5475ce4d9497d19079"
)

// ResultStore is the engine's second cache tier: a durable,
// fingerprint-keyed byte store consulted on LRU miss and written behind
// fresh solves (memory → disk → solve). internal/store provides the
// disk-backed implementation; core only sees this seam, so persistence
// stays pluggable (ROADMAP: distributed serving swaps in a remote tier).
// Implementations must be safe for concurrent use. kind is a metric
// label the engine derives from the key prefix
// (optimize|evaluate|validate|other).
type ResultStore interface {
	// Get returns the stored payload and the original computation's wall
	// time. ok is false when the key is absent.
	Get(kind, key string) (data []byte, elapsedMS float64, ok bool)
	// Put persists one computed result. Errors are reported but must not
	// fail the computation — the disk tier is an accelerator, not a
	// dependency.
	Put(kind, key string, data []byte, elapsedMS float64) error
	// Stats snapshots the store's counters for EngineStats.
	Stats() DiskStats
}

// DiskStats is the disk tier's view of cache effectiveness, surfaced
// through EngineStats and the libra_store_* metric series.
type DiskStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stale counts recovered entries written at another answer epoch, or
	// stamped with an expiry by an earlier build: never served, dropped by
	// the next compaction.
	Stale uint64 `json:"stale"`
	Puts  uint64 `json:"puts"`
	// PutErrors counts Put calls that returned an error, including a
	// failed auto-compaction after the record itself was appended.
	PutErrors   uint64 `json:"put_errors"`
	Compactions uint64 `json:"compactions"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
}

// Codec translates one computation's in-memory value to and from the
// byte payload a ResultStore persists. A computation without a codec
// (DoCodec with a nil codec) stays memory-only.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// jsonCodec persists values of a concrete type T as compact JSON. The
// decode side returns T (not *T) so cached values round-trip with the
// same dynamic type a fresh computation produces.
type jsonCodec[T any] struct{}

func (jsonCodec[T]) Encode(v any) ([]byte, error) {
	t, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("core: codec got %T", v)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(t); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func (jsonCodec[T]) Decode(data []byte) (any, error) {
	t, err := DecodeStrict[T](data, "core: stored result")
	if err != nil {
		return nil, err
	}
	return *t, nil
}

// JSONCodec builds a Codec persisting values of type T as JSON. Decoding
// rejects unknown fields so a payload written by a different result
// schema falls back to a fresh solve instead of loading half a value.
func JSONCodec[T any]() Codec { return jsonCodec[T]{} }

// resultCodec persists the typed Optimize/Evaluate results.
var resultCodec = JSONCodec[Result]()
