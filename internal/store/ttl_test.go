package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"libra/internal/core"
)

// fakeClock is a deterministic, manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestTTLBoundaries pins the expiry instant exactly: alive strictly
// before insertedAt+ttl, dead at and after it, with the expiry counted
// and the entry re-insertable (the re-solve path).
func TestTTLBoundaries(t *testing.T) {
	clk := newFakeClock()
	ttl := time.Hour
	s := openTest(t, t.TempDir(), Config{
		TTLs: map[string]time.Duration{"validate": ttl},
		Now:  clk.Now,
	})
	mustPut(t, s, "validate", core.AnswerEpoch+"validate|x", []byte("fresh"))

	clk.Advance(ttl - time.Nanosecond) // one tick short of expiry
	mustGet(t, s, "validate", core.AnswerEpoch+"validate|x")

	clk.Advance(time.Nanosecond) // now == insertedAt + ttl: dead
	if _, _, ok := s.Get("validate", core.AnswerEpoch+"validate|x"); ok {
		t.Fatal("entry must expire exactly at insertedAt+ttl")
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Fatalf("expired %d, want 1", st.Expired)
	}
	if st.Entries != 0 {
		t.Fatalf("entries %d, expired entry must leave the index", st.Entries)
	}

	// Re-solve: a fresh Put under the same key restarts the clock.
	mustPut(t, s, "validate", core.AnswerEpoch+"validate|x", []byte("resolved"))
	clk.Advance(ttl / 2)
	mustGet(t, s, "validate", core.AnswerEpoch+"validate|x")
}

// TestNoExpiryDefault: kinds with TTL 0 (the optimize default — a solve
// on a pinned model version is a pure function of its fingerprint)
// never expire, no matter how far the clock runs.
func TestNoExpiryDefault(t *testing.T) {
	clk := newFakeClock()
	s := openTest(t, t.TempDir(), Config{
		TTLs: map[string]time.Duration{"validate": time.Minute}, // optimize absent → 0
		Now:  clk.Now,
	})
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|eternal", []byte("pinned"))
	mustPut(t, s, "validate", core.AnswerEpoch+"validate|aging", []byte("aging"))

	clk.Advance(1000 * 24 * time.Hour)
	mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|eternal")
	if _, _, ok := s.Get("validate", core.AnswerEpoch+"validate|aging"); ok {
		t.Fatal("validate entry must age out")
	}
	if s.SweepExpired() != 0 {
		t.Fatal("nothing further to sweep")
	}
	mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|eternal")
}

// TestRemainingTTLPreserved: compaction, close and reopen — in every
// combination — must preserve the absolute expiry instant, not restart
// the TTL from the restore time.
func TestRemainingTTLPreserved(t *testing.T) {
	ttl := 10 * time.Hour
	for _, restore := range []string{"reopen", "compact", "compact+reopen"} {
		t.Run(restore, func(t *testing.T) {
			clk := newFakeClock()
			dir := t.TempDir()
			cfg := Config{
				TTLs:         map[string]time.Duration{"validate": ttl},
				Now:          clk.Now,
				CompactBytes: -1,
			}
			s := openTest(t, dir, cfg)
			mustPut(t, s, "validate", core.AnswerEpoch+"validate|x", []byte("timed"))

			clk.Advance(6 * time.Hour) // 4h of TTL left
			switch restore {
			case "reopen":
				s.Close()
				s = openTest(t, dir, cfg)
			case "compact":
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			case "compact+reopen":
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				s.Close()
				s = openTest(t, dir, cfg)
			}

			clk.Advance(3 * time.Hour) // 9h elapsed total: still alive
			mustGet(t, s, "validate", core.AnswerEpoch+"validate|x")
			clk.Advance(time.Hour + time.Nanosecond) // past 10h: dead
			if _, _, ok := s.Get("validate", core.AnswerEpoch+"validate|x"); ok {
				t.Fatalf("%s must not reset the TTL", restore)
			}
		})
	}
}

// TestExpiredEntriesDropFromCompaction: compaction reclaims expired
// entries' disk space — they are absent from the rewritten log and stay
// gone after reopen (the log simply no longer holds them).
func TestExpiredEntriesDropFromCompaction(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	cfg := Config{
		TTLs:         map[string]time.Duration{"validate": time.Minute},
		Now:          clk.Now,
		CompactBytes: -1,
	}
	s := openTest(t, dir, cfg)
	mustPut(t, s, "validate", core.AnswerEpoch+"validate|dies", []byte("short-lived"))
	mustPut(t, s, "optimize", core.AnswerEpoch+"optimize|lives", []byte("forever"))
	clk.Advance(2 * time.Minute)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("entries %d, want 1 after compacting an expired entry away", s.Len())
	}
	s.Close()
	s = openTest(t, dir, cfg)
	if _, _, ok := s.Get("validate", core.AnswerEpoch+"validate|dies"); ok {
		t.Fatal("expired entry resurrected by reopen")
	}
	mustGet(t, s, "optimize", core.AnswerEpoch+"optimize|lives")
}

// TestTTLProperty is a randomized property check: for a run of inserts
// at random instants with per-kind TTLs, a Get at a random later
// instant hits iff now < insertedAt+ttl (or the kind never expires).
// Seeded, so failures reproduce.
func TestTTLProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ttls := map[string]time.Duration{
		"validate": 37 * time.Minute,
		"frontier": 2 * time.Hour,
		// optimize absent: never expires
	}
	kinds := []string{"validate", "frontier", "optimize"}
	clk := newFakeClock()
	s := openTest(t, t.TempDir(), Config{TTLs: ttls, Now: clk.Now})

	type inserted struct {
		kind string
		at   time.Time
	}
	live := map[string]inserted{}
	for i := 0; i < 400; i++ {
		clk.Advance(time.Duration(rng.Intn(20)+1) * time.Minute)
		key := fmt.Sprintf("%s|k%02d", kinds[rng.Intn(len(kinds))], rng.Intn(40))
		switch rng.Intn(3) {
		case 0: // insert/overwrite
			kind := key[:len(key)-4]
			mustPut(t, s, kind, key, []byte(key))
			live[key] = inserted{kind: kind, at: clk.Now()}
		default: // probe
			ins, ok := live[key]
			wantHit := false
			if ok {
				ttl := ttls[ins.kind]
				wantHit = ttl == 0 || clk.Now().Before(ins.at.Add(ttl))
			}
			_, _, hit := s.Get("probe", key)
			if hit != wantHit {
				t.Fatalf("step %d key %s: hit=%v want %v (inserted %v ago, ttl %v)",
					i, key, hit, wantHit, clk.Now().Sub(ins.at), ttls[ins.kind])
			}
		}
	}
}
