package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"libra"
	"libra/internal/core"
	"libra/internal/jobs"
	"libra/internal/store"
)

// TestRestartAcrossAnswerEpochs restarts a server on a -cache-dir that
// already holds an answer for the requested spec, written under the key
// a given answer epoch uses. The stored answer is deliberately wrong, so
// serving it is detectable: only the current epoch's entry may come back
// from disk; any other epoch's gets zero store hits, a fresh solve, and
// a stale count.
func TestRestartAcrossAnswerEpochs(t *testing.T) {
	spec, err := libra.ParseSpec([]byte(restartSpec(275)))
	if err != nil {
		t.Fatal(err)
	}
	memory := libra.NewEngine(libra.EngineConfig{Workers: 1, CacheSize: 8})
	defer memory.Close()
	fresh, err := memory.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wrong := fresh.Result
	wrong.BW = append(libra.BWConfig(nil), fresh.Result.BW...)
	wrong.BW[0]++
	wrongPayload, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	key := "optimize|" + fresh.Fingerprint

	cases := []struct {
		name                string
		storedKey           string
		wantCached          bool
		wantStale, wantHits uint64
	}{
		{"epoch 1 wrote untagged keys", key, false, 1, 0},
		{"a later epoch", "e99|" + key, false, 1, 0},
		{"the current epoch", core.AnswerEpoch + key, true, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			old, err := store.Open(store.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Put("optimize", c.storedKey, wrongPayload, 1); err != nil {
				t.Fatal(err)
			}
			old.Close()

			st, err := store.Open(store.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			engine := libra.NewEngine(libra.EngineConfig{Workers: 1, CacheSize: 8, Store: st})
			defer engine.Close()
			manager := jobs.NewManager(jobs.Config{Engine: engine, Capacity: 4})
			defer manager.Close()
			srv := httptest.NewServer(newMux(engine, manager, 1<<20, testLogger()))
			defer srv.Close()

			resp, body := postJSON(t, srv.URL+"/v1/optimize", restartSpec(275))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var got libra.EngineResult
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			want := fresh.Result.BW
			if c.wantCached {
				want = wrong.BW
			}
			if got.Cached != c.wantCached || got.Result.BW.String() != want.String() {
				t.Errorf("cached=%v bw=%v, want cached=%v bw=%v", got.Cached, got.Result.BW, c.wantCached, want)
			}
			ds := engine.Stats().Disk
			if ds.Stale != c.wantStale {
				t.Errorf("stale entries %d, want %d", ds.Stale, c.wantStale)
			}
			if ds.Hits != c.wantHits {
				t.Errorf("store hits %d, want %d", ds.Hits, c.wantHits)
			}
		})
	}
}
