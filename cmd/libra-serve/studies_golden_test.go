package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateStudies = flag.Bool("update-studies", false, "rewrite testdata/studies.golden")

// The composed studies' answer lock: full HTTP bodies of a co-design
// study, a cluster study and a run of /v1/evaluate requests, compared
// byte for byte with testdata/studies.golden apart from elapsed_ms.
// The specs are chosen so that no two concurrent points of one study
// share a fingerprint — a shared one would make its cached flag race.
// Every cached: true in the golden comes from a point that finished
// before its duplicate started (a ranking solve before the budget axis,
// the baseline before the candidates, a sequential repeat request).
// Regenerate with `go test ./cmd/libra-serve -run TestStudyGoldens
// -update-studies`, only when an answer moves on purpose.
var studyGoldenRequests = []struct {
	name, path, body string
}{
	// Four candidates (TP 2/4 × PP 1/2), EqualBW priced, and a budget
	// axis whose top budget is the ranking budget.
	{"codesign", "/v1/codesign", `{
  "base": {
    "topology": "RI(4)_SW(8)",
    "budget_gbps": 300,
    "workloads": [{"transformer": {
      "name": "tiny", "num_layers": 4, "hidden": 512, "seq_len": 64,
      "tp": 4, "minibatch": 8
    }}]
  },
  "tps": [2, 4],
  "pps": [1, 2],
  "budgets": [150, 300]
}`},
	// Every policy, a four-step partition grid and a budget axis whose
	// top budget is the study budget.
	{"cluster", "/v1/cluster", `{
  "topology": "RI(4)_SW(8)",
  "budgets": [100, 200],
  "partition_steps": 4,
  "jobs": [
    {"transformer": {"name": "a", "num_layers": 4, "hidden": 512, "seq_len": 64, "tp": 4, "minibatch": 8}},
    {"transformer": {"name": "b", "num_layers": 4, "hidden": 256, "seq_len": 64, "tp": 4, "minibatch": 8}, "weight": 2}
  ]
}`},
	{"evaluate-a", "/v1/evaluate", `{"spec":` + tinyProblem + `,"bw":[120,80]}`},
	{"evaluate-b", "/v1/evaluate", `{"spec":` + tinyProblem + `,"bw":[50,150]}`},
	{"evaluate-a-again", "/v1/evaluate", `{"spec":` + tinyProblem + `,"bw":[120,80]}`},
	{"evaluate-bad-bw", "/v1/evaluate", `{"spec":` + tinyProblem + `,"bw":[100,100,100]}`},
}

var elapsedMS = regexp.MustCompile(`"elapsed_ms": *[-+0-9.eE]+`)

func TestStudyGoldens(t *testing.T) {
	srv := testServer(t)
	var got bytes.Buffer
	for _, r := range studyGoldenRequests {
		resp, body := postJSON(t, srv.URL+r.path, r.body)
		if r.name != "evaluate-bad-bw" && resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.name, resp.StatusCode, body)
		}
		fmt.Fprintf(&got, "== %s %d\n", r.name, resp.StatusCode)
		got.Write(elapsedMS.ReplaceAll(bytes.TrimSpace(body), []byte(`"elapsed_ms": 0`)))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "studies.golden")
	if *updateStudies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-studies)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("study bodies differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
