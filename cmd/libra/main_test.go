package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libra"
)

const exampleSpec = "../../examples/spec.json"

// The north-star answer: GPT-3 on 4D-4K at 500 GB/s per NPU, from the
// example spec file.
func TestRunSpecText(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-spec", exampleSpec}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `network:    4D-4K (4096 NPUs, 4D)
objective:  PerfOptBW @ 500 GB/s per NPU
workloads:  GPT-3

config           BW per dim (GB/s)                     cost ($M)  iter time (s)
EqualBW          [125.00 125.00 125.00 125.00] GB/s        34.51      25.969138
LIBRA            [340.62 84.78 56.39 18.21] GB/s            9.38      21.374228

speedup over EqualBW:        1.21x
perf-per-cost over EqualBW:  4.47x
  GPT-3         25.969138s -> 21.374228s (1.21x)
`
	if got := out.String(); got != want {
		t.Errorf("text output:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunSpecJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-spec", exampleSpec, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Result      libra.Result `json:"result"`
		EqualBW     libra.Result `json:"equal_bw"`
		Fingerprint string       `json:"fingerprint"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("%v in:\n%s", err, out.String())
	}
	if bw := got.Result.BW.String(); bw != "[340.62 84.78 56.39 18.21] GB/s" {
		t.Errorf("LIBRA bw = %s", bw)
	}
	if tm := got.Result.WeightedTime; tm < 21.3742275 || tm > 21.3742285 {
		t.Errorf("LIBRA iteration time = %v, want 21.374228 s", tm)
	}
	if tm := got.EqualBW.WeightedTime; tm < 25.9691375 || tm > 25.9691385 {
		t.Errorf("EqualBW iteration time = %v, want 25.969138 s", tm)
	}
	if got.Fingerprint != "e901be6597cc177c9cef31fc460280dbf8807d05d690f53c1034763d327b2db1" {
		t.Errorf("fingerprint = %s", got.Fingerprint)
	}
}

// A frontier point below the dimension floors renders as an error row in
// place; the feasible point is the north-star answer.
func TestRunFrontierErrorRow(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-spec", exampleSpec, "-frontier", "0.2,500"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"0.2            error: core: invalid problem spec: core: budget 0.2 GB/s cannot cover 4 dims at the 0.1 GB/s floor\n",
		"500            [340.62 84.78 56.39 18.21] GB/s            9.38      21.374228      25.969138       *\n",
		"Pareto frontier: 1 of 2 points (1 solves, 0 cache hits, ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frontier output lacks %q:\n%s", want, got)
		}
	}
}

// Contradictory or malformed flags fail the run (main exits non-zero)
// before any solve, naming the mistake.
func TestRunFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "RI(4)_SW(8)", "-preset", "4D-4K"}, "use -topology or -preset, not both"},
		{[]string{"-workloads", "GPT-3", "-weights", "1,2"}, "2 weights for 1 workloads"},
		{[]string{"-cluster", "default", "-weights", "1"}, "-weights needs an explicit -cluster job list"},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", c.args, out.String())
		}
	}
}

// A -cluster -spec file is a full cluster spec, read strictly: an empty
// file is an error (not the default study an empty task payload selects),
// and so is an unknown field.
func TestRunClusterSpecFileErrors(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name, body, want string
	}{
		{"empty.json", "", "cluster: bad spec: EOF"},
		{"unknown.json", `{"bogus": 1}`, `cluster: bad spec: json: unknown field "bogus"`},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{"-cluster", "default", "-spec", path}, &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote %q before failing", c.name, out.String())
		}
	}
}

func TestRunHelp(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-spec") {
		t.Errorf("usage lacks -spec:\n%s", out.String())
	}
}
