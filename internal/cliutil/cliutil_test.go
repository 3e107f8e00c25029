package cliutil

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"libra/internal/core"
)

func TestSplitListAndParseFloats(t *testing.T) {
	if got := SplitList(" a, ,b ,, c"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("SplitList = %v", got)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %v", got)
	}
	got, err := ParseFloats("1, 2.5,3e2")
	if err != nil || !reflect.DeepEqual(got, []float64{1, 2.5, 300}) {
		t.Errorf("ParseFloats = %v, %v", got, err)
	}
	if _, err := ParseFloats("1,x"); err == nil {
		t.Error("malformed float accepted")
	}
}

func TestParseDimValuePairs(t *testing.T) {
	got, err := ParseDimValuePairs("4=50,3=100")
	if err != nil || !reflect.DeepEqual(got, map[int]float64{4: 50, 3: 100}) {
		t.Errorf("pairs = %v, %v", got, err)
	}
	for _, bad := range []string{"4", "x=1", "4=y"} {
		if _, err := ParseDimValuePairs(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestResolveNetworkAndParseBW(t *testing.T) {
	if _, err := ResolveNetwork("RI(4)", "3D-Torus", ""); err == nil {
		t.Error("both flags accepted")
	}
	net, err := ResolveNetwork("RI(4)_SW(8)", "", "")
	if err != nil || net.NPUs() != 32 {
		t.Fatalf("topology path: %v, %v", net, err)
	}
	if net, err = ResolveNetwork("", "3D-Torus", ""); err != nil || net.NPUs() != 64 {
		t.Fatalf("preset path: %v, %v", net, err)
	}
	if net, err = ResolveNetwork("", "", "3D-Torus"); err != nil || net.NPUs() != 64 {
		t.Fatalf("fallback path: %v, %v", net, err)
	}
	bw, err := ParseBW("10,20", 2)
	if err != nil || bw[1] != 20 {
		t.Fatalf("ParseBW: %v, %v", bw, err)
	}
	if _, err := ParseBW("10", 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := ParseBW("x", 1); err == nil {
		t.Error("malformed bandwidth accepted")
	}
}

func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"topology": "3D-Torus", "workloads": [{"preset": "GPT-3"}], "budget_gbps": 100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(path)
	if err != nil || spec.Topology != "3D-Torus" {
		t.Fatalf("LoadSpec: %+v, %v", spec, err)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConstraintsFromPairs(t *testing.T) {
	got := ConstraintsFromPairs(map[int]float64{2: 50, 1: 10}, map[int]float64{2: 5})
	want := []core.ConstraintSpec{core.DimCap(1, 10), core.DimCap(2, 50), core.DimFloor(2, 5)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ConstraintsFromPairs = %+v, want %+v", got, want)
	}
}
