// Package cliutil collects the flag-parsing and I/O helpers shared by the
// libra, libra-sim, libra-serve, and experiments binaries, so each command
// stops hand-rolling its own list/pair/topology parsing.
package cliutil

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"libra/internal/core"
	"libra/internal/topology"
)

// Fatal prints "tool: err" to stderr and exits 1 when err is non-nil.
func Fatal(tool string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// SplitList splits a comma-separated flag value, trimming blanks.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseFloats reads a comma-separated float list.
func ParseFloats(s string) ([]float64, error) {
	parts := SplitList(s)
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed number %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// ParseDimValuePairs reads "dim=value" pairs (1-based dims), e.g.
// "4=50,3=100".
func ParseDimValuePairs(s string) (map[int]float64, error) {
	out := map[int]float64{}
	for _, p := range SplitList(s) {
		eq := strings.IndexByte(p, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed pair %q (want dim=GBps)", p)
		}
		d, err := strconv.Atoi(p[:eq])
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(p[eq+1:], 64)
		if err != nil {
			return nil, err
		}
		out[d] = v
	}
	return out, nil
}

// ResolveNetwork reads a -topology/-preset flag pair, rejecting both at
// once and falling back to fallbackPreset when neither is set.
func ResolveNetwork(topo, preset, fallbackPreset string) (*topology.Network, error) {
	switch {
	case topo != "" && preset != "":
		return nil, fmt.Errorf("use -topology or -preset, not both")
	case topo != "":
		return topology.Parse(topo)
	case preset != "":
		return topology.Preset(preset)
	default:
		return topology.Preset(fallbackPreset)
	}
}

// ParseBW reads a comma-separated per-dimension bandwidth vector,
// checking the dimension count.
func ParseBW(s string, ndims int) (topology.BWConfig, error) {
	vals, err := ParseFloats(s)
	if err != nil {
		return nil, err
	}
	if len(vals) != ndims {
		return nil, fmt.Errorf("%d bandwidths for a %dD network", len(vals), ndims)
	}
	return topology.BWConfig(vals), nil
}

// LoadSpec reads and strictly decodes a ProblemSpec JSON file.
func LoadSpec(path string) (*core.ProblemSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.ParseSpec(data)
}

// ConstraintsFromPairs converts -cap/-floor pair maps into declarative
// constraint specs, in dimension order for deterministic specs.
func ConstraintsFromPairs(caps, floors map[int]float64) []core.ConstraintSpec {
	dims := map[int]bool{}
	for d := range caps {
		dims[d] = true
	}
	for d := range floors {
		dims[d] = true
	}
	order := make([]int, 0, len(dims))
	for d := range dims {
		order = append(order, d)
	}
	sort.Ints(order)
	var out []core.ConstraintSpec
	for _, d := range order {
		if v, ok := caps[d]; ok {
			out = append(out, core.DimCap(d, v))
		}
		if v, ok := floors[d]; ok {
			out = append(out, core.DimFloor(d, v))
		}
	}
	return out
}
