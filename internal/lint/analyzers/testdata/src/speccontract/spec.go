// Package speccontract exercises the speccontract analyzer: a spec type
// that keeps the canonical-spec contract (Good) and one that opts in via
// MarshalCanonical but breaks both clauses (Bad).
package speccontract

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Good marshals the spec type itself and zeroes its hints outside the
// checked methods.
type Good struct {
	Steps   int     `json:"steps"`
	Tol     float64 `json:"tol"`
	WarmTol float64 `json:"-"`
}

func (g *Good) MarshalCanonical() ([]byte, error) {
	return json.Marshal(g.canonical())
}

// canonical zeroes the runtime-only hints; it is not itself part of the
// checked canonicalization methods, so writing WarmTol here is fine.
func (g *Good) canonical() *Good {
	c := *g
	c.WarmTol = 0
	return &c
}

func (g *Good) Fingerprint() (string, error) {
	data, err := g.MarshalCanonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Bad declares MarshalCanonical but hand-rolls the bytes, and reads a
// runtime-only hint both while doing it and in its Fingerprint.
type Bad struct {
	Steps     int       `json:"steps"`
	WarmStart []float64 `json:"-"`
}

func (b *Bad) MarshalCanonical() ([]byte, error) { // want "MarshalCanonical on Bad never passes a Bad value to json\\.Marshal"
	if len(b.WarmStart) > 0 { // want "WarmStart is tagged json:\"-\" \\(runtime-only\\) but is read inside MarshalCanonical"
		return json.Marshal(map[string]int{"steps": b.Steps})
	}
	return json.Marshal(b.Steps)
}

func (b *Bad) Fingerprint() string {
	if len(b.WarmStart) > 0 { // want "WarmStart is tagged json:\"-\" \\(runtime-only\\) but is read inside Fingerprint"
		return "warm"
	}
	data, _ := b.MarshalCanonical()
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
