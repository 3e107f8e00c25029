// Command libra-lint runs LIBRA's project-specific analyzers
// (internal/lint/analyzers) as a go vet tool, so the checks compose with
// the stock vet suite and reuse cmd/go's package loading and caching:
//
//	go build -o bin/libra-lint ./cmd/libra-lint
//	go vet -vettool=$(pwd)/bin/libra-lint ./...
//
// That is the only way to run it; any other invocation prints the usage
// line and exits 1. The tool has no flags of its own. Findings print as
// file:line:col: [analyzer] message, and go vet exits non-zero when
// anything is found (`make lint-baseline` lists findings without
// failing). Suppress an individual finding with an inline
// `//libra:allow <analyzer> <rationale>` comment on the finding's line
// or the line above.
package main

import (
	"fmt"
	"os"
	"strings"
)

func main() {
	// The vet protocol probes the tool before handing it work: -V=full
	// asks for a cache key, -flags for the tool's flag schema, and the
	// real invocations pass a single *.cfg argument.
	for _, arg := range os.Args[1:] {
		switch strings.TrimLeft(arg, "-") {
		case "V=full":
			printVersion()
			return
		case "flags":
			fmt.Println("[]")
			return
		}
	}
	if n := len(os.Args); n >= 2 && strings.HasSuffix(os.Args[n-1], ".cfg") {
		os.Exit(unitcheck(os.Args[n-1]))
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(pwd)/bin/libra-lint ./...")
	os.Exit(1)
}
